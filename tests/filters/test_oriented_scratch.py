"""Tests for the oriented-scratch extension (paper's suggested upgrade)."""

import numpy as np
import pytest

from repro.filters import OrientedScratchFilter


def solid(h, w, value=0.0):
    return np.full((h, w, 3), value, dtype=np.float32)


def test_validation():
    with pytest.raises(ValueError):
        OrientedScratchFilter(max_scratches=-1)
    with pytest.raises(ValueError):
        OrientedScratchFilter(max_tilt_deg=120.0)
    with pytest.raises(ValueError):
        OrientedScratchFilter(min_length_frac=0.0)
    with pytest.raises(ValueError):
        OrientedScratchFilter(min_length_frac=0.9, max_length_frac=0.5)


def test_zero_scratches_is_identity():
    img = solid(16, 16, 0.4)
    out = OrientedScratchFilter(max_scratches=0).apply(
        img, np.random.default_rng(0))
    assert np.array_equal(out, img)


def test_scratches_are_grey_and_in_range():
    img = solid(32, 32, 0.0)
    out = OrientedScratchFilter(max_scratches=8).apply(
        img, np.random.default_rng(3))
    changed = np.any(out != img, axis=-1)
    assert changed.any()
    greys = out[changed]
    assert np.all(greys[:, 0] == greys[:, 1])
    assert np.all(greys[:, 1] == greys[:, 2])
    assert np.all(greys >= 0.6 - 1e-6) and np.all(greys <= 1.0)


def test_vertical_limit_matches_column_behaviour():
    """With zero tilt and full length a scratch is a vertical run."""
    img = solid(24, 24, 0.0)
    filt = OrientedScratchFilter(max_scratches=3, max_tilt_deg=0.0,
                                 min_length_frac=1.0, max_length_frac=1.0)
    out = filt.apply(img, np.random.default_rng(5))
    changed_cols = np.nonzero(np.any(np.any(out != img, axis=-1), axis=0))[0]
    for x in changed_cols:
        col_changed = np.any(out[:, x] != img[:, x], axis=-1)
        # The run is contiguous down the column.
        idx = np.nonzero(col_changed)[0]
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


def test_tilted_scratches_cross_columns():
    img = solid(64, 64, 0.0)
    filt = OrientedScratchFilter(max_scratches=4, max_tilt_deg=45.0,
                                 min_length_frac=0.8)
    out = filt.apply(img, np.random.default_rng(12))  # seed draws >0 scratches
    changed = np.any(out != img, axis=-1)
    # At 45 degrees a long scratch touches many distinct columns.
    cols = np.nonzero(changed.any(axis=0))[0]
    assert len(cols) > 8


def test_deterministic_given_rng():
    img = solid(32, 32, 0.2)
    a = OrientedScratchFilter().apply(img, np.random.default_rng(7))
    b = OrientedScratchFilter().apply(img, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_input_not_mutated():
    img = solid(16, 16, 0.5)
    before = img.copy()
    OrientedScratchFilter().apply(img, np.random.default_rng(1))
    assert np.array_equal(img, before)


def test_cost_descriptor_sparse():
    cost = OrientedScratchFilter().cost
    assert cost.touched_fraction < 0.1
    assert cost.pattern == "strided"


def test_usable_in_pipeline_payload_mode(monkeypatch):
    """Swapping the oriented filter into the film's chain works."""
    import repro.pipeline.film as film
    from repro.filters import default_filter_chain
    from repro.pipeline import WalkthroughWorkload

    def oriented_chain():
        return [OrientedScratchFilter() if f.key == "scratch" else f
                for f in default_filter_chain()]

    workload = WalkthroughWorkload(frames=2, image_side=32)
    plain = film.render_film(workload, "one_renderer", 1, 2)
    monkeypatch.setattr(film, "default_filter_chain", oriented_chain)
    oriented = film.render_film(workload, "one_renderer", 1, 2)
    assert len(oriented) == 2
    for frame in oriented:
        assert frame.shape == (32, 32, 3)
        assert np.all(frame >= 0.0) and np.all(frame <= 1.0)
    assert any(not np.array_equal(a, b) for a, b in zip(plain, oriented))
