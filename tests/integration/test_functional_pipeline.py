"""Integration: the film the pipeline draws — *real pixels*.

The film is a pure function of the workload, configuration, pipeline
count and seed (:func:`repro.pipeline.film.render_film`): the renderer
rasterizes, the filters run their real kernels on every strip, the
strips are reassembled — and the result must equal the sequential
reference computation where the two are comparable.
"""

import numpy as np
import pytest

from repro.filters import default_filter_chain
from repro.pipeline import PipelineRunner, WalkthroughWorkload, render_film

FRAMES = 4
SIDE = 64


@pytest.fixture(scope="module")
def workload():
    return WalkthroughWorkload(frames=FRAMES, image_side=SIDE)


def reference_frames(workload, seed=0):
    """Sequentially computed frames: render -> filters (single RNG)."""
    rng = np.random.default_rng(seed)
    frames = []
    for f in range(FRAMES):
        camera = workload.path.camera_at(f)
        image = workload.renderer.render(camera, workload.viewport())
        for filt in default_filter_chain():
            image = filt.apply(image, rng)
        frames.append(image)
    return frames


def test_single_core_payload_matches_reference(workload):
    frames = render_film(workload, "single_core", 1, FRAMES)
    ref = reference_frames(workload)
    assert len(frames) == FRAMES
    for got, want in zip(frames, ref):
        assert got.shape == want.shape
        assert np.allclose(got, want)


def test_parallel_pipeline_payload_geometry(workload):
    """With n pipelines the assembled frames must be complete images of
    the right shape, independent of the strip split."""
    frames = render_film(workload, "one_renderer", 3, FRAMES)
    assert len(frames) == FRAMES
    for img in frames:
        assert img.shape == (SIDE, SIDE, 3)
        assert img.dtype == np.float32
        assert np.all(img >= 0.0) and np.all(img <= 1.0)


def test_parallel_payload_deterministic_content_matches_render(workload):
    """Two parallel films with the same seed must agree exactly."""
    a = render_film(workload, "one_renderer", 2, FRAMES, seed=7)
    b = render_film(workload, "one_renderer", 2, FRAMES, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_mcpc_payload_runs_end_to_end(workload):
    frames = render_film(workload, "mcpc_renderer", 2, FRAMES)
    assert len(frames) == FRAMES
    for img in frames:
        assert img.shape == (SIDE, SIDE, 3)


def test_n_renderers_payload_covers_every_strip(workload):
    """Sort-first strips rendered independently still assemble into a
    full frame whose content matches a full render in the deterministic
    prefix (render+sepia only regions won't match exactly because blur
    mixes rows across strip borders — so check coverage, not equality)."""
    frames = render_film(workload, "n_renderers", 2, FRAMES)
    for img in frames:
        assert img.shape == (SIDE, SIDE, 3)
        # Both halves contain scene content (not all background).
        top, bottom = img[:SIDE // 2], img[SIDE // 2:]
        assert np.unique(top.reshape(-1, 3), axis=0).shape[0] > 1
        assert np.unique(bottom.reshape(-1, 3), axis=0).shape[0] > 1


def test_viewer_receives_frames_in_order(workload):
    runner = PipelineRunner(config="one_renderer", pipelines=2,
                            frames=FRAMES, image_side=SIDE,
                            workload=workload)
    runner.run()
    indices = [f for f, _ in runner.last_metrics.frame_completions]
    assert indices == list(range(FRAMES))


def test_film_identical_across_arrangements(workload):
    """The film takes no arrangement: placement only moves timing.  The
    two configurations that differ only in where the full frame is
    rendered (an SCC core or the MCPC) draw the same film."""
    scc = render_film(workload, "one_renderer", 2, FRAMES, seed=5)
    host = render_film(workload, "mcpc_renderer", 2, FRAMES, seed=5)
    for a, b in zip(scc, host):
        assert np.array_equal(a, b)


def test_film_changes_with_seed(workload):
    """Different seeds give different scratches/flicker."""
    a = render_film(workload, "one_renderer", 1, FRAMES, seed=1)
    b = render_film(workload, "one_renderer", 1, FRAMES, seed=2)
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("config, pipelines, frames", [
    ("dual_core", 2, FRAMES),
    ("one_renderer", 2, 0),
    ("one_renderer", 2, FRAMES + 1),
    ("one_renderer", 0, FRAMES),
])
def test_render_film_rejects_bad_arguments(workload, config, pipelines,
                                           frames):
    with pytest.raises(ValueError):
        render_film(workload, config, pipelines, frames)
