"""Tests for the walkthrough workload and strip geometry."""

import pytest

from repro.pipeline import WalkthroughWorkload, default_workload


@pytest.fixture(scope="module")
def workload():
    return WalkthroughWorkload(frames=16, image_side=400)


def test_validation():
    with pytest.raises(ValueError):
        WalkthroughWorkload(frames=0)
    with pytest.raises(ValueError):
        WalkthroughWorkload(image_side=0)


def test_viewport_strips_cover_frame(workload):
    for n in (1, 2, 3, 5, 7, 8):
        total_rows = 0
        prev_end = 0
        for s in range(n):
            vp = workload.viewport(s, n)
            assert vp.y_start == prev_end
            prev_end = vp.y_start + vp.height
            total_rows += vp.height
        assert total_rows == 400


def test_viewport_validation(workload):
    with pytest.raises(ValueError):
        workload.viewport(0, 0)
    with pytest.raises(ValueError):
        workload.viewport(3, 3)
    # a rejected key is not memoized: it is checked, and raises, again
    with pytest.raises(ValueError):
        workload.viewport(3, 3)


def test_viewport_is_memoized(workload):
    assert workload.viewport(1, 3) is workload.viewport(1, 3)
    assert workload.viewport(1, 3) is not workload.viewport(1, 4)


def test_strip_bytes_sum_to_frame(workload):
    for n in (1, 3, 7):
        total = sum(workload.strip_bytes(s, n) for s in range(n))
        assert total == workload.frame_bytes() == 400 * 400 * 4


def test_uneven_split_spreads_remainder(workload):
    # 400 rows over 7 strips: 57*3 + 57... -> heights differ by <= 1.
    heights = [workload.viewport(s, 7).height for s in range(7)]
    assert sum(heights) == 400
    assert max(heights) - min(heights) <= 1


def test_profile_bounds(workload):
    with pytest.raises(ValueError):
        workload.profile(16)
    p = workload.profile(0)
    assert p.pixels == 160_000
    assert p.triangles_in_view > 0


def test_profile_memoized(workload):
    a = workload.profile(1, 0, 4)
    b = workload.profile(1, 0, 4)
    assert a is b


def test_strip_profiles_smaller_pixels(workload):
    full = workload.profile(2)
    strip = workload.profile(2, 0, 4)
    assert strip.pixels == full.pixels // 4


def test_strip_culling_barely_shrinks_triangles(workload):
    """The calibration assumption: a strip sub-frustum still collects
    nearly all visible triangles (tall buildings cross every strip)."""
    full = workload.profile(3)
    worst = max(workload.profile(3, s, 7).triangles_in_view
                for s in range(7))
    assert worst >= 0.85 * full.triangles_in_view


def test_mean_full_frame_profile(workload):
    mean = workload.mean_full_frame_profile()
    assert mean.pixels == 160_000
    assert 0 < mean.triangles_in_view <= workload.renderer.mesh.num_triangles


def test_default_workload_is_shared():
    a = default_workload()
    b = default_workload()
    assert a is b
    assert a.frames == 400
    assert a.image_side == 400


def test_workload_repr(workload):
    assert "side=400" in repr(workload)


def test_profile_cache_cap_validation():
    with pytest.raises(ValueError):
        WalkthroughWorkload(profile_cache_cap=0)


def test_profile_cache_evicts_lru_and_preserves_results():
    small = WalkthroughWorkload(frames=16, image_side=400,
                                profile_cache_cap=4)
    reference = {f: small.profile(f) for f in range(8)}
    # the memo never exceeds its cap; the oldest entries were evicted
    assert len(small._profiles) == 4
    assert (0, 0, 1) not in small._profiles
    # recomputing an evicted profile yields the identical result
    for f, ref in reference.items():
        again = small.profile(f)
        assert again == ref


def test_profile_cache_hit_refreshes_recency():
    small = WalkthroughWorkload(frames=16, image_side=400,
                                profile_cache_cap=2)
    small.profile(0)
    small.profile(1)
    small.profile(0)          # touch frame 0: now most-recently used
    small.profile(2)          # evicts frame 1, not frame 0
    assert (0, 0, 1) in small._profiles
    assert (1, 0, 1) not in small._profiles


def test_rejected_profile_builds_no_table():
    """Bad keys fail with ValueError before any culling work starts."""
    fresh = WalkthroughWorkload(frames=4, image_side=64)
    for args in ((4, 0, 1), (-1, 0, 1), (0, 3, 3), (0, -1, 3), (0, 0, 0)):
        with pytest.raises(ValueError):
            fresh.profile(*args)
    assert not fresh._tables and not fresh._profiles
    assert fresh._renderer is None


def test_split_table_built_once_and_read_per_key():
    fresh = WalkthroughWorkload(frames=4, image_side=64)
    first = fresh.profile(2, 1, 3)
    assert list(fresh._tables) == [3]
    table = fresh._tables[3]
    others = [fresh.profile(f, s, 3) for f in range(4) for s in range(3)]
    assert fresh._tables[3] is table
    assert first in others
    assert len(fresh._profiles) == 12


def test_table_cells_count_toward_the_cap():
    # 4 frames: the 3-strip table has 12 cells, the 2-strip one 8
    small = WalkthroughWorkload(frames=4, image_side=64,
                                profile_cache_cap=20)
    reference = WalkthroughWorkload(frames=4, image_side=64)
    small.profile(0, 0, 3)
    small.profile(1, 1, 3)
    assert list(small._tables) == [3] and len(small._profiles) == 2
    # 12 + 8 cells + 3 profiles > 20: profiles go first (never the
    # newest), then the least recently used table
    small.profile(0, 0, 2)
    assert list(small._tables) == [2] and list(small._profiles) == [(0, 0, 2)]
    # a table larger than the cap is used once and not kept
    tiny = WalkthroughWorkload(frames=4, image_side=64, profile_cache_cap=4)
    assert tiny.profile(3, 1, 2) == reference.profile(3, 1, 2)
    assert not tiny._tables
    for f in range(4):
        for s in range(3):
            assert small.profile(f, s, 3) == reference.profile(f, s, 3)
            assert len(small._profiles) + 4 * sum(small._tables) <= 20


def test_concurrent_profiles_match_serial():
    """Job threads share one workload: a thread that hits a split while
    another builds its table never reads a partial table or loses an
    entry."""
    import sys
    import threading

    serial = WalkthroughWorkload(frames=8, image_side=64)
    want = {(f, s, n): serial.profile(f, s, n)
            for n in (4, 5) for f in range(8) for s in range(n)}
    shared = WalkthroughWorkload(frames=8, image_side=64)
    got = [{} for _ in range(6)]
    errors = []

    def worker(i):
        try:
            for (f, s, n) in sorted(want, key=lambda k: hash((i,) + k)):
                got[i][(f, s, n)] = shared.profile(f, s, n)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(g == want for g in got)
    assert sorted(shared._tables) == [4, 5]
    assert len(shared._profiles) == len(want)
