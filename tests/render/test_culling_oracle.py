"""Differential tests: the batched culling kernel against the DFS oracle.

:meth:`Octree.cull`, :meth:`Octree.query_frustum`,
:meth:`Renderer.visible_triangles` and :meth:`Renderer.profile` must
report what a depth-first walk per frustum (``dfs_oracle``) reports:
the same visited, culled and triangle counts, and the same triangle
indices in the same order.  Cities, octree shapes, cameras (some of
whose frusta miss the whole scene) and strip splits are drawn at random.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.render import (
    Camera,
    CityConfig,
    Frustum,
    Renderer,
    Viewport,
    build_city,
    frustum_planes,
    strip_view_proj,
)
from repro.render import octree as octree_module

from .dfs_oracle import dfs_query


@lru_cache(maxsize=None)
def renderer(blocks: int, leaf: int, max_depth: int) -> Renderer:
    return Renderer(build_city(CityConfig(blocks=blocks)),
                    max_triangles_per_leaf=leaf, max_depth=max_depth)


def strip_frustum(camera: Camera, strip: int, num_strips: int) -> Frustum:
    vp = camera.view_proj()
    if num_strips > 1:
        vp = strip_view_proj(vp, strip, num_strips)
    return Frustum.from_view_proj(vp)


coords = st.floats(-150.0, 150.0, allow_nan=False)
cameras = st.builds(
    lambda eye, yaw, reach, rise, fov, near, far: Camera(
        eye=np.array(eye),
        target=np.array(eye) + [reach * np.cos(yaw), rise,
                                reach * np.sin(yaw)],
        fov_y_deg=fov, near=near, far=near + far),
    st.tuples(coords, st.floats(-20.0, 80.0), coords),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(1.0, 100.0),
    st.floats(-60.0, 60.0),
    st.floats(20.0, 120.0),
    st.floats(0.05, 5.0),
    st.floats(1.0, 500.0),
)

#: outside the city, looking away from it: the frustum misses the root box
LOOKING_AWAY = Camera(eye=np.array([140.0, 10.0, 0.0]),
                      target=np.array([200.0, 10.0, 0.0]))


@settings(max_examples=150, deadline=None)
@given(blocks=st.integers(1, 8),
       leaf=st.sampled_from([1, 4, 16, 64, 1_000_000]),
       max_depth=st.integers(0, 6),
       camera=cameras,
       num_strips=st.integers(1, 9),
       strip=st.integers(0, 8))
@example(blocks=6, leaf=64, max_depth=10, camera=LOOKING_AWAY,
         num_strips=1, strip=0)
@example(blocks=6, leaf=16, max_depth=10, camera=LOOKING_AWAY,
         num_strips=9, strip=4)
def test_kernel_matches_dfs_oracle(blocks, leaf, max_depth, camera,
                                   num_strips, strip):
    strip %= num_strips
    rend = renderer(blocks, leaf, max_depth)
    tree = rend.octree
    frustum = strip_frustum(camera, strip, num_strips)
    want, want_stats = dfs_query(tree, frustum)

    visited, culled, triangles = tree.cull(frustum.planes[None])
    assert (int(visited[0]), int(culled[0]), int(triangles[0])) == (
        want_stats.nodes_visited, want_stats.nodes_culled,
        want_stats.triangles_collected)

    got = rend.visible_triangles(camera, strip, num_strips)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)

    profile = rend.profile(camera, Viewport(64, 64), strip, num_strips)
    assert profile.nodes_visited == want_stats.nodes_visited
    assert profile.triangles_in_view == len(want)
    assert profile.culled_everything == (len(want) == 0)


def test_frustum_missing_the_scene_culls_everything():
    rend = renderer(6, 64, 10)
    frustum = strip_frustum(LOOKING_AWAY, 0, 1)
    want, stats = dfs_query(rend.octree, frustum)
    assert len(want) == 0 and stats.nodes_visited == stats.nodes_culled == 1
    profile = rend.profile(LOOKING_AWAY, Viewport(64, 64))
    assert profile.culled_everything
    assert profile.nodes_visited == 1 and profile.triangles_in_view == 0


@pytest.mark.parametrize("chunk", [1, 7, octree_module.CULL_CHUNK])
def test_batched_stack_matches_oracle_per_frustum(chunk, monkeypatch):
    """A stack of frusta classified in chunks gives every frustum its own
    walk's counts, whatever the chunk boundaries."""
    monkeypatch.setattr(octree_module, "CULL_CHUNK", chunk)
    rend = renderer(5, 16, 10)
    rng = np.random.default_rng(15)
    view_projs = []
    for _ in range(24):
        eye = rng.uniform(-60.0, 60.0, 3)
        eye[1] = rng.uniform(2.0, 40.0)
        view_projs.append(Camera(eye=eye, target=np.zeros(3)).view_proj())
    view_projs.append(LOOKING_AWAY.view_proj())
    stack = np.stack([strip_view_proj(vp, s, 3)
                      for vp in view_projs for s in range(3)])
    visited, culled, triangles = rend.octree.cull(frustum_planes(stack))
    for i, vp in enumerate(stack):
        _, stats = dfs_query(rend.octree, Frustum.from_view_proj(vp))
        assert (visited[i], culled[i], triangles[i]) == (
            stats.nodes_visited, stats.nodes_culled,
            stats.triangles_collected)


def test_cull_validates_plane_stack():
    tree = renderer(2, 64, 10).octree
    with pytest.raises(ValueError):
        tree.cull(np.zeros((6, 4)))
    visited, culled, triangles = tree.cull(np.zeros((0, 6, 4)))
    assert len(visited) == len(culled) == len(triangles) == 0


def test_stacked_planes_equal_single_frustum_planes():
    camera = Camera(eye=np.array([30.0, 12.0, 40.0]), target=np.zeros(3))
    stack = np.stack([strip_view_proj(camera.view_proj(), s, 5)
                      for s in range(5)])
    planes = frustum_planes(stack)
    for s in range(5):
        assert np.array_equal(planes[s],
                              Frustum.from_view_proj(stack[s]).planes)
    with pytest.raises(ValueError):
        frustum_planes(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        frustum_planes(np.zeros((2, 3, 3)))


def test_plane_tolerance_matches_oracle():
    """Boxes within 1e-9 outside a plane still count as inside."""
    from .dfs_oracle import _intersects

    box_frustum = Frustum(np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 10],
                                    [0, 1.0, 0, 0], [0, -1.0, 0, 10],
                                    [0, 0, 1.0, 0], [0, 0, -1.0, 10]]))
    los = np.array([[-1.0, 1, 1]] * 3)
    his = np.array([[0.0, 2, 2], [-5e-10, 2, 2], [-2e-9, 2, 2]])
    mask = box_frustum.classify_aabbs(los, his)
    assert mask.tolist() == [True, True, False]
    assert mask.tolist() == [_intersects(box_frustum.planes, lo, hi)
                             for lo, hi in zip(los, his)]
