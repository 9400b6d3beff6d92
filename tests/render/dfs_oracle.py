"""Test-only depth-first culling oracle for the octree.

This is the per-frustum traversal the library computed its culling
statistics with before :meth:`repro.render.Octree.cull` replaced it: an
iterative DFS over the :class:`~repro.render.OctreeNode` tree that
classifies all live children of a node in one p-vertex test, pushes the
passing ones in reverse octant order and collects leaves as it pops
them.  It carries its own p-vertex arithmetic (corner selection with
``np.where``, dot products with ``einsum``), so the differential tests
check the kernel's plane test as well as its level-by-level propagation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.render import Frustum, Octree, OctreeNode, TraversalStats

__all__ = ["dfs_query"]


def _intersects(planes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """One box against one frustum: the p-vertex test."""
    normals = planes[:, :3]
    pv = np.where(normals >= 0.0, hi[None, :], lo[None, :])
    dist = np.einsum("ij,ij->i", normals, pv) + planes[:, 3]
    return bool(np.all(dist >= -1e-9))


def _classify(planes: np.ndarray, los: np.ndarray,
              his: np.ndarray) -> np.ndarray:
    """``(k,)`` mask for ``k`` boxes against one frustum."""
    normals = planes[:, :3]
    pick_hi = normals[None, :, :] >= 0.0
    pv = np.where(pick_hi, his[:, None, :], los[:, None, :])
    dist = np.einsum("nij,ij->ni", pv, normals) + planes[None, :, 3]
    return np.all(dist >= -1e-9, axis=1)


def dfs_query(tree: Octree,
              frustum: Frustum) -> Tuple[np.ndarray, TraversalStats]:
    """Triangle indices of every leaf the walk enters, in depth-first
    octant order, and the walk's visited/culled/collected counts."""
    planes = frustum.planes
    stats = TraversalStats(nodes_visited=1)
    root = tree.root
    if not _intersects(planes, root.bounds.lo, root.bounds.hi):
        stats.nodes_culled = 1
        return np.empty(0, dtype=np.int64), stats
    collected: List[np.ndarray] = []
    stack: List[OctreeNode] = [root]
    while stack:
        node = stack.pop()
        if node.children is None:
            indices = node.triangle_indices
            if indices is not None and len(indices):
                collected.append(indices)
            continue
        live = [c for c in node.children if c is not None]
        mask = _classify(planes,
                         np.array([c.bounds.lo for c in live]),
                         np.array([c.bounds.hi for c in live]))
        stats.nodes_visited += len(live)
        stats.nodes_culled += len(live) - int(mask.sum())
        for child, inside in zip(reversed(live), reversed(mask)):
            if inside:
                stack.append(child)
    out = (np.concatenate(collected) if collected
           else np.empty(0, dtype=np.int64))
    stats.triangles_collected = len(out)
    return out, stats
