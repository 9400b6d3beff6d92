"""Octree spatial index over a triangle mesh.

The render stage "loads the scene and organizes the different objects in
a hierarchical data structure known as an octree ... the octree is
traversed [for frustum culling], causing significant memory accesses."
The traversal statistics (:class:`TraversalStats`) are exactly what the
timing cost model charges for — the octree walk is the irregular,
pointer-chasing memory pattern that makes the render stage expensive on
a cache-starved P54C.

The reproduction's host never walks the tree node by node: it computes
the counts a depth-first walk would make for many frusta at once, on a
flat copy of the tree (:meth:`Octree.cull`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .frustum import Frustum, classify_boxes
from .mesh3d import AABB, TriangleMesh

__all__ = ["TraversalStats", "OctreeNode", "Octree", "CULL_CHUNK"]

#: frusta classified per kernel step; bounds the ``(chunk, 6, nodes)``
#: float64 temporaries (about 250 KB each for the 81-node default city,
#: small enough to stay in cache: twice as fast as 512 on a 2-CPU host)
CULL_CHUNK = 64


@dataclass
class TraversalStats:
    """Counters from one culling traversal (drives the render cost model)."""

    nodes_visited: int = 0
    nodes_culled: int = 0
    triangles_collected: int = 0


class OctreeNode:
    """One octree cell: either a leaf holding triangle indices, or eight
    children (sparse — empty octants are ``None``)."""

    __slots__ = ("bounds", "triangle_indices", "children")

    def __init__(self, bounds: AABB) -> None:
        self.bounds = bounds
        self.triangle_indices: Optional[np.ndarray] = None
        self.children: Optional[List[Optional["OctreeNode"]]] = None


class Octree:
    """Octree over the triangles of a mesh.

    Triangles are binned by centroid; each leaf's bounds are padded to
    enclose its triangles fully (loose octree), so a frustum query never
    misses geometry.

    After the build the tree is also kept flat, its nodes numbered in
    depth-first preorder (children in octant order), so a parent always
    precedes its children and the leaves in ascending order are the
    depth-first collection order:

    * ``lo``, ``hi`` — ``(N, 3)`` node bounds;
    * ``parent`` — ``(N,)`` parent number (``-1`` for the root);
    * ``node_depth`` — ``(N,)`` depth below the root;
    * ``child_count`` — ``(N,)`` live children (0 for leaves);
    * ``leaf_size`` — ``(N,)`` triangles held (0 for internal nodes);
    * ``leaf_triangles`` — every leaf's triangle indices, concatenated
      in node order.

    Culling runs on these arrays for a whole stack of frusta at once
    (:meth:`cull`).

    Parameters
    ----------
    mesh:
        The scene geometry.
    max_triangles_per_leaf:
        Split threshold.
    max_depth:
        Hard depth cap (protects against degenerate input).
    """

    def __init__(self, mesh: TriangleMesh, max_triangles_per_leaf: int = 64,
                 max_depth: int = 10) -> None:
        if mesh.num_triangles == 0:
            raise ValueError("cannot index an empty mesh")
        if max_triangles_per_leaf < 1:
            raise ValueError("max_triangles_per_leaf must be >= 1")
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        self.mesh = mesh
        self.max_triangles_per_leaf = max_triangles_per_leaf
        self.max_depth = max_depth
        self._centroids = mesh.centroids()
        self._tri_lo, self._tri_hi = mesh.triangle_bounds()
        self.root = OctreeNode(mesh.bounds())
        order: List[Tuple[OctreeNode, int, int]] = []
        self._build(self.root, np.arange(mesh.num_triangles), 0, -1, order)
        self._flatten(order)

    def _flatten(self, order: List[Tuple[OctreeNode, int, int]]) -> None:
        """Store the preorder ``(node, parent, depth)`` list as arrays.

        Gathered after the build: leaf bounds were loosened in
        :meth:`_build`, and these copies must reflect the final values.
        """
        nodes = [node for node, _, _ in order]
        self.node_count = len(nodes)
        self.lo = np.array([n.bounds.lo for n in nodes], dtype=np.float64)
        self.hi = np.array([n.bounds.hi for n in nodes], dtype=np.float64)
        self.parent = np.array([p for _, p, _ in order], dtype=np.int64)
        self.node_depth = np.array([d for _, _, d in order], dtype=np.int64)
        self.child_count = np.bincount(self.parent[1:],
                                       minlength=len(nodes))
        self.leaf_count = int(np.count_nonzero(self.child_count == 0))
        held = [n.triangle_indices for n in nodes]   # None when internal
        self.leaf_size = np.array([0 if t is None else len(t) for t in held],
                                  dtype=np.int64)
        self.leaf_triangles = np.concatenate([t for t in held
                                              if t is not None])
        #: non-root node numbers per depth, shallowest first
        self._levels = [np.flatnonzero(self.node_depth == d)
                        for d in range(1, self.depth + 1)]

    # -- construction -----------------------------------------------------------
    def _build(self, node: OctreeNode, indices: np.ndarray, depth: int,
               parent: int, order: List[Tuple[OctreeNode, int, int]]) -> None:
        number = len(order)
        order.append((node, parent, depth))
        if len(indices) <= self.max_triangles_per_leaf or depth >= self.max_depth:
            node.triangle_indices = indices
            # Loose bounds: grow to cover the binned triangles entirely.
            if len(indices):
                node.bounds = AABB(
                    np.minimum(node.bounds.lo,
                               self._tri_lo[indices].min(axis=0)),
                    np.maximum(node.bounds.hi,
                               self._tri_hi[indices].max(axis=0)),
                )
            return
        node.children = [None] * 8
        center = node.bounds.center
        cent = self._centroids[indices]
        octant = ((cent[:, 0] >= center[0]).astype(np.int64)
                  | ((cent[:, 1] >= center[1]).astype(np.int64) << 1)
                  | ((cent[:, 2] >= center[2]).astype(np.int64) << 2))
        for o in range(8):
            sub = indices[octant == o]
            if len(sub) == 0:
                continue
            child = OctreeNode(node.bounds.octant(o))
            node.children[o] = child
            self._build(child, sub, depth + 1, number, order)

    # -- queries ------------------------------------------------------------
    def _entered(self, planes: np.ndarray) -> np.ndarray:
        """``(F, N)``: which nodes each frustum's depth-first walk enters.

        A node is entered when it passes the p-vertex test and its
        parent was entered; every node is tested at once, then "entered"
        propagates down one level per step.
        """
        entered = classify_boxes(planes, self.lo, self.hi)
        for level in self._levels:
            entered[:, level] &= entered[:, self.parent[level]]
        return entered

    def _counts(self, entered: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-frustum ``(nodes_visited, nodes_culled, triangles)``.

        The walk visits the root and every live child of each entered
        node; the visited nodes it does not enter are the culled ones.
        """
        visited = 1 + entered @ self.child_count
        culled = visited - entered.sum(axis=1)
        return visited, culled, entered @ self.leaf_size

    def cull(self, planes: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Culling counters for a stack of frusta.

        Parameters
        ----------
        planes:
            ``(F, 6, 4)`` normalized inward planes (see
            :func:`~repro.render.frustum.frustum_planes`).

        Returns
        -------
        ``(nodes_visited, nodes_culled, triangles)``, each ``(F,)``
        int64 — what a depth-first walk per frustum would count.
        Frusta are classified :data:`CULL_CHUNK` at a time.
        """
        planes = np.asarray(planes, dtype=np.float64)
        if planes.ndim != 3 or planes.shape[1:] != (6, 4):
            raise ValueError("planes must be (F, 6, 4)")
        counts = np.empty((3, len(planes)), dtype=np.int64)
        for i in range(0, len(planes), CULL_CHUNK):
            chunk = self._entered(planes[i:i + CULL_CHUNK])
            counts[:, i:i + CULL_CHUNK] = self._counts(chunk)
        visited, culled, triangles = counts
        return visited, culled, triangles

    def query_frustum(self, frustum: Frustum,
                      stats: Optional[TraversalStats] = None) -> np.ndarray:
        """Triangle indices of every leaf intersecting the frustum, in
        depth-first leaf order.

        ``stats`` (if given) accumulates visited/culled node counts for
        the cost model.
        """
        entered = self._entered(frustum.planes[None])
        out = self.leaf_triangles[np.repeat(entered[0], self.leaf_size)]
        if stats is not None:
            visited, culled, _ = self._counts(entered)
            stats.nodes_visited += int(visited[0])
            stats.nodes_culled += int(culled[0])
            stats.triangles_collected = len(out)
        return out

    def all_triangles(self) -> np.ndarray:
        """Every triangle index, in tree order (sanity checks)."""
        return self.leaf_triangles.copy()

    @property
    def depth(self) -> int:
        """Actual maximum depth of the built tree."""
        return int(self.node_depth.max())

    def __repr__(self) -> str:
        return (
            f"<Octree tris={self.mesh.num_triangles} nodes={self.node_count} "
            f"leaves={self.leaf_count}>"
        )
