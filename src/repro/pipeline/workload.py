"""The walkthrough workload: per-frame, per-strip render work profiles.

Timing-level runs do not rasterize pixels; they charge the render stage
according to *real* culling statistics — the octree nodes the strip's
sub-frustum visits and the triangles it collects, measured on the actual
procedural city along the actual 400-frame camera path.  That keeps the
frame-to-frame load variation ("the complexity of the scene") real while
the 400-frame sweeps run in seconds.

Each strip split is culled whole: the first profile asked for in a split
runs the octree culling kernel once over every frame's strip sub-frusta
and keeps the counts as that split's table.  Profiles are memoized per
``(frame, strip, num_strips)``; a process-wide default workload instance
is shared by the benches so the geometry work is done once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..render import (
    DEFAULT_FRAME_COUNT,
    CityConfig,
    Renderer,
    RenderProfile,
    Viewport,
    WalkthroughPath,
    build_city,
    frustum_planes,
    strip_window,
)

__all__ = ["WalkthroughWorkload", "default_workload", "DEFAULT_IMAGE_SIDE",
           "DEFAULT_PROFILE_CACHE_CAP"]

#: the paper's main experiments use 400x400 RGBA frames (640 KB — the top
#: of the Fig. 12 sweep, consistent with its "data in kb" labels)
DEFAULT_IMAGE_SIDE = 400

#: default bound on what one workload keeps memoized: its profiles plus
#: the cells of its culling tables (``frames x n`` per strip split n).
#: Profiles and cells are a handful of ints each.  A full Table-I
#: crossing on one shared workload (400 frames x the 1..7-strip splits)
#: holds 11 200 profiles and 11 200 cells, so the cap never evicts
#: inside a paper-scale sweep; it only stops open-ended campaigns
#: (unbounded strip-count / frame-count axes on one long-lived workload)
#: from growing memory without limit.
DEFAULT_PROFILE_CACHE_CAP = 32768



class WalkthroughWorkload:
    """Scene + camera path + cached per-strip render profiles.

    Parameters
    ----------
    frames:
        Walkthrough length (paper: 400).
    image_side:
        Square frame side in pixels.
    city:
        Scene configuration (defaults to the standard city).
    profile_cache_cap:
        Bound on the memoized profiles plus culling-table cells (LRU
        eviction beyond it); both are pure functions of their key, so
        eviction can only cost recomputation, never change a result.
    """

    def __init__(self, frames: int = DEFAULT_FRAME_COUNT,
                 image_side: int = DEFAULT_IMAGE_SIDE,
                 city: Optional[CityConfig] = None,
                 profile_cache_cap: int = DEFAULT_PROFILE_CACHE_CAP) -> None:
        if frames < 1:
            raise ValueError("frames must be >= 1")
        if image_side < 1:
            raise ValueError("image_side must be >= 1")
        if profile_cache_cap < 1:
            raise ValueError("profile_cache_cap must be >= 1")
        self.frames = frames
        self.image_side = image_side
        self.city_config = city or CityConfig()
        self.profile_cache_cap = profile_cache_cap
        self.path = WalkthroughPath(frames=frames)
        self._lock = threading.Lock()
        self._renderer: Optional[Renderer] = None  # guarded-by: self._lock
        #: (frame, strip, num_strips) -> RenderProfile, LRU-bounded
        self._profiles: "OrderedDict[tuple, RenderProfile]" = (
            OrderedDict())  # guarded-by: self._lock
        #: num_strips -> that split's culling table: ``(2, frames, n)``
        #: nodes visited and triangles in view, LRU-bounded
        self._tables: "OrderedDict[int, np.ndarray]" = (
            OrderedDict())  # guarded-by: self._lock
        self._table_cells = 0  # guarded-by: self._lock
        #: (frames, 4, 4) camera view-projections, built with the first table
        self._view_projs: Optional[np.ndarray] = None  # guarded-by: self._lock
        #: (strip_index, num_strips) -> Viewport.  Written without the lock
        #: (``profile`` calls ``viewport`` while holding it); a Viewport is
        #: immutable, so racing writers store equal values.
        self._viewports: Dict[Tuple[int, int], Viewport] = {}

    @property
    def renderer(self) -> Renderer:
        """The scene renderer (built lazily: geometry is only needed the
        first time a profile or a real image is requested)."""
        with self._lock:
            return self._scene()

    def _scene(self) -> Renderer:  # guarded-by: self._lock
        if self._renderer is None:
            self._renderer = Renderer(build_city(self.city_config))
        return self._renderer

    # -- geometry -----------------------------------------------------------
    def viewport(self, strip_index: int = 0, num_strips: int = 1) -> Viewport:
        """The strip's viewport within the full frame.

        Rows split as evenly as possible; earlier strips take the
        remainder (the paper's horizontal strips).  Memoized per
        ``(strip_index, num_strips)``.
        """
        key = (strip_index, num_strips)
        view = self._viewports.get(key)
        if view is None:
            if num_strips < 1:
                raise ValueError("num_strips must be >= 1")
            if not 0 <= strip_index < num_strips:
                raise ValueError("strip_index out of range")
            side = self.image_side
            base = side // num_strips
            extra = side % num_strips
            height = base + (1 if strip_index < extra else 0)
            y_start = strip_index * base + min(strip_index, extra)
            view = self._viewports[key] = Viewport(
                side, side, y_start=y_start, height=height)
        return view

    def strip_bytes(self, strip_index: int, num_strips: int) -> int:
        """RGBA bytes of one strip (4 bytes/pixel, as the paper's frame
        buffers)."""
        return self.viewport(strip_index, num_strips).bytes_rgba

    def send_bytes(self, strip_index: int, num_strips: int) -> List[int]:
        """Bytes a send of the strip moves, by frame."""
        return [self.strip_bytes(strip_index, num_strips)] * self.frames

    def frame_bytes(self) -> int:
        """RGBA bytes of the full frame."""
        return self.image_side * self.image_side * 4

    # -- profiles ------------------------------------------------------------
    def profile(self, frame: int, strip_index: int = 0,
                num_strips: int = 1) -> RenderProfile:
        """Render-work counters for one strip of one frame (memoized)."""
        if not 0 <= frame < self.frames:
            raise ValueError(f"frame {frame} out of 0..{self.frames - 1}")
        key = (frame, strip_index, num_strips)
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self._profiles.move_to_end(key)
                return cached
            # validates the strip before any table is built
            pixels = self.viewport(strip_index, num_strips).pixels
            visited, triangles = self._table(num_strips)
            tris = int(triangles[frame, strip_index])
            prof = RenderProfile(
                nodes_visited=int(visited[frame, strip_index]),
                triangles_in_view=tris,
                pixels=pixels,
                culled_everything=tris == 0,
            )
            self._profiles[key] = prof
            self._trim()
            return prof

    def profile_table(self, strip_index: int = 0,
                      num_strips: int = 1) -> RenderProfile:
        """Every frame's profile of one strip at once: ``nodes_visited``,
        ``triangles_in_view`` and ``culled_everything`` are per-frame
        arrays (the split's culling table columns), so a cost model
        prices the whole walkthrough in one element-wise pass."""
        with self._lock:
            # validates the strip before any table is built
            pixels = self.viewport(strip_index, num_strips).pixels
            visited, triangles = self._table(num_strips)
        tris = triangles[:, strip_index]
        return RenderProfile(
            nodes_visited=visited[:, strip_index],
            triangles_in_view=tris,
            pixels=pixels,
            culled_everything=tris == 0,
        )

    def _table(self, num_strips: int) -> np.ndarray:  # guarded-by: self._lock
        """The split's culling table, built whole on its first miss and
        published (kept) only once complete, and only if it fits the
        cap."""
        table = self._tables.get(num_strips)
        if table is not None:
            self._tables.move_to_end(num_strips)
            return table
        table = self._build_table(num_strips)
        cells = self.frames * num_strips
        if cells <= self.profile_cache_cap:
            self._tables[num_strips] = table
            self._table_cells += cells
        return table

    def _build_table(self, num_strips: int) -> np.ndarray:  # guarded-by: self._lock
        """Cull every frame's ``num_strips`` strip sub-frusta in one
        kernel call."""
        if self._view_projs is None:
            view_projs = []
            for frame in range(self.frames):
                camera = self.path.camera_at(frame)
                camera.aspect = 1.0
                view_projs.append(camera.view_proj())
            self._view_projs = np.stack(view_projs)
        view_projs = self._view_projs[:, None]            # (frames, 1, 4, 4)
        if num_strips > 1:
            windows = np.stack([strip_window(s, num_strips)
                                for s in range(num_strips)])
            view_projs = windows @ view_projs             # (frames, n, 4, 4)
        planes = frustum_planes(view_projs).reshape(-1, 6, 4)
        visited, _, triangles = self._scene().octree.cull(planes)
        return np.stack([visited, triangles]).reshape(2, -1, num_strips)

    def _trim(self) -> None:  # guarded-by: self._lock
        """Evict down to the cap: least recently used profiles first (a
        table cell rebuilds one cheaply) but never the newest, then least
        recently used tables."""
        while (len(self._profiles) + self._table_cells
               > self.profile_cache_cap):
            if len(self._profiles) > 1:
                self._profiles.popitem(last=False)
            else:
                num_strips, _ = self._tables.popitem(last=False)
                self._table_cells -= self.frames * num_strips

    def mean_full_frame_profile(self) -> RenderProfile:
        """Average counters over the whole walkthrough, full frames
        (used for calibration and reporting)."""
        nodes = tris = 0
        for f in range(self.frames):
            p = self.profile(f)
            nodes += p.nodes_visited
            tris += p.triangles_in_view
        n = self.frames
        return RenderProfile(
            nodes_visited=nodes // n,
            triangles_in_view=tris // n,
            pixels=self.image_side * self.image_side,
            culled_everything=False,
        )

    def __repr__(self) -> str:
        with self._lock:
            cached = len(self._profiles)
        return (
            f"<WalkthroughWorkload frames={self.frames} "
            f"side={self.image_side} cached={cached}>"
        )


@lru_cache(maxsize=4)
def _default_workload_cached(frames: int, side: int) -> WalkthroughWorkload:
    return WalkthroughWorkload(frames=frames, image_side=side)


def default_workload(frames: int = DEFAULT_FRAME_COUNT,
                     image_side: int = DEFAULT_IMAGE_SIDE) -> WalkthroughWorkload:
    """Process-wide shared workload (memoized so benches reuse profiles)."""
    return _default_workload_cached(frames, image_side)
