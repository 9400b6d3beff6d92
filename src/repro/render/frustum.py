"""View frustum extraction and culling tests.

The render stage "determines the objects placed within the horizontal
strip [by] a frustum culling" — so besides the full-camera frustum we
support *strip sub-frusta*: the part of the view volume that projects to
one horizontal band of the image, which is what each sort-first renderer
culls against.

Planes come from the Gribb/Hartmann rows-of-the-matrix method; every
plane normal points *into* the frustum, so a point is inside iff all six
signed distances are >= 0.
"""

from __future__ import annotations

import numpy as np

from .mesh3d import AABB

__all__ = ["Frustum", "frustum_planes", "classify_boxes", "strip_window",
           "strip_view_proj"]


def _plane_rows(m: np.ndarray) -> np.ndarray:
    """Gribb/Hartmann rows of ``(..., 4, 4)`` matrices: ``(..., 6, 4)``
    unnormalized planes (left, right, bottom, top, near, far)."""
    r0, r1, r2, r3 = (m[..., i, :] for i in range(4))
    return np.stack([r3 + r0, r3 - r0, r3 + r1, r3 - r1, r3 + r2, r3 - r2],
                    axis=-2)


def _normalized(planes: np.ndarray) -> np.ndarray:
    """Scale ``(..., 6, 4)`` planes to unit normals so distances are
    metric; a zero normal is a degenerate frustum."""
    norms = np.linalg.norm(planes[..., :3], axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValueError("degenerate frustum plane")
    return planes / norms


def frustum_planes(view_proj: np.ndarray) -> np.ndarray:
    """Normalized inward planes for a stack of view-projection matrices.

    ``(..., 4, 4)`` -> ``(..., 6, 4)``, element for element what
    :meth:`Frustum.from_view_proj` stores for each matrix.
    """
    m = np.asarray(view_proj, dtype=np.float64)
    if m.shape[-2:] != (4, 4):
        raise ValueError("view_proj must be 4x4")
    return _normalized(_plane_rows(m))


def classify_boxes(planes: np.ndarray, los: np.ndarray,
                   his: np.ndarray) -> np.ndarray:
    """Conservative p-vertex test of ``N`` boxes against ``F`` frusta.

    For each plane the box corner most in the plane's direction is
    tested; if even that corner is outside, the whole box is.  The
    p-vertex term ``n_j * (hi_j if n_j >= 0 else lo_j)`` is exactly
    ``max(n_j * hi_j, n_j * lo_j)``, and the three terms are summed in
    axis order before the offset is added.

    Parameters
    ----------
    planes:
        ``(F, 6, 4)`` normalized planes.
    los, his:
        ``(N, 3)`` box corners.

    Returns
    -------
    ``(F, N)`` bool mask — True where the box potentially intersects.
    """
    normals = planes[:, :, None, :3]                     # (F, 6, 1, 3)

    def term(j: int) -> np.ndarray:                      # (F, 6, N)
        return np.maximum(normals[..., j] * his[:, j],
                          normals[..., j] * los[:, j])

    dist = term(0) + term(1) + term(2) + planes[:, :, None, 3]
    return np.all(dist >= -1e-9, axis=1)


class Frustum:
    """Six inward-facing planes stored as a ``(6, 4)`` array ``(n, d)``
    with the convention ``n·p + d >= 0`` ⇔ inside."""

    def __init__(self, planes: np.ndarray) -> None:
        planes = np.asarray(planes, dtype=np.float64)
        if planes.shape != (6, 4):
            raise ValueError("a frustum needs exactly six (n, d) planes")
        self.planes = _normalized(planes)

    @classmethod
    def from_view_proj(cls, view_proj: np.ndarray) -> "Frustum":
        """Extract the six planes from a combined view-projection matrix."""
        m = np.asarray(view_proj, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError("view_proj must be 4x4")
        return cls(_plane_rows(m))

    # -- queries ------------------------------------------------------------
    def contains_point(self, p: np.ndarray) -> bool:
        """True when the point is inside (or on) all six planes."""
        p = np.asarray(p, dtype=np.float64)
        d = self.planes[:, :3] @ p + self.planes[:, 3]
        return bool(np.all(d >= -1e-9))

    def intersects_aabb(self, box: AABB) -> bool:
        """Conservative AABB test (p-vertex): no false negatives."""
        return bool(classify_boxes(self.planes[None], box.lo[None],
                                   box.hi[None])[0, 0])

    def classify_aabbs(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Vectorized p-vertex test for many boxes.

        Parameters
        ----------
        los, his:
            ``(N, 3)`` box corners.

        Returns
        -------
        ``(N,)`` bool mask — True where the box potentially intersects.
        """
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape or los.ndim != 2 or los.shape[1] != 3:
            raise ValueError("los/his must both be (N, 3)")
        return classify_boxes(self.planes[None], los, his)[0]


def strip_window(strip_index: int, num_strips: int) -> np.ndarray:
    """The 4x4 "window" transform mapping one horizontal strip's NDC band
    onto the full ``[-1, 1]`` range (see :func:`strip_view_proj`)."""
    if num_strips <= 0:
        raise ValueError("num_strips must be >= 1")
    if not 0 <= strip_index < num_strips:
        raise ValueError("strip_index out of range")
    y0 = -1.0 + 2.0 * strip_index / num_strips
    y1 = -1.0 + 2.0 * (strip_index + 1) / num_strips
    # Map [y0, y1] -> [-1, 1]: y' = (2y - (y0+y1)) / (y1-y0)
    window = np.eye(4)
    window[1, 1] = 2.0 / (y1 - y0)
    window[1, 3] = -(y0 + y1) / (y1 - y0)
    return window


def strip_view_proj(view_proj: np.ndarray, strip_index: int,
                    num_strips: int) -> np.ndarray:
    """View-projection matrix restricted to one horizontal image strip.

    Sort-first parallel rendering splits the screen into ``num_strips``
    horizontal bands; renderer ``strip_index`` only needs geometry whose
    projection falls into NDC ``y ∈ [y0, y1]``.  We compose a "window"
    transform that maps that band onto the full ``[-1, 1]`` NDC range, so
    the standard six-plane extraction yields the sub-frustum.

    Strips are indexed bottom-up (strip 0 = bottom of the image in NDC).
    """
    return (strip_window(strip_index, num_strips)
            @ np.asarray(view_proj, dtype=np.float64))
