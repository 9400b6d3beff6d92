"""Filter-stage foundations.

Every post-processing stage of the silent-film pipeline is an
:class:`ImageFilter`: a pure function on float32 RGB images in [0, 1]
(shape ``(H, W, 3)``), plus a :class:`FilterCost` descriptor telling the
timing model how the stage touches memory — the paper stresses that "the
different stages have different memory access patterns that influence the
time needed to apply their operations."
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["FilterCost", "ImageFilter", "validate_image", "clamp01"]


def validate_image(image: np.ndarray) -> np.ndarray:
    """Check shape/dtype conventions; returns the array unchanged."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
    if image.dtype != np.float32:
        raise ValueError(f"expected float32 pixels, got {image.dtype}")
    return image


def clamp01(values: np.ndarray) -> np.ndarray:
    """The paper's ``clamp``: clip to [0, 1]."""
    return np.clip(values, 0.0, 1.0)


@dataclass(frozen=True)
class FilterCost:
    """How a stage touches its strip, per pixel.

    ``pattern`` is one of ``"sequential"``, ``"strided"``, ``"sparse"``
    — a descriptive access-pattern class; no cost term reads it.
    ``touched_fraction`` scales the per-pixel terms for stages that skip
    most pixels (the scratch stage).
    """

    name: str
    reads_per_pixel: float
    writes_per_pixel: float
    pattern: str = "sequential"
    needs_second_buffer: bool = False
    touched_fraction: float = 1.0

    def bytes_read(self, pixels: int, bytes_per_pixel: int = 4) -> int:
        """DRAM-visible read traffic for a strip of ``pixels``."""
        return int(pixels * self.reads_per_pixel * self.touched_fraction
                   * bytes_per_pixel)

    def bytes_written(self, pixels: int, bytes_per_pixel: int = 4) -> int:
        """DRAM-visible write traffic for a strip of ``pixels``."""
        return int(pixels * self.writes_per_pixel * self.touched_fraction
                   * bytes_per_pixel)


class ImageFilter(abc.ABC):
    """One silent-film pipeline stage (functional level)."""

    #: short stage key used by configs and reports (e.g. "blur")
    key: str = "filter"

    @abc.abstractmethod
    def apply(self, image: np.ndarray,
              rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Return the filtered image (never mutates the input)."""

    @property
    @abc.abstractmethod
    def cost(self) -> FilterCost:
        """Memory/compute descriptor for the timing model."""

    def __call__(self, image: np.ndarray,
                 rng: Optional[np.random.Generator] = None) -> np.ndarray:
        return self.apply(image, rng)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
