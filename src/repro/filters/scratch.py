"""Scratch stage (ScS) — random vertical film scratches.

"When this filter begins, two random numbers are chosen: one for the
number of scratches and another one for scratch color.  Next, for each
scratch, an x-coordinate is randomly chosen.  On each of these positions
the vertical pixels are replaced by the previously chosen color."

The stage touches only a handful of columns, making it by far the
cheapest filter — and, with seven pipelines, the stage with the longest
idle time in Fig. 15 (it spends its life waiting for blur).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import FilterCost, ImageFilter, validate_image

__all__ = ["ScratchFilter"]


class ScratchFilter(ImageFilter):
    """Draw 0..``max_scratches`` single-pixel-wide vertical lines.

    The scratch color is one random grey level shared by all scratches
    of a frame (old film stock scratches expose the base).
    """

    key = "scratch"

    def __init__(self, max_scratches: int = 6) -> None:
        if max_scratches < 0:
            raise ValueError("max_scratches must be >= 0")
        self.max_scratches = max_scratches

    def apply(self, image: np.ndarray,
              rng: Optional[np.random.Generator] = None) -> np.ndarray:
        image = validate_image(image)
        rng = rng if rng is not None else np.random.default_rng(0)
        out = image.copy()
        n = int(rng.integers(0, self.max_scratches + 1))
        if n == 0:
            return out
        shade = np.float32(rng.uniform(0.6, 1.0))
        color = np.array([shade, shade, shade], dtype=np.float32)
        xs = rng.integers(0, image.shape[1], size=n)
        # One fancy-indexed assignment over all scratch columns
        # (duplicate columns collapse to the same write).
        out[:, xs, :] = color
        return out

    @property
    def cost(self) -> FilterCost:
        # Only a few columns are written; reads are nil.  The touched
        # fraction assumes the expected scratch count over a strip.
        return FilterCost(name="scratch", reads_per_pixel=0.0,
                          writes_per_pixel=1.0, pattern="strided",
                          touched_fraction=0.02)
