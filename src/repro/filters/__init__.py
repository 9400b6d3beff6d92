"""The silent-film image filters (Sepia, Blur, Scratch, Flicker, Swap).

Implementations follow the paper's §IV stage descriptions exactly; each
filter also carries a :class:`~repro.filters.base.FilterCost` descriptor
the timing model consumes.
"""

from .base import FilterCost, ImageFilter, clamp01, validate_image
from .blur import BlurFilter
from .flicker import FlickerFilter
from .scratch import ScratchFilter
from .sepia import LUMA_WEIGHTS, S1, S2, SepiaFilter
from .swap import SwapFilter, swap_rows_inplace

#: the paper's filter order within a pipeline
FILTER_ORDER = ("sepia", "blur", "scratch", "flicker", "swap")


def default_filter_chain():
    """Fresh instances of the five filters in pipeline order."""
    return [SepiaFilter(), BlurFilter(), ScratchFilter(), FlickerFilter(),
            SwapFilter()]


__all__ = [
    "ImageFilter",
    "FilterCost",
    "validate_image",
    "clamp01",
    "SepiaFilter",
    "BlurFilter",
    "ScratchFilter",
    "FlickerFilter",
    "SwapFilter",
    "swap_rows_inplace",
    "S1",
    "S2",
    "LUMA_WEIGHTS",
    "FILTER_ORDER",
    "default_filter_chain",
]
