"""Paper reference data and findings, and ASCII/HTML reporting helpers."""

from . import paper
from .export import result_to_dict, results_from_json, results_to_json
from .html import insight_to_html
from .plots import ascii_chart
from .tables import format_table

__all__ = [
    "paper",
    "format_table",
    "ascii_chart",
    "insight_to_html",
    "result_to_dict",
    "results_to_json",
    "results_from_json",
]
