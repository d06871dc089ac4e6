"""HOPE: the High-speed Order-Preserving Encoder (Chapter 6)."""

from .encoder import HopeEncoder
from .integration import HopeIndex, HopeSuRF
from .hu_tucker import (
    alphabetic_codes,
    assign_alphabetic_codes,
    garsia_wachs_lengths,
    optimal_alphabetic_lengths,
    weight_balanced_lengths,
)
from .intervals import (
    Interval,
    build_intervals,
    find_interval,
    increment,
    interval_symbol,
    validate_intervals,
    validate_order_preserving,
)
from .schemes import SCHEMES, scheme_code_kind, scheme_symbols

__all__ = [
    "HopeEncoder",
    "HopeIndex",
    "HopeSuRF",
    "SCHEMES",
    "Interval",
    "build_intervals",
    "find_interval",
    "increment",
    "interval_symbol",
    "validate_intervals",
    "validate_order_preserving",
    "scheme_symbols",
    "scheme_code_kind",
    "garsia_wachs_lengths",
    "weight_balanced_lengths",
    "optimal_alphabetic_lengths",
    "alphabetic_codes",
    "assign_alphabetic_codes",
]
