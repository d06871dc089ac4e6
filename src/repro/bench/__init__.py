"""Measurement utilities: access-model profiling, memory accounting, harness."""

from .counters import COUNTERS, AccessProfile, CACHE_LINE_BYTES
from .harness import held_bytes

__all__ = ["COUNTERS", "AccessProfile", "CACHE_LINE_BYTES", "held_bytes"]
