"""Shared low-level utilities: bit manipulation, RNG, partitioning, units,
sort-based dedupe.

These helpers are deliberately free of any distributed-runtime concepts so
that every other subpackage (``runtime``, ``sparse``, ``core``, ...) can
depend on them without import cycles.
"""

from repro.util.arrays import unique_sorted
from repro.util.bits import (
    pack_bits,
    popcount,
    popcount_words,
    unpack_bits,
    words_needed,
)
from repro.util.partition import (
    block_bounds,
    block_owner,
    block_size,
    even_chunks,
    round_robin_indices,
)
from repro.util.prng import derive_seed, rng_for
from repro.util.units import format_bytes, format_count, format_time

__all__ = [
    "pack_bits",
    "popcount",
    "popcount_words",
    "unpack_bits",
    "words_needed",
    "block_bounds",
    "block_owner",
    "block_size",
    "even_chunks",
    "round_robin_indices",
    "derive_seed",
    "rng_for",
    "format_bytes",
    "format_count",
    "format_time",
    "unique_sorted",
]
