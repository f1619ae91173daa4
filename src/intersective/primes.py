"""Prime enumeration by segmented sieve."""

from __future__ import annotations

from math import isqrt
from typing import Iterator, NamedTuple

import numpy as np

# Odd candidates per sieve slab.  2**18 odds span 2**19 integers, keeping the
# working mask near 256 KiB; raise it for fewer slab setups on long ranges.
SEGMENT_ODDS = 1 << 18

# The base sieve runs to sqrt(hi), so this keeps it within 10**6.
MAX_SIEVE_BOUND = 10**12

_U64 = 1 << 64


class _PrimeRangeFields(NamedTuple):
    lo: int
    hi: int


class PrimeRange(_PrimeRangeFields):
    """Inclusive range [lo, hi] of candidate primes."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> PrimeRange:
        if lo < 2:
            raise ValueError("prime range must start at 2 or above")
        if hi < lo:
            raise ValueError(f"empty prime range [{lo}, {hi}]")
        if hi >= _U64:
            raise ValueError("prime range end exceeds 64-bit magnitude")
        return super().__new__(cls, lo, hi)


def iter_prime_arrays(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi] as ascending int64 arrays, one per slab.

    Slabs of SEGMENT_ODDS odd numbers start at the first odd number at or
    above max(lo, 3), so they move with lo; concatenating the arrays for
    adjacent ranges still reproduces the primes of the union exactly.
    The odd base primes up to isqrt(hi) come from this sieve itself, one
    level down.
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"invalid sieve range [{lo}, {hi}]")
    if hi > MAX_SIEVE_BOUND:
        raise ValueError(f"sieve range end {hi} exceeds {MAX_SIEVE_BOUND}")
    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.int64)
    start = max(lo, 3)
    if start % 2 == 0:
        start += 1
    if start > hi:
        return
    root = isqrt(hi)
    base = ([q for arr in iter_prime_arrays(3, root) for q in arr.tolist()]
            if root >= 3 else [])
    span = 2 * SEGMENT_ODDS
    seg_lo = start
    while seg_lo <= hi:
        seg_hi = min(seg_lo + span - 2, hi)  # inclusive, odd
        if seg_hi % 2 == 0:
            seg_hi -= 1
        n_odds = (seg_hi - seg_lo) // 2 + 1
        mask = np.ones(n_odds, dtype=bool)
        for p in base:
            if p * p > seg_hi:
                break
            first = max(p * p, ((seg_lo + p - 1) // p) * p)
            if first % 2 == 0:
                first += p
            if first > seg_hi:
                continue
            mask[(first - seg_lo) // 2 :: p] = False
        primes = np.flatnonzero(mask).astype(np.int64, copy=False)
        primes *= 2
        primes += seg_lo
        if primes.size:
            yield primes
        seg_lo += span


def primes_in(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes in [lo, hi] in increasing order."""
    for arr in iter_prime_arrays(lo, hi):
        for p in arr.tolist():
            yield p
