import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from intersective.primes import (
    MAX_SIEVE_BOUND,
    PrimeRange,
    iter_prime_arrays,
    primes_in,
)
from oracles import is_prime


def bytearray_sieve(limit: int) -> list[int]:
    """Independent straight sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit + 1) if sieve[i]]


def test_small_ranges():
    assert list(primes_in(2, 11)) == [2, 3, 5, 7, 11]
    assert list(primes_in(90, 96)) == []
    assert list(primes_in(2, 2)) == [2]
    assert list(primes_in(3, 3)) == [3]
    assert list(primes_in(4, 4)) == []
    assert list(primes_in(14, 17)) == [17]


def test_against_straight_sieve_to_one_million():
    expected = bytearray_sieve(10**6)
    got = list(primes_in(2, 10**6))
    assert len(got) == 78498
    assert got == expected


def test_segment_boundaries_invisible():
    rng = random.Random(99)
    full = list(primes_in(2, 3 * 10**5))
    for _ in range(10):
        k = rng.randint(2, 3 * 10**5 - 1)
        left = list(primes_in(2, k))
        right = list(primes_in(k + 1, 3 * 10**5))
        assert left + right == full


def test_interior_range_offsets():
    expected = [p for p in bytearray_sieve(2200) if 1000 <= p]
    assert list(primes_in(1000, 2200)) == expected


def test_every_range_up_to_400():
    expected = bytearray_sieve(400)
    for lo in range(2, 401):
        for hi in range(lo, 401):
            assert list(primes_in(lo, hi)) == [p for p in expected if lo <= p <= hi]


def test_ranges_ending_at_the_levels_of_the_base_sieve():
    # the base primes up to isqrt(hi) come from the sieve itself, one level
    # down: hi = p^2 takes p in, hi = p^2 - 1 leaves it out, and at p^4
    # the level below turns over as well
    expected = bytearray_sieve(10**6)
    small = [p for p in expected if p < 1000]
    ends = {p * p + k for p in small for k in (-1, 0, 1)}
    ends |= {p**4 + k for p in small if p**4 < 10**6 for k in (-1, 0, 1)}
    for hi in sorted(ends):
        for lo in (2, max(2, hi - 300)):
            want = expected[bisect_left(expected, lo) : bisect_right(expected, hi)]
            assert list(primes_in(lo, hi)) == want, (lo, hi)


def test_prime_arrays_are_int64_and_ascending():
    arrays = list(iter_prime_arrays(2, 10**5))
    assert all(arr.dtype == np.int64 for arr in arrays)
    merged = np.concatenate(arrays)
    assert (np.diff(merged) > 0).all()
    assert merged[0] == 2 and merged[-1] == 99991


def test_range_validation():
    with pytest.raises(ValueError):
        list(primes_in(1, 10))
    with pytest.raises(ValueError):
        list(primes_in(10, 5))
    with pytest.raises(ValueError):
        list(primes_in(2, MAX_SIEVE_BOUND + 1))


def test_prime_range_type():
    r = PrimeRange(3, 100)
    assert (r.lo, r.hi) == (3, 100)
    with pytest.raises(ValueError):
        PrimeRange(1, 10)
    with pytest.raises(ValueError):
        PrimeRange(10, 9)
    with pytest.raises(ValueError):
        PrimeRange(2, 2**64)


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(4)
    assert is_prime(10**9 + 7)
    assert is_prime(2**61 - 1)  # Mersenne
    assert not is_prime(2**63 - 1)
    assert is_prime(18446744073709551557)  # largest prime below 2**64
    assert not is_prime(18446744073709551555)


def test_is_prime_against_trial_division():
    small = set(bytearray_sieve(20000))
    for n in range(20000):
        assert is_prime(n) == (n in small), n


def test_is_prime_strong_pseudoprimes_rejected():
    # Carmichael numbers and base-2 strong pseudoprimes
    for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n), n


def test_is_prime_domain_errors():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**64)
