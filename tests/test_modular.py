import random
import re
import tracemalloc
from functools import lru_cache
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intersective.modular as modular_mod

from intersective.intpoly import IntPoly, discriminant, multiply, squarefree_part
from intersective.modular import (
    _cycle_types,
    _frobenius,
    _gcd_degrees,
    _mod,
    _nonresidue,
    _residues,
    census_block,
    count_roots_block,
)
from intersective.parse import InvariantViolation
from intersective.primes import primes_in
from oracles import (
    FpPoly,
    _fp_gcd_monic,
    _fp_pow_x,
    _trim,
    count_roots_mod_p,
    cycle_type_mod_p,
    cycle_type_of_good_prime,
    is_prime,
    jacobi,
    reduce,
    roots_mod_p_bruteforce,
)

TRIPLE = multiply(
    multiply(IntPoly([1, 0, 1]), IntPoly([2, 0, 1])), IntPoly([-2, 0, 1])
)


def random_poly(rng, max_deg, max_coeff):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c]))
    return IntPoly(coeffs)


def test_reduce():
    f = IntPoly([7, -3, 10])
    g = reduce(f, 5)
    assert g.p == 5 and g.coeffs == (2, 2)  # degree drops when p | lc
    assert reduce(IntPoly([5, 10, 15]), 5).is_zero
    assert reduce(IntPoly([1, 0, 1]), 3).coeffs == (1, 0, 1)


def test_fppoly_validation():
    with pytest.raises(ValueError):
        FpPoly(5, (1, 5))
    with pytest.raises(ValueError):
        FpPoly(5, (1, 0))
    with pytest.raises(ValueError):
        FpPoly(1, (0,))
    with pytest.raises(ValueError):
        FpPoly(5, ()).degree


def test_jacobi_examples():
    assert jacobi(2, 7) == 1
    assert jacobi(-1, 3) == -1
    assert jacobi(0, 9) == 0
    assert jacobi(3, 9) == 0
    assert jacobi(4, 15) == 1
    assert jacobi(1, 1) == 1
    assert jacobi(2, 9) == 1  # Jacobi 1 though 2 is a nonresidue mod 9


def test_jacobi_rejects_even_or_nonpositive_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -7)


def test_jacobi_on_primes_matches_euler_criterion():
    for p in primes_in(3, 200):
        for a in range(-50, 51):
            e = pow(a % p, (p - 1) // 2, p)
            expected = 0 if e == 0 else (1 if e == 1 else -1)
            assert jacobi(a, p) == expected, (a, p)


def test_jacobi_multiplicative():
    rng = random.Random(12)
    odd = [n for n in range(3, 200, 2)]
    for _ in range(200):
        m, n = rng.choice(odd), rng.choice(odd)
        a = rng.randint(-100, 100)
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)
        b = rng.randint(-100, 100)
        assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


def test_count_roots_examples():
    assert count_roots_mod_p(IntPoly([1, 0, 1]), 5) == 2
    assert count_roots_mod_p(IntPoly([1, 0, 1]), 3) == 0
    assert count_roots_mod_p(TRIPLE, 7) == 2
    f = multiply(IntPoly([1, 1, 1]), IntPoly([-2, 0, 0, 1]))
    assert count_roots_mod_p(f, 31) == 5  # splits completely
    assert count_roots_mod_p(IntPoly([0, 1]), 2) == 1
    assert count_roots_mod_p(IntPoly([3, 7]), 11) == 1  # linear always one root


def test_count_roots_degree_drop():
    # 5x^2 + x + 1 reduces to a linear polynomial mod 5
    f = IntPoly([1, 1, 5])
    assert count_roots_mod_p(f, 5) == 1
    assert count_roots_mod_p(IntPoly([3, 5]), 5) == 0  # nonzero constant


def test_count_roots_vanishing_reduction():
    with pytest.raises(ValueError):
        count_roots_mod_p(IntPoly([5, 10]), 5)


def test_bruteforce_roots():
    assert roots_mod_p_bruteforce(IntPoly([1, 0, 1]), 5) == {2, 3}
    assert roots_mod_p_bruteforce(IntPoly([1, 0, 1]), 3) == set()
    with pytest.raises(ValueError):
        roots_mod_p_bruteforce(IntPoly([1, 0, 1]), 10**4 + 7)


def test_count_roots_matches_bruteforce():
    rng = random.Random(606)
    primes = list(primes_in(2, 100))
    for _ in range(120):
        f = random_poly(rng, 6, 20)
        for p in primes:
            if reduce(f, p).is_zero:
                continue
            assert count_roots_mod_p(f, p) == len(roots_mod_p_bruteforce(f, p)), (f, p)


def test_count_roots_block_matches_scalar():
    rng = random.Random(77)
    primes = np.array(list(primes_in(2, 2000)), dtype=np.int64)
    for _ in range(25):
        f = random_poly(rng, 7, 30)
        good = primes[np.array([f.lc % int(p) != 0 for p in primes])]
        batch = count_roots_block(f, good)
        scalar = [count_roots_mod_p(f, int(p)) for p in good]
        assert batch.tolist() == scalar, f


def test_count_roots_block_huge_coefficients():
    f = IntPoly([2**70 + 1, 0, 3**50, 1])
    primes = np.array(list(primes_in(2, 500)), dtype=np.int64)
    batch = count_roots_block(f, primes)
    assert batch.tolist() == [count_roots_mod_p(f, int(p)) for p in primes]


def test_count_roots_block_refuses_int64_overflow():
    p = 4294967311  # first prime beyond 2**32: 7 * p**2 >= 2**63 is refused
    assert is_prime(p)
    f = IntPoly([1, 2, 3, 4, 5, 6, 7, 1])
    with pytest.raises(ValueError, match=r"degree 7 at p=4294967311 .*2\*\*63"):
        count_roots_block(f, np.array([5, p], dtype=np.int64))


def test_count_roots_block_empty_and_linear():
    assert count_roots_block(IntPoly([1, 1]), np.empty(0, dtype=np.int64)).size == 0
    arr = np.array([3, 5, 7], dtype=np.int64)
    assert count_roots_block(IntPoly([4, 1]), arr).tolist() == [1, 1, 1]


def assert_block_counts_bruteforce(f, primes):
    good = [p for p in primes if f.lc % p]
    batch = count_roots_block(f, np.array(good, dtype=np.int64))
    assert batch.tolist() == [len(roots_mod_p_bruteforce(f, p)) for p in good], f


@settings(max_examples=60, deadline=None)
# (x + 2)(x^2 + x + 1) (x - 1)^2 is not squarefree over Z or mod any p
@example(coeffs=[2, 3, 3], lead=1, squared_roots=[1], primes=list(primes_in(2, 2000)))
@given(
    coeffs=st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=6),
    lead=st.integers(1, 10**4),
    squared_roots=st.lists(st.integers(-5, 5), max_size=2),
    primes=st.lists(st.sampled_from(list(primes_in(2, 10**4))), min_size=1, max_size=10),
)
def test_count_roots_block_property(coeffs, lead, squared_roots, primes):
    f = IntPoly(coeffs + [lead])
    for r in squared_roots:
        f = multiply(f, IntPoly([r * r, -2 * r, 1]))  # (x - r)^2
    assert_block_counts_bruteforce(f, primes)


def test_count_roots_block_product_of_linear_factors():
    # the roots 0, 1, ..., d - 1 are min(d, p) residues mod p
    primes = np.array(list(primes_in(2, 10**4)) + list(primes_in(10**8 - 10**4, 10**8)),
                      dtype=np.int64)
    for d in (2, 3, 6, 10):
        f = IntPoly([1])
        for r in range(d):
            f = multiply(f, IntPoly([-r, 1]))
        assert count_roots_block(f, primes).tolist() == np.minimum(primes, d).tolist()


def largest_batched_primes(d, count):
    """The count largest primes p with d * p^2 < 2^63, the int64 edge, ascending."""
    p = isqrt(((1 << 63) - 1) // d)
    found = []
    while len(found) < count:
        if is_prime(p):
            found.append(p)
        p -= 1
    return found[::-1]


@pytest.mark.parametrize("d", [2, 3, 6, 10])
def test_block_kernels_at_int64_edge(d):
    primes = largest_batched_primes(d, 6)
    assert d * primes[-1] ** 2 < 1 << 63 <= d * (primes[0] + 10**4) ** 2
    parr = np.array(primes, dtype=np.int64)
    rng = random.Random(d)
    for linear in ([], [3, -5], [1, 1]):  # generic, two roots, a double root
        while True:
            f = random_poly_of_degree(rng, d - len(linear), 50)
            for r in linear:
                f = multiply(f, IntPoly([-r, 1]))
            if f.degree == d and all(f.lc % p for p in primes):
                break
        assert count_roots_block(f, parr).tolist() == [count_roots_mod_p(f, p) for p in primes]
        fstar = squarefree_part(f)
        if fstar.degree >= 2:
            assert_block_matches_oracle(fstar, good_primes(fstar, primes))


@pytest.mark.parametrize("kernel", [count_roots_block, census_block])
def test_block_kernels_refuse_a_prime_dividing_the_lead(kernel):
    # 3x^2 + 1 = 1 mod 3 has no root: the degree drops, so p = 3 is refused
    with pytest.raises(ValueError, match=r"p=3 divides the leading coefficient"):
        kernel(IntPoly([1, 0, 3]), np.array([3, 5, 7], dtype=np.int64))


def assert_powering_matches_oracle(f, primes, lanes=None):
    # g is F(y) = c^(d-1) f(y/c) mod q, c = lc(f): monic without an inverse.
    # Chunks of a few lanes each start from their own monomial x^(p >> k0).
    d = f.degree
    lanes = lanes or len(primes)
    for lo in range(0, len(primes), lanes):
        chunk = primes[lo : lo + lanes]
        # slab 0 of a two-slab stack: rows strided as in a census
        G, stack = _frobenius(f, np.array(chunk, dtype=np.int64), 2)
        assert stack.dtype == np.int64 and stack.shape == (d, 2, len(chunk))
        H = stack[:, 0]
        for i, q in enumerate(chunk):
            g = [a * pow(f.lc, d - 1 - j, q) % q for j, a in enumerate(f.coeffs[:-1])]
            assert G[:, i].tolist() == g, (f, q)
            h = _fp_pow_x(q, g + [1], q)
            assert H[:, i].tolist() == h + [0] * (d - len(h)), (f, q)


@pytest.mark.parametrize("d", [2, 3, 6, 10])
@pytest.mark.parametrize("chunk_lanes", [None, 2])
def test_frobenius_powering_matches_oracle(d, chunk_lanes):
    below_d = [q for q in (2, 3, 5, 7) if q < d]  # x^p itself: the monomial start
    mixed = sorted(
        {2, 3, 5, 7}
        | {8191, 131071, 524287}  # every bit set
        | {257, 65537}  # one low bit set
        | set(largest_batched_primes(d, 3))  # the int64 edge
    )
    rng = random.Random(d)
    for _ in range(3):
        while True:
            f = random_poly_of_degree(rng, d, 10**6)
            if all(f.lc % q for q in mixed):
                break
        for primes in (mixed, below_d):
            if primes:
                assert_powering_matches_oracle(f, primes, chunk_lanes)


def test_mod_matches_python_mod_at_the_int64_edge():
    d, p = 922, 99999989  # d * p**2 < 2**63 <= (d + 1) * p**2
    top = d * p * p - 1
    assert top < 1 << 63 <= (d + 1) * p * p
    values = [top, -top, 1, -1, 0]
    for k in (1, 2, d * p - 1):
        values += [k * p, -k * p, k * p + 1, -k * p - 1]
    a = np.array(values, dtype=np.int64)
    pa = np.full(a.size, p, dtype=np.int64)
    assert _mod(a.copy(), pa).tolist() == [v % p for v in values]
    rows = np.stack([a, a[::-1]])  # one residue per lane, coefficient-major
    assert _mod(rows.copy(), pa).tolist() == [[v % p for v in r] for r in rows.tolist()]


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@example(d=0, primes=[3, 2**31 - 1])
@example(d=-1, primes=[3, 5, 7, 11, 13])
@example(d=2**64 + 13, primes=[3, 13, 2**31 - 1])
@given(
    d=st.one_of(
        st.integers(-(2**70), 2**70),
        st.integers(2**64, 2**200),
        st.integers(-(10**6), 10**6),
    ),
    # 2**31 - 1 is prime, so every start below it reaches a prime
    primes=st.lists(st.integers(3, 2**31 - 1).map(_next_prime), min_size=1, max_size=8),
)
def test_nonresidue_is_a_jacobi_symbol_of_minus_1(d, primes):
    got = _nonresidue(d, np.array(primes, dtype=np.int64))
    assert got.dtype == bool
    assert got.tolist() == [jacobi(d, p) == -1 for p in primes]


def test_nonresidue_leaves_the_primes_and_holds_four_arrays():
    # the residues and the exponent are consumed by the powering, which
    # adds two arrays
    primes = np.array(list(primes_in(3, 10**6)), dtype=np.int64)
    kept = primes.copy()
    tracemalloc.start()
    try:
        got = _nonresidue(-3, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(primes, kept)
    assert got.tolist() == [p % 3 == 2 for p in kept.tolist()]
    assert peak < 5 * primes.nbytes, peak / primes.nbytes


def test_cycle_type_examples():
    assert cycle_type_mod_p(TRIPLE, 7) == (1, 1, 2, 2)
    assert cycle_type_mod_p(IntPoly([-2, 0, 0, 1]), 5) == (1, 2)
    assert cycle_type_mod_p(IntPoly([-2, 0, 0, 1]), 31) == (1, 1, 1)
    assert cycle_type_mod_p(IntPoly([-2, 0, 0, 1]), 7) == (3,)
    assert cycle_type_mod_p(IntPoly([1, 0, 1]), 5) == (1, 1)
    assert cycle_type_mod_p(IntPoly([1, 0, 1]), 7) == (2,)
    assert cycle_type_mod_p(IntPoly([3, 7]), 11) == (1,)


def test_cycle_type_uses_squarefree_part():
    f = IntPoly([1, 0, 1])
    assert cycle_type_mod_p(multiply(f, f), 5) == (1, 1)


def test_cycle_type_rejects_bad_primes():
    with pytest.raises(ValueError):
        cycle_type_mod_p(IntPoly([1, 0, 1]), 2)  # divides disc = -4
    with pytest.raises(ValueError):
        cycle_type_mod_p(IntPoly([1, 1, 5]), 5)  # divides lc
    with pytest.raises(ValueError):
        cycle_type_mod_p(IntPoly([7]), 3)  # constant


def test_cycle_type_consistency_invariants():
    rng = random.Random(4242)
    primes = list(primes_in(2, 300))
    checked = 0
    for _ in range(40):
        f = random_poly(rng, 8, 10)
        fs = squarefree_part(f)
        if fs.degree < 1:
            continue
        disc = discriminant(fs)
        for p in primes:
            if fs.lc % p == 0 or disc % p == 0:
                continue
            ct = cycle_type_mod_p(f, p)
            assert sum(ct) == fs.degree
            assert ct.count(1) == count_roots_mod_p(fs, p)
            assert all(part >= 1 for part in ct)
            checked += 1
    assert checked > 2000


def type_counts(ct, d):
    """A sorted cycle type as counts per part degree, the batched layout."""
    return [ct.count(m) for m in range(1, d + 1)]


def assert_block_matches_oracle(fstar, primes):
    parr = np.array(primes, dtype=np.int64)
    batch = census_block(fstar, parr)
    assert batch.shape == (len(primes), fstar.degree)
    for row, p in zip(batch.tolist(), primes):
        assert row == type_counts(cycle_type_of_good_prime(fstar, p), fstar.degree), (
            fstar, p)


def good_primes(fstar, primes):
    bad = 2 * abs(fstar.lc) * abs(discriminant(fstar))
    return [p for p in primes if bad % p]


def test_cycle_types_block_examples():
    assert census_block(TRIPLE, np.array([7, 11], dtype=np.int64)).tolist() == [
        [2, 2, 0, 0, 0, 0], type_counts(cycle_type_mod_p(TRIPLE, 11), 6)]
    cubic = IntPoly([-2, 0, 0, 1])
    assert census_block(cubic, np.array([5, 7, 31], dtype=np.int64)).tolist() == [
        [1, 1, 0], [0, 0, 1], [3, 0, 0]]


def test_census_block_matches_oracle_on_criterion_7_polys():
    # the polynomials of acceptance criterion 7, at every good p < 10^4
    rng = random.Random(70070)
    small = list(primes_in(2, 10**4))
    checked = 0
    while checked < 50:
        deg = rng.randint(2, 8)
        f = IntPoly([rng.randint(-30, 30) for _ in range(deg)] + [
            rng.choice([c for c in range(-30, 31) if c])
        ])
        fstar = squarefree_part(f)
        if fstar.degree >= 2:
            assert_block_matches_oracle(fstar, good_primes(fstar, small))
            checked += 1


def random_poly_of_degree(rng, deg, max_coeff):
    coeffs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg)]
    return IntPoly(coeffs + [rng.randint(1, max_coeff)])


def test_cycle_types_block_matches_oracle_near_scan_cap():
    window = list(primes_in(10**8 - 2 * 10**4, 10**8))
    rng = random.Random(10**8)
    for deg in range(1, 11):
        while True:
            fstar = squarefree_part(random_poly_of_degree(rng, deg, 50))
            if fstar.degree == deg:
                break
        assert_block_matches_oracle(fstar, good_primes(fstar, window))


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
    lead=st.integers(1, 10**6),
    primes=st.lists(st.sampled_from(list(primes_in(2, 5 * 10**4))),
                    min_size=1, max_size=40),
)
def test_cycle_types_block_property(coeffs, lead, primes):
    fstar = squarefree_part(IntPoly(coeffs + [lead]))
    good = good_primes(fstar, primes)
    if good:
        assert_block_matches_oracle(fstar, good)


def test_census_block_refuses_int64_overflow():
    # 3 * p^2 >= 2^63 for p above 1.76e9: the block is refused, not answered
    near = [p for p in range(2**31 - 200, 2**31) if is_prime(p)]
    assert near and 3 * min(near) ** 2 >= 1 << 63
    parr = np.array([5, 7, 31] + near, dtype=np.int64)
    with pytest.raises(ValueError, match=r"degree 3 at p=2147483647 .*2\*\*63"):
        census_block(IntPoly([-2, 0, 0, 1]), parr)


def test_cycle_types_block_empty_and_linear():
    empty = np.empty(0, dtype=np.int64)
    assert census_block(IntPoly([-2, 0, 0, 1]), empty).shape == (0, 3)
    arr = np.array([3, 5, 7], dtype=np.int64)
    assert census_block(IntPoly([4, 1]), arr).tolist() == [[1], [1], [1]]
    with pytest.raises(ValueError):
        census_block(IntPoly([]), arr)


def test_cycle_types_block_partial_chunk(monkeypatch):
    quintic = IntPoly([-1, -1, 0, 0, 0, 1])  # degree 5: D_2 is counted per chunk
    primes = good_primes(quintic, list(primes_in(2, 200)))
    whole = census_block(quintic, np.array(primes, dtype=np.int64))
    # chunks of 125 // 5**2 = 5 lanes, the last one partial
    monkeypatch.setattr(modular_mod, "_CHUNK_ENTRIES", 5 * 5**2)
    assert len(primes) % 5 != 0
    assert_block_matches_oracle(quintic, primes)
    assert census_block(quintic, np.array(primes, dtype=np.int64)).tolist() == (
        whole.tolist())


def linear_product(roots):
    f = IntPoly([1])
    for r in roots:
        f = multiply(f, IntPoly([-r, 1]))
    return f


# Linear factors and quadratics x^2 - a make x^(p^k) = x mod f common (every
# factor degree divides k); the extra factor often has degree above d/2.
@settings(max_examples=80, deadline=None)
# degree 10 with factors of degree 7 (x^7 - x - 1 mod 7) and 6 (mod 11, 13)
@example(roots=[0], quads=[2], extra=[-1, -1, 0, 0, 0, 0, 0],
         primes=list(primes_in(3, 400)))
# degree 8, every factor degree divides 2: H_2 = H_4 = x at every good prime
@example(roots=[1, -1], quads=[2, -1, 3], extra=[], primes=list(primes_in(3, 400)))
@given(
    roots=st.lists(st.integers(-20, 20), unique=True, max_size=4),
    quads=st.lists(st.integers(-30, 30), unique=True, max_size=3),
    extra=st.lists(st.integers(-50, 50), max_size=8),
    primes=st.lists(st.sampled_from(list(primes_in(3, 2000))), min_size=1, max_size=40),
)
def test_census_block_property(roots, quads, extra, primes):
    f = linear_product(roots)
    for a in quads:
        f = multiply(f, IntPoly([-a, 0, 1]))
    f = multiply(f, IntPoly(extra + [1]))
    fstar = squarefree_part(f)
    if not 2 <= fstar.degree <= 10:
        return
    good = good_primes(fstar, primes)
    types = census_block(fstar, np.array(good, dtype=np.int64))
    for count, row, p in zip(types[:, 0].tolist(), types.tolist(), good):
        assert row == type_counts(cycle_type_of_good_prime(fstar, p), fstar.degree), (
            fstar, p)
        assert count == count_roots_mod_p(fstar, p), (fstar, p)


def test_census_of_a_25_digit_coefficient_matches_oracles():
    # 10**24 + 7 is beyond int64: the coefficients are reduced by _residues
    big = 10**24 + 7
    for fstar in (IntPoly([big, -3, 0, 1]), IntPoly([5, 0, big, -1, 0, 1])):
        primes = good_primes(fstar, list(primes_in(3, 3000)))
        types = census_block(fstar, np.array(primes, dtype=np.int64))
        assert types[:, 0].tolist() == [count_roots_mod_p(fstar, p) for p in primes]
        assert types.tolist() == [
            type_counts(cycle_type_of_good_prime(fstar, p), fstar.degree) for p in primes]


def test_census_refuses_distinct_degree_counts_that_fit_no_type(monkeypatch):
    quartic = IntPoly([1, 0, 0, 0, 1])
    parr = np.array(good_primes(quartic, list(primes_in(3, 100))), dtype=np.int64)
    # D_1 = 3 leaves one degree, at most d/2, for a single factor
    monkeypatch.setattr(modular_mod, "_gcd_degrees",
                        lambda p, G, h: np.full(h.shape[1], 3, dtype=np.int64))
    with pytest.raises(InvariantViolation, match=r"\[3, 3\] at p=3 "):
        census_block(quartic, parr)
    # D_1 = 0 and D_2 = 1: 2 * c_2 = 1 is odd; lane j of the one stacked
    # gcd call gives D_(j // n + 1)
    monkeypatch.setattr(modular_mod, "_gcd_degrees",
                        lambda p, G, h: np.arange(h.shape[1]) // p.size)
    with pytest.raises(InvariantViolation, match=r"\[0, 1\] at p=3 "):
        census_block(quartic, parr)



def test_census_refuses_a_negative_factor_count(monkeypatch):
    # D_1 = 6 and D_2 = D_3 = 0 give 2 * c_2 = 3 * c_3 = -6: both divisible,
    # and the leftover degree 12 passes for one large factor, so only the
    # sign test names p = 101 (without it the types index past the degree)
    sextic = IntPoly([-1, -1, 0, 0, 0, 0, 1])
    # lane j of the one stacked gcd call gives D_(j // n + 1)
    monkeypatch.setattr(modular_mod, "_gcd_degrees", lambda p, G, h: np.where(
        np.arange(h.shape[1]) < p.size, 6, 0))
    with pytest.raises(InvariantViolation, match=r"\[6, 0, 0\] at p=101 "):
        census_block(sextic, np.array([101], dtype=np.int64))


def partitions(d, largest=None):
    """Every cycle type of degree d, as parts in descending order."""
    if d == 0:
        yield []
        return
    for m in range(min(d, largest or d), 0, -1):
        for rest in partitions(d - m, m):
            yield [m] + rest


def distinct_degree_counts(parts, d):
    """D_k = sum of m * c_m over the part degrees m dividing k, k <= d/2."""
    return [sum(m for m in parts if k % m == 0) for k in range(1, d // 2 + 1)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(2, 12), lanes=st.integers(1, 4))
def test_cycle_types_invert_distinct_degree_counts(data, d, lanes):
    types = [data.draw(st.sampled_from(list(partitions(d)))) for _ in range(lanes)]
    D = np.array([distinct_degree_counts(t, d) for t in types]).T
    p = np.arange(lanes) + 3  # only named in a refusal
    assert _cycle_types(p, D, d).tolist() == [type_counts(t, d) for t in types]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(2, 12))
def test_cycle_types_refuse_exactly_the_counts_that_fit_no_type(data, d):
    # a valid D vector, often shifted: it fits a type iff the inversion
    # answers, and then it fits the type the inversion gives
    fits = {tuple(distinct_degree_counts(t, d)): t for t in partitions(d)}
    base = distinct_degree_counts(data.draw(st.sampled_from(list(partitions(d)))), d)
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=d // 2, max_size=d // 2))
    D = [b + s for b, s in zip(base, shift)]
    parr = np.array([101], dtype=np.int64)
    if tuple(D) in fits:
        types = _cycle_types(parr, np.array(D).reshape(-1, 1), d)
        assert types.tolist() == [type_counts(fits[tuple(D)], d)]
    else:
        with pytest.raises(InvariantViolation, match=re.escape(f"{D} at p=101 ")):
            _cycle_types(parr, np.array(D).reshape(-1, 1), d)


@pytest.mark.parametrize("kernel, f, K", [
    (census_block, IntPoly([-1, -1, 0, 0, 0, 0, 0, 0, 1]), 4),  # x^8 - x - 1
    (count_roots_block, IntPoly([-1, -1, 0, 1]), 1),  # x^3 - x - 1
])
def test_one_gcd_call_per_chunk(monkeypatch, kernel, f, K):
    # chunks of 7 lanes: each makes one _gcd_degrees call on K * 7 lanes,
    # the last, partial chunk on K times its lanes
    parr = np.array(good_primes(f, list(primes_in(3, 500))), dtype=np.int64)
    whole = kernel(f, parr)
    d = f.degree
    monkeypatch.setattr(modular_mod, "_CHUNK_ENTRIES", 7 * d * d if K > 1 else 28 * d)
    assert modular_mod._chunk_lanes(d, K) == 7
    gcd_degrees, stacked = modular_mod._gcd_degrees, []

    def counted(p, G, h):
        stacked.append((p.size, h.shape[1]))
        return gcd_degrees(p, G, h)
    monkeypatch.setattr(modular_mod, "_gcd_degrees", counted)
    assert kernel(f, parr).tolist() == whole.tolist()
    sizes = [min(7, parr.size - lo) for lo in range(0, parr.size, 7)]
    assert parr.size % 7 and stacked == [(n, K * n) for n in sizes]

def fp_mul(a, b, p):
    """a * b over F_p, coefficient lists ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@lru_cache(maxsize=None)
def edge_primes(d):
    return tuple(largest_batched_primes(d, 3))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.integers(2, 10), edge=st.booleans(),
       lanes=st.integers(1, 6))
def test_gcd_degrees_match_python_euclid(data, d, edge, lanes):
    # lanes g = c * r and h = c * s mod p: monic g of degree d, deg h < d,
    # a shared factor c of random degree, and h = 0 when s is
    pool = edge_primes(d) if edge else (2, 3, 5, 7, 13)
    primes, gs, hs = [], [], []
    for _ in range(lanes):
        p = data.draw(st.sampled_from(pool))
        k = data.draw(st.integers(0, d))
        coeff = st.integers(0, p - 1)
        c = data.draw(st.lists(coeff, min_size=k, max_size=k)) + [1]
        r = data.draw(st.lists(coeff, min_size=d - k, max_size=d - k)) + [1]
        s = data.draw(st.lists(coeff, min_size=1, max_size=max(1, d - k)))
        g = fp_mul(c, r, p)
        h = (fp_mul(c, s, p) + [0] * d)[:d] if k < d else [0] * d
        primes.append(p)
        gs.append(g[:d])
        hs.append(h)
    degs = _gcd_degrees(np.array(primes, dtype=np.int64),
                        np.array(gs, dtype=np.int64).T.copy(),
                        np.array(hs, dtype=np.int64).T.copy())
    assert degs.tolist() == [
        len(_fp_gcd_monic(g + [1], _trim(list(h)), p)) - 1
        for g, h, p in zip(gs, hs, primes)
    ]


def test_root_counts_of_x922_minus_2_near_the_scan_cap():
    # x^922 = 2 has gcd(922, p - 1) roots in the cyclic F_p^* when
    # 2^((p - 1) / gcd(922, p - 1)) = 1 mod p, and none otherwise
    primes = list(primes_in(99999900, 10**8))
    f = IntPoly([-2] + [0] * 921 + [1])
    expected = []
    for p in primes:
        e = gcd(922, p - 1)
        expected.append(e if pow(2, (p - 1) // e, p) == 1 else 0)
    assert count_roots_block(f, np.array(primes, dtype=np.int64)).tolist() == expected


def test_census_block_matches_separate_kernels():
    for fstar in (IntPoly([-2, 0, 0, 1]), TRIPLE, IntPoly([4, 1])):
        for primes in (good_primes(fstar, list(primes_in(2, 3000))), []):
            parr = np.array(primes, dtype=np.int64)
            counts = census_block(fstar, parr)[:, 0]
            assert counts.tolist() == count_roots_block(fstar, parr).tolist()
            assert_block_matches_oracle(fstar, primes)


def test_count_roots_block_partial_chunk(monkeypatch):
    cubic = IntPoly([-2, 0, 0, 1])
    parr = np.array(list(primes_in(5, 3000)), dtype=np.int64)
    whole = count_roots_block(cubic, parr)
    monkeypatch.setattr(modular_mod, "_CHUNK_ENTRIES", 28 * 3)
    assert modular_mod._chunk_lanes(3, 1) == 7
    assert parr.size % 7 != 0  # the last chunk is partial
    assert count_roots_block(cubic, parr).tolist() == whole.tolist()
    assert whole.tolist() == [count_roots_mod_p(cubic, int(p)) for p in parr]


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@settings(max_examples=200, deadline=None)
@example(d=-(2**300), primes=[2, 3, 99999989])
@example(d=0, primes=[2])
@given(
    d=st.integers(-(2**300), 2**300),
    # 99999989 is the largest prime below 10**8
    primes=st.lists(st.integers(2, 99999989).map(next_prime), min_size=1, max_size=20),
)
def test_residues_match_python_mod(d, primes):
    p = np.array(primes, dtype=np.int64)
    assert _residues(d, p).tolist() == [d % q for q in primes]


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(-50, 50), min_size=2, max_size=12),
    lead=st.integers(1, 50),
    primes=st.lists(st.sampled_from(list(primes_in(2, 3000))), min_size=1, max_size=30),
    entries=st.integers(1, 3 * 12**2),
)
def test_chunked_blocks_match_one_chunk_and_oracles(coeffs, lead, primes, entries):
    # every stage runs per lane chunk: each chunk powers from its own
    # monomial start and counts its own distinct degrees, and the answers
    # must not depend on where the chunks end
    f = IntPoly(coeffs + [lead])
    primes = [p for p in primes if lead % p]
    fstar = squarefree_part(f)
    good = good_primes(fstar, primes)
    parr, garr = (np.array(ps, dtype=np.int64) for ps in (primes, good))
    whole_counts = count_roots_block(f, parr)
    whole_census = census_block(fstar, garr) if fstar.degree >= 2 else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modular_mod, "_CHUNK_ENTRIES", entries)
        counts = count_roots_block(f, parr)
        census = census_block(fstar, garr) if fstar.degree >= 2 else None
    assert counts.tolist() == whole_counts.tolist() == [
        count_roots_mod_p(f, p) for p in primes]
    if census is not None:
        assert census.tolist() == whole_census.tolist() == [
            type_counts(cycle_type_of_good_prime(fstar, p), fstar.degree) for p in good]


DEGREE_10 = IntPoly([60, 0, 68, 0, -11, 0, -21, 0, -1, 0, 1])  # five quadratics


@pytest.mark.parametrize("kernel, f", [
    (count_roots_block, DEGREE_10),
    (census_block, IntPoly([-1, -1, 0, 0, 0, 1])),  # x^5 - x - 1, disc 19 * 151
])
def test_block_kernels_hold_memory_bounded_by_the_chunk(kernel, f):
    # the primes pass one lane chunk at a time, so beyond its outputs a
    # kernel holds the same few MiB for a 2^18-wide scan block (about 20k
    # primes) as for every prime below 10^6; tracemalloc sees numpy's
    # allocations
    budget = 6 << 20
    every = np.array(good_primes(f, primes_in(2, 10**6)), dtype=np.int64)
    for n in (20_000, every.size):
        parr = every[:n].copy()
        tracemalloc.start()
        try:
            out = kernel(f, parr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = peak - out.nbytes
        assert held < budget, (n, held)
