import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective.primes import iter_prime_arrays, primes_in
from intersective.quadcover import (
    Covers,
    FailsToCover,
    QuadForm,
    build_square_classes,
    decide_cover,
    exact_root_distribution,
    form_discriminant,
    is_positive_definite,
    product_polynomial,
)
from oracles import form_covers_p, form_covers_p_exhaustive, jacobi
from intersective.modular import _CHUNK_ENTRIES, _find_uncovered_prime
from intersective.quadcover import _macwilliams, _weight_counts

TRIPLE = [QuadForm(1, 0, 1), QuadForm(1, 0, 2), QuadForm(1, 0, -2)]


def is_positive_square(n):
    return n > 0 and math.isqrt(n) ** 2 == n


def random_positive_definite(rng, a_max=20, b_max=20, c_extra=20):
    a = rng.randint(1, a_max)
    b = rng.randint(-b_max, b_max)
    cmin = b * b // (4 * a) + 1
    c = rng.randint(cmin, cmin + c_extra)
    q = QuadForm(a, b, c)
    assert is_positive_definite(q)
    return q


def test_form_basics():
    q = QuadForm(1, 0, 1)
    assert form_discriminant(q) == -4
    assert form_discriminant(QuadForm(1, 0, 2)) == -8
    assert form_discriminant(QuadForm(1, 0, -2)) == 8
    assert form_discriminant(QuadForm(2, 3, -1)) == 17
    with pytest.raises(ValueError):
        QuadForm(0, 0, 0)
    assert str(QuadForm(1, -2, 3)) == "x^2-2xy+3y^2"


def test_positive_definite():
    assert is_positive_definite(QuadForm(1, 0, 1))
    assert is_positive_definite(QuadForm(2, 2, 3))
    assert not is_positive_definite(QuadForm(1, 0, -2))
    assert not is_positive_definite(QuadForm(-1, 0, -1))  # negative definite
    assert not is_positive_definite(QuadForm(1, 2, 1))  # degenerate
    assert not is_positive_definite(QuadForm(0, 1, 1))


def test_form_covers_p_examples():
    q = QuadForm(1, 0, 1)  # x^2 + y^2
    assert form_covers_p(q, 5)
    assert form_covers_p(q, 2)
    assert not form_covers_p(q, 3)
    assert not form_covers_p(q, 7)
    r = QuadForm(1, 0, -2)  # x^2 - 2y^2
    assert form_covers_p(r, 7)
    assert not form_covers_p(r, 5)
    # p dividing a always covered via (1, 0)
    assert form_covers_p(QuadForm(5, 1, 1), 5)


def test_form_covers_p_matches_exhaustive():
    rng = random.Random(404)
    primes = list(primes_in(2, 200))
    for _ in range(60):
        q = QuadForm(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
        for p in primes:
            assert form_covers_p(q, p) == form_covers_p_exhaustive(q, p), (q, p)


def test_build_square_classes_triple():
    classes, basis = build_square_classes(TRIPLE)
    assert basis == (-1, 2)
    assert [c.kernel for c in classes] == [-1, -2, 2]
    assert [c.bits for c in classes] == [0b01, 0b11, 0b10]


def test_square_class_vector_reconstructs_kernel():
    rng = random.Random(11)
    for _ in range(80):
        forms = [
            QuadForm(rng.randint(1, 30), rng.randint(-30, 30), rng.randint(-30, 30))
            for _ in range(rng.randint(1, 5))
        ]
        classes, basis = build_square_classes(forms)
        for q, cl in zip(forms, classes):
            prod = 1
            for j, e in enumerate(basis):
                if (cl.bits >> j) & 1:
                    prod *= e
            assert prod == cl.kernel
            disc = form_discriminant(q)
            if disc != 0:
                assert is_positive_square(disc * cl.kernel)


def test_square_classes_use_a_coprime_base():
    # disc -20: the base element is 20 itself, never factored into 4 * 5
    classes, basis = build_square_classes([QuadForm(1, 0, 5)])
    assert basis == (-1, 20)
    assert classes[0].kernel == -20 and classes[0].bits == 0b11
    # discs 12 = 2^2 3, 24 = 2^3 3, -27: gcds split out the base {2, 3}
    classes, basis = build_square_classes(
        [QuadForm(1, 0, -3), QuadForm(1, 0, -6), QuadForm(1, 1, 7)]
    )
    assert basis == (-1, 2, 3)
    assert [c.kernel for c in classes] == [3, 6, -3]
    # 4 * 1000003 * 1000033: two primes beyond any trial-division bound
    classes, basis = build_square_classes([QuadForm(1, 0, -1000036000099)])
    assert basis == (-1, 4 * 1000036000099)
    assert classes[0].bits == 0b10


def test_trivial_class_for_square_discriminants():
    classes, _ = build_square_classes([QuadForm(1, 3, 2), QuadForm(1, 2, 1)])
    assert all(c.is_trivial for c in classes)  # discs 1 and 0


def test_decide_cover_triple():
    verdict = decide_cover(TRIPLE)
    assert isinstance(verdict, Covers)
    assert verdict.witness == (0, 1, 2)
    prod = 1
    for i in verdict.witness:
        prod *= form_discriminant(TRIPLE[i])
    # product of the three discriminants is a perfect square: 256
    assert prod == 256


def test_decide_cover_single_fails():
    verdict = decide_cover([QuadForm(1, 0, 1)])
    assert isinstance(verdict, FailsToCover)
    assert verdict.density == Fraction(1, 2)
    assert verdict.rank == 1
    assert verdict.example_prime == 3
    assert verdict.witness_class.as_dict() == {-1: -1}


def test_decide_cover_pair_fails():
    verdict = decide_cover([QuadForm(1, 0, 1), QuadForm(1, 0, 2)])
    assert isinstance(verdict, FailsToCover)
    assert verdict.density == Fraction(1, 4)
    assert verdict.example_prime == 7
    assert verdict.witness_class.as_dict() == {-1: -1, 2: 1}


def test_decide_cover_square_discriminant_is_trivially_covering():
    verdict = decide_cover([QuadForm(1, 3, 2)])  # disc 1
    assert isinstance(verdict, Covers) and verdict.witness == (0,)
    # degenerate forms behave the same way: (1,0) is a zero of 0*x^2+0*xy+c*y^2...
    verdict = decide_cover([QuadForm(0, 1, 1)])  # disc 1, linear in x
    assert isinstance(verdict, Covers)


def test_uncovered_prime_is_sound():
    rng = random.Random(27182)
    for _ in range(100):
        forms = [random_positive_definite(rng) for _ in range(rng.randint(1, 4))]
        verdict = decide_cover(forms)
        assert isinstance(verdict, FailsToCover)
        p = verdict.example_prime
        assert p is not None and p % 2 == 1
        for q in forms:
            assert jacobi(form_discriminant(q), p) == -1
            assert not form_covers_p_exhaustive(q, p)


def test_covers_witness_is_sound():
    rng = random.Random(314)
    covers_seen = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        forms = [
            QuadForm(rng.randint(1, 12), rng.randint(-12, 12), rng.randint(-12, 12))
            for _ in range(n)
        ]
        verdict = decide_cover(forms, example_prime_bound=10**4)
        if isinstance(verdict, Covers):
            covers_seen += 1
            assert len(verdict.witness) % 2 == 1
            prod = math.prod(form_discriminant(forms[i]) for i in verdict.witness)
            # zero only for one degenerate form, which has a zero mod every p
            assert is_positive_square(prod) or (prod == 0 and len(verdict.witness) == 1)
        else:
            # verdict must agree with a direct small-prime probe
            p = verdict.example_prime
            if p is not None:
                assert all(not form_covers_p_exhaustive(q, p) for q in forms)
    assert covers_seen > 20


def test_verdict_invariant_under_equivalence():
    rng = random.Random(161)
    for _ in range(100):
        forms = [
            QuadForm(rng.randint(1, 15), rng.randint(-15, 15), rng.randint(-15, 15))
            for _ in range(rng.randint(1, 4))
        ]
        transformed = []
        for q in forms:
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    q = QuadForm(q.a, q.b + 2 * q.a, q.a + q.b + q.c)
                else:
                    q = QuadForm(q.c, -q.b, q.a)
            transformed.append(q)
        v1 = decide_cover(forms, example_prime_bound=10**4)
        v2 = decide_cover(transformed, example_prime_bound=10**4)
        assert type(v1) is type(v2)
        if isinstance(v1, FailsToCover):
            assert v1.density == v2.density
            assert v1.witness_class == v2.witness_class


def test_positive_definite_sets_never_cover():
    rng = random.Random(999)
    for _ in range(200):
        n = rng.randint(1, 6)
        forms = [random_positive_definite(rng) for _ in range(n)]
        verdict = decide_cover(forms)
        assert isinstance(verdict, FailsToCover)
        assert verdict.density >= Fraction(1, 2**n)


def test_distribution_triple():
    dist = exact_root_distribution(TRIPLE)
    assert dist.densities == {2: Fraction(3, 4), 6: Fraction(1, 4)}
    assert dist.min_roots == 2
    assert dist.rank == 2


def test_distribution_single_and_pair():
    dist = exact_root_distribution([QuadForm(1, 0, 1)])
    assert dist.densities == {0: Fraction(1, 2), 2: Fraction(1, 2)}
    assert dist.min_roots == 0
    dist = exact_root_distribution([QuadForm(1, 0, 1), QuadForm(1, 0, 2)])
    assert dist.densities == {
        0: Fraction(1, 4),
        2: Fraction(1, 2),
        4: Fraction(1, 4),
    }
    assert dist.min_roots == 0


def test_distribution_degenerate_contributions():
    # square discriminant: always two roots
    dist = exact_root_distribution([QuadForm(1, 3, 2)])
    assert dist.densities == {2: Fraction(1)}
    # zero discriminant: one double root
    dist = exact_root_distribution([QuadForm(1, 2, 1)])
    assert dist.densities == {1: Fraction(1)}
    # linear factor always contributes exactly one root
    dist = exact_root_distribution([QuadForm(0, 1, 5), QuadForm(1, 0, 1)])
    assert dist.densities == {1: Fraction(1, 2), 3: Fraction(1, 2)}


def test_distribution_properties():
    rng = random.Random(5150)
    for _ in range(120):
        n = rng.randint(1, 6)
        forms = [
            QuadForm(rng.randint(1, 20), rng.randint(-20, 20), rng.randint(-20, 20))
            for _ in range(n)
        ]
        dist = exact_root_distribution(forms)
        assert sum(dist.densities.values()) == 1
        assert all(v > 0 for v in dist.densities.values())
        assert all(0 <= k <= 2 * n for k in dist.densities)
        assert dist.min_roots == min(dist.densities)
        verdict = decide_cover(forms, example_prime_bound=10**4)
        assert (dist.min_roots == 0) == isinstance(verdict, FailsToCover)
        if isinstance(verdict, FailsToCover):
            assert dist.densities[0] == verdict.density


def test_distribution_counts_shared_factors_once():
    # x^2 - 1 and x^2 - x share the root 1: three distinct linear factors
    dist = exact_root_distribution([QuadForm(1, 0, -1), QuadForm(1, -1, 0)])
    assert dist.densities == {3: Fraction(1)}
    assert dist.min_roots == 3
    # a repeated irreducible quadratic, equal or proportional, counts once
    for forms in ([QuadForm(1, 0, 1), QuadForm(1, 0, 1)],
                  [QuadForm(1, 0, 1), QuadForm(2, 0, 2)],
                  [QuadForm(1, 0, 1), QuadForm(-3, 0, -3)]):
        dist = exact_root_distribution(forms)
        assert dist.densities == {0: Fraction(1, 2), 2: Fraction(1, 2)}
        assert dist.rank == 1
    # a double root and a linear factor with the same root
    dist = exact_root_distribution([QuadForm(1, -2, 1), QuadForm(0, 3, -3)])
    assert dist.densities == {1: Fraction(1)}


def chained_forms(r):
    """2r forms x^2 - p_i and x^2 - p_i p_(i+1) (indices mod r) over the
    first r primes: 2r distinct quadratics whose classes have rank r."""
    ps = list(primes_in(2, 1000))[:r]
    return [QuadForm(1, 0, -p) for p in ps] + [
        QuadForm(1, 0, -ps[i] * ps[(i + 1) % r]) for i in range(r)
    ]


def test_distribution_rank_guard():
    # rank 25 and a dual code of dimension 50 - 25: both exceed the bound 24
    with pytest.raises(ValueError, match="at most 24"):
        exact_root_distribution(chained_forms(25))


def test_distribution_of_independent_classes_beyond_the_bound():
    # rank 30 > 24, but the dual code is zero: binomial densities
    forms = [QuadForm(1, 0, -p) for p in list(primes_in(2, 200))[:30]]
    dist = exact_root_distribution(forms)
    assert dist.rank == 30
    assert dist.densities == {
        2 * k: Fraction(math.comb(30, k), 2**30) for k in range(31)
    }


def test_distribution_on_both_sides_of_the_dual_choice():
    # x^2 + 1, x^2 + 4 and (x + 1)^2 + 1 in class -1, x^2 - 2 and x^2 - 8
    # in class 2: rank 2 of 5, the class code is enumerated.  Roots:
    # 2 * 3 when the character of -1 is +1, plus 2 * 2 when that of 2 is.
    forms = [QuadForm(1, 0, 1), QuadForm(1, 0, 4), QuadForm(1, 2, 2),
             QuadForm(1, 0, -2), QuadForm(1, 0, -8)]
    dist = exact_root_distribution(forms)
    assert dist.rank == 2
    quarter = Fraction(1, 4)
    assert dist.densities == {0: quarter, 4: quarter, 6: quarter, 10: quarter}
    # x^2 + 1, x^2 + 4, x^2 - 2, x^2 - 3: rank 3 of 4, the dual code of
    # dimension 1 is enumerated.  Roots: 4 from class -1, 2 each from 2, 3.
    forms = [QuadForm(1, 0, 1), QuadForm(1, 0, 4), QuadForm(1, 0, -2),
             QuadForm(1, 0, -3)]
    dist = exact_root_distribution(forms)
    assert dist.rank == 3
    assert dist.densities == {
        0: Fraction(1, 8), 2: Fraction(1, 4), 4: Fraction(1, 4),
        6: Fraction(1, 4), 8: Fraction(1, 8),
    }


def test_distribution_wide_rank_uses_vector_path():
    # rank 16 with n = rank: the dual code has dimension 0
    forms = [QuadForm(1, 0, -p) for p in list(primes_in(2, 200))[:16]]
    dist = exact_root_distribution(forms)
    assert dist.rank == 16
    assert sum(dist.densities.values()) == 1
    # independent classes: binomial distribution of 2*Binom(16, 1/2)
    assert dist.densities[0] == Fraction(1, 2**16)
    assert dist.densities[16] == Fraction(math.comb(16, 8), 2**16)


def test_distribution_counts_across_slices():
    # rank 18 with n = rank: the dual code has dimension 0, so no slice
    # boundary is touched here (test_weight_counts_* cover slicing)
    forms = [QuadForm(1, 0, -p) for p in list(primes_in(2, 200))[:18]]
    dist = exact_root_distribution(forms)
    assert dist.rank == 18
    assert dist.densities == {
        2 * k: Fraction(math.comb(18, k), 2**18) for k in range(19)
    }


def test_product_polynomial():
    f = product_polynomial(TRIPLE)
    assert f.coeffs == (-4, 0, -4, 0, 1, 0, 1)
    g = product_polynomial([QuadForm(2, 3, 1)])
    assert g.coeffs == (1, 3, 2)


# Small coefficients make shared factors and square discriminants common;
# x^2 - k y^2 with k from a few square classes makes odd covering subsets
# of size three or more common.
FORMS = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(-12, 12), st.integers(-60, 60))
    .filter(any)
    .map(lambda t: QuadForm(*t)),
    st.sampled_from((-1, 2, -2, 3, -3, 6, -6, 5, -5, 10, 15, -30))
    .map(lambda k: QuadForm(1, 0, -k)),
)


@settings(max_examples=80, deadline=None)
@given(forms=st.lists(FORMS, min_size=1, max_size=5))
def test_decide_cover_matches_exhaustive_covering(forms):
    # an odd prime is uncovered iff no form has a nontrivial zero mod it:
    # Covers must leave none, FailsToCover must name the smallest
    bound = 300
    verdict = decide_cover(forms, example_prime_bound=bound)
    uncovered = next(
        (p for p in primes_in(3, bound)
         if not any(form_covers_p_exhaustive(q, p) for q in forms)),
        None,
    )
    if isinstance(verdict, Covers):
        assert uncovered is None
    else:
        assert verdict.example_prime == uncovered


def naive_kernel_primes(n):
    """Primes dividing n != 0 to an odd power, by trial division."""
    m, out, d = abs(n), [], 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e % 2:
            out.append(d)
        d += 1
    if m > 1:
        out.append(m)
    return out


def f2_rank(vectors):
    rows = []
    for v in vectors:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows.append(v)
            rows.sort(reverse=True)
    return len(rows)


def prime_basis_oracle(forms):
    """Rank, covering witness and root-count densities from the square
    classes over the primes, all by brute force."""
    discs = [form_discriminant(q) for q in forms]
    basis = [-1] + sorted({p for d in discs if d for p in naive_kernel_primes(d)})
    vecs = []
    for d in discs:
        v = int(d < 0)
        for p in naive_kernel_primes(d) if d else ():
            v |= 1 << basis.index(p)
        vecs.append(v)

    witness = next(((i,) for i, v in enumerate(vecs) if v == 0), None)
    pivots = []
    for i, v in enumerate(vecs):
        if witness is not None:
            break
        if f2_rank([vecs[j] for j in pivots] + [v]) > len(pivots):
            pivots.append(i)
            continue
        for mask in range(1 << len(pivots)):
            subset = [pivots[k] for k in range(len(pivots)) if (mask >> k) & 1]
            acc = 0
            for j in subset:
                acc ^= vecs[j]
            if acc == v and len(subset) % 2 == 0:
                witness = tuple(subset + [i])

    roots = set()
    quadratics = {}
    for q, d, v in zip(forms, discs, vecs):
        if q.a == 0:
            if q.b:
                roots.add(Fraction(-q.c, q.b))
        elif d >= 0 and math.isqrt(d) ** 2 == d:
            s = math.isqrt(d)
            roots |= {Fraction(-q.b + s, 2 * q.a), Fraction(-q.b - s, 2 * q.a)}
        else:
            quadratics[(Fraction(q.b, q.a), Fraction(q.c, q.a))] = v
    counts = {}
    for signs in range(1 << len(basis)):
        k = len(roots) + 2 * sum(
            1 for v in quadratics.values() if (signs & v).bit_count() % 2 == 0
        )
        counts[k] = counts.get(k, 0) + 1
    densities = {k: Fraction(c, 1 << len(basis)) for k, c in sorted(counts.items())}
    return f2_rank(vecs), witness, densities


@settings(max_examples=150, deadline=None)
@given(forms=st.lists(FORMS, min_size=1, max_size=6))
def test_coprime_base_classes_match_prime_factorization(forms):
    rank, witness, densities = prime_basis_oracle(forms)
    verdict = decide_cover(forms, example_prime_bound=10**3)
    if witness is None:
        assert isinstance(verdict, FailsToCover) and verdict.rank == rank
    else:
        assert isinstance(verdict, Covers) and verdict.witness == witness
    dist = exact_root_distribution(forms)
    assert dist.rank == rank
    assert dist.densities == densities
    _, basis = build_square_classes(forms)
    for i, b in enumerate(basis[1:]):
        assert not is_positive_square(b)
        assert all(math.gcd(b, c) == 1 for c in basis[i + 2:])


def scalar_uncovered_prime(discs, bound):
    for p in primes_in(3, bound) if bound >= 3 else ():
        if all(jacobi(d, p) == -1 for d in discs):
            return p
    return None


# discriminants beyond int64 come from coefficients up to 10**12
BIG_FORMS = st.tuples(
    st.integers(-(10**12), 10**12),
    st.integers(-(10**12), 10**12),
    st.integers(-(10**12), 10**12),
).filter(any).map(lambda t: QuadForm(*t))


@settings(max_examples=120, deadline=None)
@given(
    forms=st.lists(st.one_of(FORMS, BIG_FORMS), min_size=1, max_size=6),
    bound=st.sampled_from((0, 2, 3, 50, 2000, 30000)),
)
def test_example_prime_matches_scalar_search(forms, bound):
    discs = [form_discriminant(q) for q in forms]
    assert _find_uncovered_prime(discs, bound) == scalar_uncovered_prime(discs, bound)


def test_example_prime_search_windows():
    # examples beyond the first windows, and a covering set with none
    odd = list(primes_in(3, 100))
    for n, example in ((6, 1217), (12, 74093), (14, 360293)):
        discs = [-4 * p for p in odd[:n]]
        assert _find_uncovered_prime(discs, 10**6) == example
        assert _find_uncovered_prime(discs, example - 1) is None
    discs = [form_discriminant(q) for q in TRIPLE]
    assert _find_uncovered_prime(discs, 10**6) is None
    assert _find_uncovered_prime([2**70 + 1, -(3**50)], 10**4) == (
        scalar_uncovered_prime([2**70 + 1, -(3**50)], 10**4)
    )
    with pytest.raises(ValueError):
        _find_uncovered_prime(discs, 2**31)


def test_example_prime_search_holds_one_slice():
    # each sieve array of about 40,000 primes is filtered in slices of
    # _CHUNK_ENTRIES >> 2 primes: the search to 10**6 of the 20 odd primes
    # to 73, which finds none, and an example past the first slice of its
    # sieve array, hold well under what a whole array's Euler criterion does
    odd = list(primes_in(3, 73))
    first = next(iter_prime_arrays(262145, 10**6))
    assert first[_CHUNK_ENTRIES >> 2] < 679733 <= first[-1]
    assert scalar_uncovered_prime([-4 * p for p in odd[:15]], 10**6) == 679733
    for discs, example in (([-4 * p for p in odd], None), ([-4 * p for p in odd[:15]], 679733)):
        tracemalloc.start()
        try:
            found = _find_uncovered_prime(discs, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == example
        assert peak < 3 << 19, peak  # 1.5 MiB


def brute_weight_counts(columns, dim):
    counts = [0] * (len(columns) + 1)
    for x in range(1 << dim):
        counts[sum((x & c).bit_count() & 1 for c in columns)] += 1
    return counts


def dual_columns(columns):
    """Generator columns of the dual of the code with these columns, by
    brute force over F_2^n: a basis of {x : sum x_i c_i = 0}."""
    n = len(columns)
    basis = []
    for x in range(1 << n):
        acc = 0
        for i in range(n):
            if (x >> i) & 1:
                acc ^= columns[i]
        if acc == 0 and f2_rank(basis + [x]) > len(basis):
            basis.append(x)
    return [sum(((t >> i) & 1) << k for k, t in enumerate(basis)) for i in range(n)], len(basis)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(0, 7),
    data=st.data(),
    slice_bits=st.sampled_from((0, 1, 3, 16)),
)
def test_weight_counts_match_brute_force(dim, data, slice_bits):
    columns = data.draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=12))
    with mock.patch("intersective.quadcover._SLICE_BITS", slice_bits):
        assert _weight_counts(columns, dim) == brute_weight_counts(columns, dim)


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(0, 5), data=st.data())
def test_macwilliams_recovers_the_code_from_its_dual(dim, data):
    columns = data.draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=9))
    rank = f2_rank(
        [sum(((c >> j) & 1) << i for i, c in enumerate(columns)) for j in range(dim)]
    )
    dual, dual_dim = dual_columns(columns)
    assert dual_dim == len(columns) - rank
    # every word of the rank-dimensional code is hit 2**(dim - rank) times
    expected = [c >> (dim - rank) for c in brute_weight_counts(columns, dim)]
    assert _macwilliams(_weight_counts(dual, dual_dim), dual_dim) == expected


def test_weight_counts_across_slices_agree_with_the_dual():
    # rank 18 of 36 classes: both codes span four slices of 2**16 words
    columns = [1 << i for i in range(18)] + [(1 << i) | (1 << (i + 1) % 18) for i in range(18)]
    dual = [(1 << i) | (1 << (i - 1) % 18) for i in range(18)] + [1 << i for i in range(18)]
    counts = _weight_counts(columns, 18)
    assert counts == _macwilliams(_weight_counts(dual, 18), 18)
    dist = exact_root_distribution(chained_forms(18))
    assert dist.rank == 18
    assert dist.densities == {
        2 * (36 - k): Fraction(c, 2**18) for k, c in reversed(list(enumerate(counts))) if c
    }


# Many distinct quadratics in a few square classes (k), so that n - rank
# exceeds the rank or falls below it, with repeated and proportional
# factors, square discriminants (k = 0, 1), and linear forms (a = 0) and
# the forms of FORMS mixed in.
def class_forms(k):
    return st.builds(
        lambda c, s, k, m: QuadForm(c, 2 * c * s, c * (s * s - k * m * m)),
        st.sampled_from((1, 2, -3)), st.integers(-2, 2), k, st.integers(1, 3),
    )


FEW_CLASS_FORMS = st.lists(
    st.sampled_from((0, 1, -1, 2, -2, 3, 5, -5, 6, 7, -7, 11, 13, -15)),
    min_size=1, max_size=5, unique=True,
).flatmap(lambda ks: st.lists(class_forms(st.sampled_from(ks)), min_size=1, max_size=10))
LINEAR_FORMS = st.builds(
    QuadForm, st.just(0), st.integers(-3, 3).filter(bool), st.integers(-6, 6)
)


def assignment_oracle(forms):
    """Root-count densities over every +/-1 assignment on the square-class
    basis, with distinct factors found by exact rational arithmetic."""
    classes, basis = build_square_classes(forms)
    roots = set()
    quadratics = {}
    for q, cl in zip(forms, classes):
        if q.a == 0:
            if q.b:
                roots.add(Fraction(-q.c, q.b))
        elif cl.is_trivial:
            s = math.isqrt(form_discriminant(q))
            roots |= {Fraction(-q.b + s, 2 * q.a), Fraction(-q.b - s, 2 * q.a)}
        else:
            quadratics[(Fraction(q.b, q.a), Fraction(q.c, q.a))] = cl.bits
    counts = {}
    for signs in itertools.product((1, -1), repeat=len(basis)):
        minus = sum(1 << j for j, s in enumerate(signs) if s < 0)
        k = len(roots) + 2 * sum(
            1 for bits in quadratics.values() if (minus & bits).bit_count() % 2 == 0
        )
        counts[k] = counts.get(k, 0) + 1
    rank = f2_rank(list(quadratics.values()))
    return rank, {k: Fraction(c, 2 ** len(basis)) for k, c in sorted(counts.items())}


@settings(max_examples=200, deadline=None)
@given(
    few=FEW_CLASS_FORMS,
    other=st.lists(st.one_of(LINEAR_FORMS, FORMS), max_size=4),
)
def test_distribution_matches_every_assignment(few, other):
    forms = few + other
    rank, densities = assignment_oracle(forms)
    dist = exact_root_distribution(forms)
    assert dist.rank == rank
    assert dist.densities == densities
    assert list(dist.densities) == sorted(densities)
