import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective import intpoly, sturm
from intersective.intpoly import (
    IntPoly,
    discriminant,
    evaluate,
    multiply,
    squarefree_part,
)
from intersective.primes import PrimeRange
from intersective.quadcover import QuadForm, product_polynomial
from intersective.scanner import check_real_roots
from intersective.sturm import (
    DEFAULT_MIN_WIDTH,
    Interval,
    count_real_roots,
    isolate_real_roots,
    sturm_chain,
)
from oracles import squarefree_part_by_gcd, sturm_chain_by_primitive_prs

TRIPLE = multiply(
    multiply(IntPoly([1, 0, 1]), IntPoly([2, 0, 1])), IntPoly([-2, 0, 1])
)


def frac_eval(f: IntPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def product_of_linear(roots):
    f = IntPoly([1])
    for r in roots:
        f = multiply(f, IntPoly([-r, 1]))
    return f


def test_count_examples():
    assert count_real_roots(TRIPLE) == 2
    f2 = multiply(IntPoly([1, 1, 1]), IntPoly([-2, 0, 0, 1]))
    assert count_real_roots(f2) == 1
    assert count_real_roots(IntPoly([1, 0, 1])) == 0
    assert count_real_roots(IntPoly([-2, 0, 1])) == 2
    assert count_real_roots(IntPoly([0, 1])) == 1
    assert count_real_roots(IntPoly([5, 3])) == 1


def test_count_rejects_constants():
    with pytest.raises(ValueError):
        count_real_roots(IntPoly([]))
    with pytest.raises(ValueError):
        count_real_roots(IntPoly([7]))


def test_chain_shape():
    chain = sturm_chain(IntPoly([-2, 0, 1]))
    assert chain[0] == IntPoly([-2, 0, 1])
    assert chain[-1].degree == 0
    degrees = [g.degree for g in chain]
    assert degrees == sorted(degrees, reverse=True)


def test_chain_built_on_squarefree_part():
    f = IntPoly([1, 0, 1])
    assert sturm_chain(multiply(f, f))[0] == f


def test_count_distinct_roots_only():
    f = IntPoly([-1, 1])
    assert count_real_roots(multiply(f, f)) == 1
    g = multiply(multiply(f, f), IntPoly([-2, 1]))
    assert count_real_roots(g) == 2


def test_count_on_constructed_products():
    rng = random.Random(3110)
    for _ in range(60):
        roots = sorted(rng.sample(range(-12, 13), rng.randint(1, 5)))
        f = product_of_linear(roots)
        pairs = rng.randint(0, 2)
        for _ in range(pairs):
            f = multiply(f, IntPoly([rng.randint(1, 9), 0, 1]))  # no real roots
        assert count_real_roots(f) == len(roots), (roots, pairs)


def test_count_squarefree_invariance():
    rng = random.Random(88)
    for _ in range(30):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        f = IntPoly(coeffs)
        assert count_real_roots(f) == count_real_roots(squarefree_part(f))
        assert count_real_roots(f) == count_real_roots(multiply(f, f))


def test_parity_matches_degree_for_squarefree():
    rng = random.Random(17)
    seen = 0
    while seen < 40:
        deg = rng.randint(1, 7)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        f = IntPoly(coeffs)
        if discriminant(f) == 0:
            continue
        seen += 1
        assert (count_real_roots(f) - f.degree) % 2 == 0


def test_isolation_triple():
    intervals = isolate_real_roots(TRIPLE)
    assert len(intervals) == 2
    neg, pos = intervals
    assert neg.hi < 0 < pos.lo
    # roots are +/- sqrt(2): the only sign changes of x^2 - 2
    sq = IntPoly([-2, 0, 1])
    for iv in (neg, pos):
        assert iv.width <= DEFAULT_MIN_WIDTH
        assert frac_eval(sq, iv.lo) * frac_eval(sq, iv.hi) < 0
    assert pos.lo < Fraction(14142136, 10**7) < pos.hi


def test_isolation_cube_root_of_two():
    f = IntPoly([-2, 0, 0, 1])
    (iv,) = isolate_real_roots(f)
    assert Fraction(1) < iv.lo < iv.hi < Fraction(2)
    assert iv.width <= DEFAULT_MIN_WIDTH
    assert frac_eval(f, iv.lo) < 0 < frac_eval(f, iv.hi)


def test_isolation_no_real_roots():
    assert isolate_real_roots(IntPoly([1, 0, 1])) == []
    assert isolate_real_roots(IntPoly([3, 0, 1, 0, 1])) == []


def test_isolation_rational_roots_on_bisection_grid():
    # roots 1/2, 1, +/- sqrt(2); 1 and 1/2 land on bisection midpoints
    f = multiply(multiply(IntPoly([-1, 2]), IntPoly([-2, 0, 1])), IntPoly([-1, 1]))
    intervals = isolate_real_roots(f)
    assert len(intervals) == 4
    fs = squarefree_part(f)
    for iv in intervals:
        assert iv.width <= DEFAULT_MIN_WIDTH
        assert frac_eval(fs, iv.lo) * frac_eval(fs, iv.hi) < 0
    for root in (Fraction(1, 2), Fraction(1)):
        assert sum(1 for iv in intervals if iv.lo < root < iv.hi) == 1


def test_isolation_respects_min_width():
    f = IntPoly([-2, 0, 1])
    for k in (4, 10, 30):
        width = Fraction(1, 2**k)
        for iv in isolate_real_roots(f, width):
            assert iv.width <= width


def test_isolation_intervals_disjoint_and_sorted():
    rng = random.Random(2718)
    for _ in range(25):
        roots = sorted(rng.sample(range(-15, 16), rng.randint(2, 6)))
        f = product_of_linear(roots)
        intervals = isolate_real_roots(f)
        assert len(intervals) == len(roots)
        for a, b in zip(intervals, intervals[1:]):
            assert a.hi <= b.lo
        for iv, root in zip(intervals, roots):
            assert iv.lo < root < iv.hi
            assert frac_eval(f, iv.lo) * frac_eval(f, iv.hi) < 0


def test_isolation_close_roots():
    # roots at 0 and 1/1024 force deep bisection
    f = multiply(IntPoly([0, 1]), IntPoly([-1, 1024]))
    intervals = isolate_real_roots(f)
    assert len(intervals) == 2
    assert intervals[0].hi <= intervals[1].lo
    assert intervals[0].lo < 0 < intervals[0].hi
    assert intervals[1].lo < Fraction(1, 1024) < intervals[1].hi


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        isolate_real_roots(IntPoly([0, 1]), Fraction(0))


def test_count_large_coefficient_polynomial():
    f = IntPoly([-(10**30), 0, 1])  # roots +/- 10^15
    assert count_real_roots(f) == 2
    lo, hi = isolate_real_roots(f, Fraction(1, 2))
    assert hi.lo < Fraction(10**15) < hi.hi
    assert evaluate(f, 10**15) == 0


def sign_at(f: IntPoly, x: Fraction) -> int:
    v = frac_eval(f, x)
    return (v > 0) - (v < 0)


def bisection_isolate(f: IntPoly, min_width: Fraction) -> list[Interval]:
    """Oracle: Sturm isolation with plain bisection refinement, one sign
    check per bit, and the sliver loop halving one step at a time."""
    chain = sturm_chain(f)
    fstar = chain[0]

    def var(x):
        signs = [s for s in (sign_at(g, x) for g in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def sign(x):
        return sign_at(fstar, x)

    def refine(lo, hi):
        s_lo = sign(lo)
        while hi - lo > min_width:
            mid = (lo + hi) / 2
            s_mid = sign(mid)
            if s_mid == 0:
                w = (hi - lo) / 4
                while sign(mid - w) == 0 or sign(mid + w) == 0 or 2 * w > min_width:
                    w /= 2
                return Interval(mid - w, mid + w)
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        return Interval(lo, hi)

    bound = Fraction(sturm._root_bound(fstar))
    found = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = var(lo) - var(hi)
        if n == 0:
            continue
        if n == 1:
            found.append(refine(lo, hi))
            continue
        mid = (lo + hi) / 2
        if sign(mid) != 0:
            stack += [(lo, mid), (mid, hi)]
            continue
        w = (hi - lo) / 4
        while (
            sign(mid - w) == 0
            or sign(mid + w) == 0
            or var(mid - w) - var(mid + w) != 1
            or 2 * w > min_width
        ):
            w /= 2
        found.append(Interval(mid - w, mid + w))
        stack += [(lo, mid - w), (mid + w, hi)]
    return sorted(found, key=lambda iv: iv.lo)


# Linear factors q x - p; denominators 2, 4 and 8 put roots on the dyadic
# grids of the isolating intervals.  Quadratics a x^2 + b x + c whose
# discriminant is negative or a non-square are irreducible.
LINEAR = st.tuples(st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 5, 8)))
QUADRATIC = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(-30, 30)).filter(
    lambda t: t[1] * t[1] - 4 * t[0] * t[2] < 0
    or math.isqrt(t[1] * t[1] - 4 * t[0] * t[2]) ** 2 != t[1] * t[1] - 4 * t[0] * t[2]
)


def build(linear, quadratic) -> IntPoly:
    f = IntPoly([1])
    for p, q in linear:
        f = multiply(f, IntPoly([-p, q]))
    for a, b, c in quadratic:
        f = multiply(f, IntPoly([c, b, a]))
    return f


@settings(max_examples=150, deadline=None)
@given(
    linear=st.lists(LINEAR, max_size=4),
    quadratic=st.lists(QUADRATIC, max_size=2),
    # a width that is not dyadic still leaves every point evaluated dyadic
    width=st.one_of(
        st.integers(0, 300).map(lambda k: Fraction(1, 2**k)),
        st.sampled_from((Fraction(1, 3), Fraction(7, 10), Fraction(5), Fraction(1, 10**9))),
    ),
)
def test_isolation_matches_bisection_oracle(linear, quadratic, width):
    f = build(linear, quadratic)
    if f.degree < 1:
        return
    assert isolate_real_roots(f, width) == bisection_isolate(f, width)


def test_refinement_grid_roots_match_bisection():
    # rational roots that refinement, not isolation, meets on the grid of
    # their isolating interval: 1/2 in (-2, 2), 35/4 in (-10, 10), -27/4
    # next to a complex pair, -1/4 next to 12 and 28/5; and at width 1,
    # -9/4 and 3/4, met while refining the interval beside the sliver of 0
    # in x(4x+9) and of 2 in (4x-3)(x-2)
    for linear, quadratic in (
        ([(1, 2)], []),
        ([(35, 4)], []),
        ([(-27, 4)], [(5, 3, 5)]),
        ([(-1, 4), (36, 3), (28, 5)], []),
        ([(-9, 4), (0, 1)], []),
        ([(3, 4), (2, 1)], []),
    ):
        f = build(linear, quadratic)
        for k in (0, 1, 5, 40, 200):
            width = Fraction(1, 2**k)
            assert isolate_real_roots(f, width) == bisection_isolate(f, width)


def wilkinson(n: int) -> IntPoly:
    return product_of_linear(range(1, n + 1))


def test_wilkinson_refinement_sign_checks_are_logarithmic(monkeypatch):
    # only the evaluations made while _refine runs: bisection's sign
    # checks go through _value_at too
    calls = 0
    refining = False
    value_at, refine = sturm._value_at, sturm._refine

    def counted(*args):
        nonlocal calls
        calls += refining
        return value_at(*args)

    def scoped(*args):
        nonlocal refining
        refining = True
        try:
            return refine(*args)
        finally:
            refining = False

    monkeypatch.setattr(sturm, "_value_at", counted)
    monkeypatch.setattr(sturm, "_refine", scoped)
    intervals = isolate_real_roots(wilkinson(20), Fraction(1, 2**1000))
    assert [iv.lo < r < iv.hi for iv, r in zip(intervals, range(1, 21))] == [True] * 20
    assert all(iv.width <= Fraction(1, 2**1000) for iv in intervals)
    # bisection makes about 1000 sign checks per root here
    assert 0 < calls <= 100 * 20


def prem_calls(monkeypatch, run) -> int:
    """intpoly.prem calls made by run(), starting from no cached remainder
    sequence; a sequence of f and f' makes at most deg f - 1 of them."""
    calls = 0
    pseudo_remainder = intpoly.prem

    def counted(*args):
        nonlocal calls
        calls += 1
        return pseudo_remainder(*args)

    monkeypatch.setattr(intpoly, "prem", counted)
    intpoly.subresultant_prs.cache_clear()
    run()
    monkeypatch.setattr(intpoly, "prem", pseudo_remainder)
    return calls


def test_isolation_of_a_squarefree_polynomial_runs_one_remainder_sequence(monkeypatch):
    # the chain, the proof that f is squarefree and the root count all
    # come from one sequence of at most d - 1 pseudo-remainders
    for f in (wilkinson(20), TRIPLE, IntPoly([-1, -1, 0, 0, 0, 0, 0, 1])):
        calls = prem_calls(monkeypatch, lambda: isolate_real_roots(f, Fraction(1, 2**40)))
        assert 0 < calls <= f.degree - 1, (f, calls)


def dense_poly(rng, d):
    return IntPoly([rng.randint(-100, 100) for _ in range(d)] + [rng.randint(1, 100)])


def test_check_runs_one_remainder_sequence_per_polynomial(monkeypatch):
    # the scan's squarefree part and disc(f*) and the Sturm count share
    # one sequence of (f*, f*'); a repeated factor adds the sequence of
    # primitive f that finds it, and nothing more
    primes = PrimeRange(2, 1000)
    rng = random.Random(16)
    f = dense_poly(rng, 40)
    assert discriminant(f) != 0
    calls = prem_calls(monkeypatch, lambda: check_real_roots(f, primes))
    assert 0 < calls <= f.degree - 1, calls

    triple = [QuadForm(1, 0, 1), QuadForm(1, 0, 2), QuadForm(1, 0, -2)]
    product = product_polynomial(triple)
    calls = prem_calls(monkeypatch, lambda: check_real_roots(product, primes, triple))
    assert 0 < calls <= 5, calls

    g = dense_poly(rng, 8)
    f = multiply(multiply(g, g), dense_poly(rng, 10))
    fstar = squarefree_part(f)
    assert fstar.degree == 18
    calls = prem_calls(monkeypatch, lambda: check_real_roots(f, primes))
    assert 0 < calls <= (f.degree - 1) + (fstar.degree - 1), calls


# Sparse polynomials have degree gaps in their remainder sequences, and
# the powers (x^m + c)^k, k >= 2, repeated factors.
SPARSE_TERMS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(-20, 20)), min_size=1, max_size=4
)
REPEATED = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(2, 3)), max_size=2
)


@settings(max_examples=200, deadline=None)
@given(terms=SPARSE_TERMS, repeated=REPEATED, scale=st.sampled_from((1, -1, 2, -6)))
def test_chain_and_squarefree_part_match_primitive_prs_oracle(terms, repeated, scale):
    coeffs = [0] * 13
    for e, c in terms:
        coeffs[e] += c
    f = IntPoly([scale * c for c in coeffs])
    for m, c, k in repeated:
        for _ in range(k):
            f = multiply(f, IntPoly([c] + [0] * (m - 1) + [1]))
    if f.is_zero or f.degree < 1:
        return
    assert squarefree_part(f).coeffs == squarefree_part_by_gcd(f).coeffs
    chain = sturm_chain(f)
    assert [g.coeffs for g in chain] == [g.coeffs for g in sturm_chain_by_primitive_prs(f)]


@settings(max_examples=150, deadline=None)
@given(
    roots=st.lists(
        st.tuples(
            st.integers(-30, 30), st.integers(1, 6), st.integers(1, 3)
        ),  # p, q, multiplicity of q x - p
        max_size=5,
    ),
    quadratic=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 20)), max_size=2),
)
def test_count_matches_sign_changes_at_rational_points(roots, quadratic):
    # f has the rational roots p/q (with multiplicity) and a x^2 + c > 0
    # factors; samples between and beyond the distinct roots see one sign
    # change of the squarefree part per real root
    f = IntPoly([1])
    for p, q, mult in roots:
        for _ in range(mult):
            f = multiply(f, IntPoly([-p, q]))
    for a, c in quadratic:
        f = multiply(f, IntPoly([c, 0, a]))
    if f.degree < 1:
        return
    distinct = sorted({Fraction(p, q) for p, q, _ in roots})
    if distinct:
        samples = [distinct[0] - 1]
        samples += [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
        samples.append(distinct[-1] + 1)
    else:
        samples = [Fraction(0)]
    fs = squarefree_part(f)
    signs = [sign_at(fs, x) for x in samples]
    assert 0 not in signs
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    assert count_real_roots(f) == changes == len(distinct)
