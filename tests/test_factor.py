"""The finder of factors of degree <= 2, and the scans that count their
roots by Euler's criterion, against the unfactored kernels."""

import time
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intersective.factor as factor_mod
import intersective.scanner as scanner_mod
from intersective.factor import small_factors
from intersective.intpoly import (
    ONE,
    IntPoly,
    canonical,
    discriminant,
    exact_div,
    multiply,
    squarefree_part,
)
from intersective.modular import census_block, count_roots_block
from intersective.parse import parse_poly
from intersective.primes import PrimeRange, primes_in
from intersective.scanner import _parts, scan


def factored(text):
    return small_factors(squarefree_part(parse_poly(text)))


def as_text(polys):
    return sorted(str(g) for g in polys)


def test_the_flagship_triple_factors_into_quadratics():
    split = factored("(x^2+1)(x^2+2)(x^2-2)")
    assert split.linear == ()
    assert as_text(split.quadratic) == ["x^2+1", "x^2+2", "x^2-2"]
    assert split.cofactor == ONE


def test_linear_quadratic_and_cubic_factors_are_told_apart():
    split = factored("(x-3)(2x+5)(3x^2+5x-7)(11x^2-13)(x^3-2)")
    assert as_text(split.linear) == ["2x+5", "x-3"]
    assert as_text(split.quadratic) == ["11x^2-13", "3x^2+5x-7"]
    assert split.cofactor == parse_poly("x^3-2")


def test_inputs_of_degree_at_most_2_are_their_own_factor():
    assert factored("3x-6") == ((parse_poly("x-2"),), (), ONE)
    # a reducible quadratic has 2 roots at every good prime, as a factor
    assert factored("x^2-1") == ((), (parse_poly("x^2-1"),), ONE)
    assert factored("x^2+1") == ((), (parse_poly("x^2+1"),), ONE)


def test_irreducible_inputs_are_left_whole():
    for text in ("x^3-x-1", "x^5-x-1", "x^4+1", "x^100-2"):
        split = factored(text)
        assert split == ((), (), parse_poly(text)), text


def test_a_cofactor_of_degree_2_is_a_factor(monkeypatch):
    # one candidate, p = 5 (3 divides the resultant): x^2 + 1 splits there
    # and is lifted, x^2 - 2 is inert and is what is left
    monkeypatch.setattr(factor_mod, "CANDIDATE_PRIMES", 1)
    f = parse_poly("(x^2+1)(x^2-2)")
    assert factor_mod._best_prime(f, 2 * discriminant(f)) == (5, [2, 3])
    assert small_factors(f) == ((), (parse_poly("x^2+1"), parse_poly("x^2-2")), ONE)


def test_no_good_candidate_leaves_f_whole(monkeypatch):
    monkeypatch.setattr(factor_mod, "_CANDIDATE_BOUND", 4)  # 3 alone, which is bad
    f = parse_poly("(x^2+1)(x^2-2)")
    assert factor_mod._best_prime(f, 2 * discriminant(f)) == (0, [])
    assert small_factors(f) == ((), (), f)


def test_the_finder_is_cheap_at_high_degree():
    # one batched evaluation over the candidate primes, folded below p
    f = parse_poly("x^922-2")
    squarefree_part(f)
    discriminant(f)
    start = time.perf_counter()
    assert small_factors(f).cofactor == f
    assert time.perf_counter() - start < 0.5


# linear, quadratic and cubic factors with random leading coefficients
coefficient = st.integers(-30, 30)
lead = st.integers(-12, 12).filter(bool)
linear = st.tuples(coefficient, lead)
quadratic = st.tuples(coefficient, coefficient, lead)
cubic = st.tuples(coefficient, coefficient, coefficient, lead)
products = st.tuples(
    st.lists(linear, max_size=3), st.lists(quadratic, max_size=4), st.lists(cubic, max_size=1)
).filter(lambda parts: any(parts))


def product(parts):
    return reduce(multiply, (IntPoly(c) for part in parts for c in part), ONE)


@settings(max_examples=80, deadline=None)
@example(parts=([], [(1, 0, 1), (2, 0, 1), (-2, 0, 1)], []))
@example(parts=([(1, 1), (1, 1)], [(-1, 0, 1)], [(-1, -1, 0, 1)]))  # (x+1)^3 (x-1)
@given(parts=products)
def test_the_factors_found_multiply_back_to_f_star(parts):
    fstar = squarefree_part(product(parts))
    split = small_factors(fstar)
    assert small_factors(fstar) == split  # deterministic
    # f* and every factor are in the one canonical form
    for g in (fstar, *split.linear, *split.quadratic, split.cofactor):
        assert canonical(g) == g, g
    assert all(g.degree == 1 for g in split.linear)
    assert all(g.degree == 2 for g in split.quadratic)
    assert split.cofactor == ONE or split.cofactor.degree >= 3
    rest = fstar
    for g in (*split.linear, *split.quadratic):
        exact_div(fstar, g)  # every factor divides f* on its own
        rest = exact_div(rest, g)
    assert rest == split.cofactor
    # a linear factor has a root at every good prime, so none is missed
    for c in parts[0]:
        with pytest.raises(ArithmeticError):
            exact_div(split.cofactor, canonical(IntPoly(c)))


def unfactored_scan(f, lo, hi):
    """Histogram, cycle types and excluded primes of f* over [lo, hi] from
    the kernels run on f* whole."""
    fstar = squarefree_part(f)
    bad = 2 * fstar.lc * discriminant(fstar)
    all_primes = list(primes_in(lo, hi))
    good = np.array([p for p in all_primes if bad % p], dtype=np.int64)
    counts = count_roots_block(fstar, good).tolist()
    types = census_block(fstar, good).tolist()
    return (
        dict(sorted(Counter(counts).items())),
        dict(sorted(Counter(_parts(row) for row in types).items())),
        tuple(p for p in all_primes if bad % p == 0),
    )


@settings(max_examples=25, deadline=None)
@example(parts=([], [(1, 0, 1), (2, 0, 1), (-2, 0, 1)], [(-1, -1, 0, 1)]))
@given(parts=products)
def test_factored_scans_equal_the_unfactored_kernels(parts):
    f = product(parts)
    # blocks of 1024: [2, 6000] crosses five block boundaries
    lo, hi = 2, 6000
    hist, types, excluded = unfactored_scan(f, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scanner_mod, "BLOCK_SPAN", 1024)
        for workers in (1, 2):
            mp.setenv(scanner_mod.THREADS_ENV_VAR, str(workers))
            report = scan(f, PrimeRange(lo, hi))
            assert (report.histogram, report.excluded_primes) == (hist, excluded)
            assert report.cycle_type_histogram is None
            report = scan(f, PrimeRange(lo, hi), with_cycle_types=True)
            assert report.histogram == hist
            assert report.cycle_type_histogram == types
            assert report.excluded_primes == excluded
