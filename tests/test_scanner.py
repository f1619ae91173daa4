from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import intersective.modular as modular_mod
import intersective.scanner as scanner_mod
from intersective.intpoly import IntPoly, discriminant
from intersective.primes import PrimeRange, primes_in
from intersective.quadcover import QuadForm
from intersective.scanner import (
    HARD_SCAN_CAP,
    InvariantViolation,
    check_real_roots,
    check_real_roots_forms,
    density_comparison,
    resolve_workers,
    scan,
)
from oracles import count_roots_mod_p, cycle_type_mod_p

TRIPLE_FORMS = [QuadForm(1, 0, 1), QuadForm(1, 0, 2), QuadForm(1, 0, -2)]
TRIPLE_POLY = IntPoly((-4, 0, -4, 0, 1, 0, 1))


def test_scan_x2_plus_1_to_100():
    report = scan(IntPoly((1, 0, 1)), PrimeRange(2, 100))
    assert report.excluded_primes == (2,)
    assert report.histogram == {0: 13, 2: 11}
    assert report.good_prime_count == 24
    assert report.min_roots_observed == 0
    assert report.empirical_density_with_root == Fraction(11, 24)


def test_scan_matches_direct_congruence_condition():
    # x^2 + 1 has roots mod p exactly when p % 4 == 1
    report = scan(IntPoly((1, 0, 1)), PrimeRange(2, 2000))
    expected = sum(1 for p in primes_in(3, 2000) if p % 4 == 1)
    assert report.histogram[2] == expected
    assert report.histogram[0] == report.good_prime_count - expected


def test_scan_triple_product_always_has_roots():
    report = scan(TRIPLE_POLY, PrimeRange(2, 1000))
    assert report.excluded_primes == (2, 3)
    assert set(report.histogram) <= {2, 6}
    assert report.min_roots_observed == 2
    assert report.good_prime_count == 166
    assert report.empirical_density_with_root == 1


def test_scan_uses_squarefree_part():
    # (x-1)^2 (x+1) scans like x^2 - 1
    f = IntPoly((1, -1, -1, 1))
    report = scan(f, PrimeRange(2, 500))
    assert report.polynomial == f
    assert report.excluded_primes == (2,)
    assert set(report.histogram) == {2}
    ref = scan(IntPoly((-1, 0, 1)), PrimeRange(2, 500))
    assert report.histogram == ref.histogram


def test_scan_cycle_types_cubic():
    report = scan(IntPoly((-2, 0, 0, 1)), PrimeRange(2, 100), with_cycle_types=True)
    assert report.excluded_primes == (2, 3)
    cyc = report.cycle_type_histogram
    assert set(cyc) == {(1, 1, 1), (1, 2), (3,)}
    assert sum(cyc.values()) == report.good_prime_count == 23
    # the census refines the root histogram
    assert report.histogram.get(3, 0) == cyc[(1, 1, 1)]
    assert report.histogram.get(1, 0) == cyc[(1, 2)]
    assert report.histogram.get(0, 0) == cyc[(3,)]


def test_scan_cycle_types_off_by_default():
    report = scan(IntPoly((1, 0, 1)), PrimeRange(2, 50))
    assert report.cycle_type_histogram is None


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        scan(IntPoly(()), PrimeRange(2, 100))
    with pytest.raises(ValueError):
        scan(IntPoly((5,)), PrimeRange(2, 100))
    with pytest.raises(ValueError):
        scan(IntPoly((1, 0, 1)), PrimeRange(2, HARD_SCAN_CAP + 1))


def test_invariant_violation_raised_on_bogus_census(monkeypatch):
    # cycle type (1, 1) at every prime: the parts miss the degree 3
    monkeypatch.setattr(scanner_mod, "census_block", lambda f, primes: np.tile(
        [2, 0, 0], (primes.size, 1)))
    with pytest.raises(InvariantViolation, match=r"\(1, 1\) .* at p=5 "):
        scan(IntPoly((-2, 0, 0, 1)), PrimeRange(2, 100), with_cycle_types=True)


def test_bogus_census_breaking_stickelberger(monkeypatch):
    # type (1, 1) passes the sum and sign checks,
    # but disc(x^2 - 2) = 8 is a nonresidue mod 3, so x^2 - 2 is irreducible
    monkeypatch.setattr(scanner_mod, "census_block", lambda f, primes: np.tile(
        [2, 0], (primes.size, 1)))
    with pytest.raises(InvariantViolation, match=r"\(1, 1\) .* at p=3 .*Stickelberger"):
        scan(IntPoly((-2, 0, 1)), PrimeRange(2, 100), with_cycle_types=True)


def test_scan_of_a_25_digit_coefficient_matches_oracles():
    f = IntPoly((10**24 + 7, -3, 0, 1))
    report = scan(f, PrimeRange(2, 5000), with_cycle_types=True, workers=1)
    bad = 2 * f.lc * discriminant(f)
    good = [p for p in primes_in(2, 5000) if bad % p]
    assert report.excluded_primes == tuple(p for p in primes_in(2, 5000) if bad % p == 0)
    roots = Counter(count_roots_mod_p(f, p) for p in good)
    types = Counter(cycle_type_mod_p(f, p) for p in good)
    assert report.histogram == dict(sorted(roots.items()))
    assert report.cycle_type_histogram == dict(sorted(types.items()))


def test_reports_identical_across_worker_counts():
    rng = PrimeRange(2, 600_000)  # spans several blocks
    # (x^2+1)(x^2+2)(x^2-2)(x^2+3)(x^2-5) has degree 10: the primes of a
    # block pass through more than one lane chunk
    tenth = IntPoly((60, 0, 68, 0, -11, 0, -21, 0, -1, 0, 1))
    block = sum(1 for _ in primes_in(2, scanner_mod.BLOCK_SPAN))
    assert block > modular_mod._CHUNK_ENTRIES // tenth.degree
    for f in (IntPoly((1, 0, 1)), tenth):
        reports = [scan(f, rng, workers=w) for w in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]


def test_bad_primes_of_a_huge_discriminant():
    # 2 * disc = -8 * 3**45 * 5 * 7 is far beyond int64
    c = 3**45 * 5 * 7
    report = scan(IntPoly((c, 0, 1)), PrimeRange(2, 3000), workers=1)
    assert report.excluded_primes == (2, 3, 5, 7)
    good = list(primes_in(11, 3000))
    assert report.good_prime_count == len(good)
    assert report.histogram == {
        0: sum(1 for p in good if pow(-c % p, (p - 1) // 2, p) == p - 1),
        2: sum(1 for p in good if pow(-c % p, (p - 1) // 2, p) == 1),
    }


def test_empty_range_report():
    report = scan(IntPoly((1, 0, 1)), PrimeRange(24, 28))
    assert report.histogram == {}
    assert report.min_roots_observed is None
    assert report.empirical_density_with_root is None
    assert report.good_prime_count == 0


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    with pytest.raises(ValueError):
        resolve_workers(0)
    monkeypatch.setenv("INTERSECTIVE_THREADS", "5")
    assert resolve_workers() == 5
    monkeypatch.setenv("INTERSECTIVE_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_workers()
    monkeypatch.setenv("INTERSECTIVE_THREADS", "abc")
    with pytest.raises(ValueError, match="INTERSECTIVE_THREADS must be a "
                       "positive integer, got 'abc'"):
        resolve_workers()
    monkeypatch.delenv("INTERSECTIVE_THREADS")
    assert resolve_workers() >= 1


def test_check_real_roots_empirical():
    check = check_real_roots(IntPoly((-2, 0, 1)), PrimeRange(2, 1000))
    assert check.mode == "empirical"
    assert check.exact_min_roots is None
    assert check.real_root_count == 2
    assert check.min_roots_observed == 0
    assert check.verdict == "consistent"
    # a tiny sample can show a positive minimum without a real root
    check = check_real_roots(IntPoly((1, 0, 1)), PrimeRange(5, 6))
    assert check.min_roots_observed == 2
    assert check.real_root_count == 0
    assert check.verdict == "inconsistent"


def test_check_real_roots_forms_exact():
    check, report, dist = check_real_roots_forms(TRIPLE_FORMS, PrimeRange(2, 2000))
    assert check.mode == "exact"
    assert check.exact_min_roots == 2
    assert check.real_root_count == 2
    assert check.min_roots_observed == 2
    assert check.verdict == "consistent"
    assert report.min_roots_observed == 2
    assert dist.min_roots == 2
    check, _, dist = check_real_roots_forms([QuadForm(1, 0, 1)], PrimeRange(2, 2000))
    assert dist.min_roots == 0
    assert check.real_root_count == 0
    assert check.verdict == "consistent"


def test_compare_densities_triple():
    _, report, dist = check_real_roots_forms(TRIPLE_FORMS, PrimeRange(2, 10**5))
    comparison = density_comparison(dist, report)
    assert dist.densities == {2: Fraction(3, 4), 6: Fraction(1, 4)}
    by_count = {row.root_count: row for row in comparison.rows}
    assert set(by_count) == {2, 6}
    assert by_count[2].exact == Fraction(3, 4)
    assert by_count[6].exact == Fraction(1, 4)
    total = sum(row.empirical for row in comparison.rows)
    assert total == 1
    assert comparison.max_abs_deviation < Fraction(1, 100)
    for row in comparison.rows:
        assert row.abs_deviation == abs(row.exact - row.empirical)
        assert row.empirical == Fraction(
            report.histogram.get(row.root_count, 0), report.good_prime_count
        )
