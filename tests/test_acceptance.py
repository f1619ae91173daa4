"""End-to-end acceptance checks, one per guaranteed behavior.

Each test prints a single PASS/FAIL line with its runtime so the whole
gate can be read at a glance under pytest -s.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from intersective.intpoly import (
    IntPoly,
    discriminant,
    squarefree_part,
)
from intersective.modular import census_block, count_roots_block
from intersective.primes import PrimeRange, primes_in
from intersective.quadcover import (
    Covers,
    FailsToCover,
    QuadForm,
    decide_cover,
    exact_root_distribution,
    form_discriminant,
    is_positive_definite,
    form_factors,
    product_polynomial,
)
from intersective.reports import dumps, scan_report_json
from intersective.scanner import (
    THREADS_ENV_VAR,
    check_real_roots,
    density_comparison,
    scan,
)
from intersective.sturm import count_real_roots
from oracles import (
    count_roots_mod_p,
    form_covers_p_exhaustive,
    jacobi,
    reduce,
    roots_mod_p_bruteforce,
)

TRIPLE_FORMS = [QuadForm(1, 0, 1), QuadForm(1, 0, 2), QuadForm(1, 0, -2)]
TRIPLE_POLY = product_polynomial(TRIPLE_FORMS)
PAIR_FORMS = [QuadForm(1, 0, 1), QuadForm(1, 0, 2)]


class _Gate:
    def __init__(self, label):
        self.label = label
        self.ok = False

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if self.ok and exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({dt:.2f}s)")
        return False

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0


def test_criterion_1_covering_triple_scan():
    with _Gate("criterion 1: triple product has >= 2 roots mod every scanned "
               "prime and exactly 2 real roots") as gate:
        report = scan(TRIPLE_POLY, PrimeRange(3, 10**5))
        assert report.min_roots_observed == 2
        assert count_real_roots(TRIPLE_POLY) == 2
        assert gate.elapsed < 5.0
        gate.ok = True


def test_criterion_2_mixed_sextic_scan():
    with _Gate("criterion 2: (x^2+x+1)(x^3-2) has >= 1 root mod every scanned "
               "prime and exactly 1 real root") as gate:
        f = IntPoly((-2, -2, -2, 1, 1, 1))  # (x^2+x+1)(x^3-2)
        assert f == IntPoly((1, 1, 1)) * IntPoly((-2, 0, 0, 1))
        report = scan(f, PrimeRange(5, 10**5))
        assert report.min_roots_observed == 1
        assert count_real_roots(f) == 1
        assert gate.elapsed < 5.0
        gate.ok = True


def test_criterion_3_covering_verdict_with_verified_witness():
    with _Gate("criterion 3: triple is decided Covers with a verified odd "
               "witness and zero uncovered good primes below 10^6") as gate:
        verdict = decide_cover(TRIPLE_FORMS)
        assert isinstance(verdict, Covers)
        assert len(verdict.witness) % 2 == 1
        prod = math.prod(form_discriminant(TRIPLE_FORMS[i]) for i in verdict.witness)
        root = math.isqrt(prod)
        assert prod > 0 and root * root == prod
        report = scan(TRIPLE_POLY, PrimeRange(2, 10**6))
        assert report.excluded_primes == (2, 3)
        assert 0 not in report.histogram
        assert report.empirical_density_with_root == 1
        gate.ok = True


def test_criterion_4_positive_definite_sets_fail_to_cover():
    with _Gate("criterion 4: 1000 random positive definite sets all fail to "
               "cover, density >= 2^-n, example primes confirmed") as gate:
        rng = random.Random(20260818)
        for _ in range(1000):
            n = rng.randint(1, 6)
            forms = []
            for _ in range(n):
                a = rng.randint(1, 20)
                b = rng.randint(-20, 20)
                cmin = b * b // (4 * a) + 1
                q = QuadForm(a, b, rng.randint(cmin, cmin + 20))
                assert is_positive_definite(q)
                forms.append(q)
            verdict = decide_cover(forms)
            assert isinstance(verdict, FailsToCover)
            assert verdict.density >= Fraction(1, 2**n)
            p = verdict.example_prime
            assert p is not None
            for q in forms:
                assert not form_covers_p_exhaustive(q, p)
        assert gate.elapsed < 60.0
        gate.ok = True


def test_criterion_5_densities_match_chebotarev_predictions():
    with _Gate("criterion 5: scanned root-count frequencies below 10^6 match "
               "the exact distributions within 0.01") as gate:
        _, report, dist = check_real_roots(
            product_polynomial(TRIPLE_FORMS), PrimeRange(2, 10**6),
            form_factors(TRIPLE_FORMS),
        )
        comparison = density_comparison(dist, report)
        assert dist.densities == {2: Fraction(3, 4), 6: Fraction(1, 4)}
        assert comparison.max_abs_deviation < Fraction(1, 100)
        first = gate.elapsed
        assert first < 30.0
        _, report, dist = check_real_roots(
            product_polynomial(PAIR_FORMS), PrimeRange(2, 10**6), form_factors(PAIR_FORMS),
        )
        comparison = density_comparison(dist, report)
        assert dist.densities == {
            0: Fraction(1, 4),
            2: Fraction(1, 2),
            4: Fraction(1, 4),
        }
        assert comparison.max_abs_deviation < Fraction(1, 100)
        assert gate.elapsed - first < 30.0
        gate.ok = True


def test_criterion_6_oracle_equivalence():
    with _Gate("criterion 6: gcd root counting matches brute force, jacobi "
               "matches the Euler criterion, zero mismatches") as gate:
        primes = list(primes_in(2, 200))
        rng = random.Random(60060)
        mismatches = 0
        for _ in range(500):
            deg = rng.randint(1, 6)
            f = IntPoly([rng.randint(-20, 20) for _ in range(deg)] + [
                rng.choice([c for c in range(-20, 21) if c])
            ])
            for p in primes:
                if reduce(f, p).is_zero:
                    continue
                if count_roots_mod_p(f, p) != len(roots_mod_p_bruteforce(f, p)):
                    mismatches += 1
        for p in primes:
            if p == 2:
                continue
            for a in range(-50, 51):
                euler = pow(a % p, (p - 1) // 2, p)
                expected = 0 if euler == 0 else (1 if euler == 1 else -1)
                if jacobi(a, p) != expected:
                    mismatches += 1
        assert mismatches == 0
        gate.ok = True


def test_criterion_7_cycle_types_refine_root_counts():
    with _Gate("criterion 7: cycle-type parts sum to the degree and degree-1 "
               "parts equal the root count at every good prime, and the "
               "oracle's below 10^3") as gate:
        rng = random.Random(70070)
        polys = []
        while len(polys) < 50:
            deg = rng.randint(2, 8)
            f = IntPoly([rng.randint(-30, 30) for _ in range(deg)] + [
                rng.choice([c for c in range(-30, 31) if c])
            ])
            fstar = squarefree_part(f)
            if fstar.degree >= 2:
                polys.append(fstar)
        small = np.array(list(primes_in(2, 10**4)), dtype=np.int64)
        violations = 0
        for fstar in polys:
            bad = 2 * abs(fstar.lc) * abs(discriminant(fstar))
            good = small[[bad % int(p) != 0 for p in small]]
            types = census_block(fstar, good)
            total = types @ np.arange(1, fstar.degree + 1)
            roots = count_roots_block(fstar, good)
            violations += int(((total != fstar.degree) | (types[:, 0] != roots)).sum())
            # both kernels read the same D_1 in other chunks, so the 1-parts
            # also meet the scalar oracle at the good primes below 10^3
            violations += sum(
                int(count) != count_roots_mod_p(fstar, int(p))
                for p, count in zip(good[good < 10**3], types[:, 0])
            )
        assert violations == 0
        gate.ok = True


def test_criterion_8_worker_count_never_changes_output(monkeypatch):
    with _Gate("criterion 8: scans with 1, 2, and 8 workers serialize to "
               "byte-identical reports") as gate:
        def serialized(rng, workers):
            monkeypatch.setenv(THREADS_ENV_VAR, str(workers))
            return dumps(scan_report_json(scan(TRIPLE_POLY, rng)))

        outputs = [serialized(PrimeRange(3, 10**5), w) for w in (1, 2, 8)]
        assert outputs[0] == outputs[1] == outputs[2]
        # also across a range wide enough to split into several blocks
        wide = [serialized(PrimeRange(2, 10**6), w) for w in (1, 2, 8)]
        assert wide[0] == wide[1] == wide[2]
        gate.ok = True
