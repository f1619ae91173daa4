import os
import signal
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import intersective.modular as modular_mod
import intersective.scanner as scanner_mod
from intersective.intpoly import ONE, IntPoly, discriminant, multiply, squarefree_part
from intersective.primes import PrimeRange, primes_in
from intersective.quadcover import (
    QuadForm,
    SmallFactors,
    exact_root_distribution,
    form_factors,
    product_polynomial,
)
from intersective.scanner import (
    HARD_SCAN_CAP,
    THREADS_ENV_VAR,
    InvariantViolation,
    check_real_roots,
    density_comparison,
    resolve_workers,
    scan,
)
from oracles import count_roots_mod_p, cycle_type_mod_p

TRIPLE_FORMS = [QuadForm(1, 0, 1), QuadForm(1, 0, 2), QuadForm(1, 0, -2)]
TRIPLE_POLY = IntPoly((-4, 0, -4, 0, 1, 0, 1))


def scan_on(monkeypatch, workers, *args, **kwargs):
    """scan(*args, **kwargs) with the worker count set to workers."""
    monkeypatch.setenv(THREADS_ENV_VAR, str(workers))
    return scan(*args, **kwargs)


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
    # type (1, 1, 1) passes the sum and sign checks, but
    # disc(x^3 - 2) = -108 is a nonresidue mod 5, so x^3 - 2 does not split there
    monkeypatch.setattr(scanner_mod, "census_block", lambda f, primes: np.tile(
        [3, 0, 0], (primes.size, 1)))
    with pytest.raises(InvariantViolation, match=r"\(1, 1, 1\) .* at p=5 .*Stickelberger"):
        scan(IntPoly((-2, 0, 0, 1)), PrimeRange(2, 100), with_cycle_types=True)


def test_scan_of_a_25_digit_coefficient_matches_oracles():
    f = IntPoly((10**24 + 7, -3, 0, 1))
    report = scan(f, PrimeRange(2, 5000), with_cycle_types=True)
    bad = 2 * f.lc * discriminant(f)
    good = [p for p in primes_in(2, 5000) if bad % p]
    assert report.excluded_primes == tuple(p for p in primes_in(2, 5000) if bad % p == 0)
    roots = Counter(count_roots_mod_p(f, p) for p in good)
    types = Counter(cycle_type_mod_p(f, p) for p in good)
    assert report.histogram == dict(sorted(roots.items()))
    assert report.cycle_type_histogram == dict(sorted(types.items()))


@pytest.mark.parametrize("f", [
    # a linear factor, Euler's criterion for x^2 - 2, the kernel for x^3 - x - 1
    IntPoly((1, 1)) * IntPoly((-2, 0, 1)) * IntPoly((-1, -1, 0, 1)),
    IntPoly((-1, -1, 0, 0, 0, 1)),  # x^5 - x - 1, all through the kernel
])
def test_least_prime_with_each_count_matches_oracle(monkeypatch, f):
    # blocks of 512 put [2, 5000] in ten blocks, run on one, two and eight
    # workers: the least prime of each count may lie in any of them
    monkeypatch.setattr(scanner_mod, "BLOCK_SPAN", 512)
    bad = 2 * f.lc * discriminant(f)
    least = {}
    for p in primes_in(2, 5000):
        if bad % p:
            least.setdefault(count_roots_mod_p(f, p), p)
    assert len(least) >= 3
    for workers in (1, 2, 8):
        report = scan_on(monkeypatch, workers, f, PrimeRange(2, 5000))
        assert report.least_prime_with == dict(sorted(least.items()))


def test_reports_identical_across_worker_counts(monkeypatch):
    rng = PrimeRange(2, 600_000)  # spans several blocks
    # x^10 - x - 1 is irreducible (Selmer), so its roots come from the
    # kernel, and at degree 10 the primes of a block pass through more
    # than one lane chunk; x^2 + 1 takes Euler's criterion
    tenth = IntPoly((-1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    block = sum(1 for _ in primes_in(2, scanner_mod.BLOCK_SPAN))
    assert block > modular_mod._chunk_lanes(tenth.degree, 1)
    for f in (IntPoly((1, 0, 1)), tenth):
        reports = [scan_on(monkeypatch, w, f, rng) for w in (1, 2, 8)]
        assert reports[0] == reports[1] == reports[2]
    # a census: its cycle-type Counter, keyed by tuples, crosses the pipe
    quintic = IntPoly((-1, -1, 0, 0, 0, 1))
    reports = [scan_on(monkeypatch, w, quintic, rng, with_cycle_types=True)
               for w in (1, 2, 8)]
    assert reports[0] == reports[1] == reports[2]
    assert sum(reports[0].cycle_type_histogram.values()) == reports[0].good_prime_count


# x^9 - x - 1 is irreducible (Selmer), with disc 7 * 11 * 13 * 43 * 79 * 109
NONIC = IntPoly((-1, -1, 0, 0, 0, 0, 0, 0, 0, 1))
# degree 7 with a cubic cofactor, whose kernel chunk is wider than a slice
PRODUCT = multiply(multiply(IntPoly((1, 0, 1)), IntPoly((-2, 0, 1))), IntPoly((-1, -1, 0, 1)))


@pytest.mark.parametrize("f, lo", [
    (NONIC, 79),  # bad primes 79 and 109 in the first and last lane of a slice
    (NONIC, 2),
    (PRODUCT, 2),
])
def test_census_slices_and_kernel_chunks_leave_reports_unchanged(monkeypatch, f, lo):
    # a census takes each sieve array in slices of whole kernel chunks;
    # with small chunks and blocks, every block runs many slices, some
    # partial, and a slice's last kernel chunk is partial where the slice
    # is, so reports must not depend on where slices and chunks end
    rng = PrimeRange(lo, 12_000)
    monkeypatch.setenv(THREADS_ENV_VAR, "1")
    whole = [scan(f, rng), scan(f, rng, with_cycle_types=True)]
    monkeypatch.setattr(modular_mod, "_CHUNK_ENTRIES", 4 * 81)
    monkeypatch.setattr(scanner_mod, "BLOCK_SPAN", 1 << 12)
    rest = whole[0].factors.cofactor
    step = scanner_mod._census_slice(rest, f.degree)
    chunk = modular_mod._chunk_lanes(rest.degree, rest.degree // 2)
    if f is NONIC:
        assert (step, chunk) == (8, 4)  # two kernel chunks per slice
        if lo == 79:
            first = list(primes_in(lo, 200))[:step]
            assert (first[0], first[-1]) == (79, 109)
            assert whole[0].excluded_primes == (79, 109)
    else:
        assert step == 11 < chunk  # one partial kernel chunk per slice
    census, sizes = scanner_mod.census_block, []

    def recorded(rest, primes):
        sizes.append(primes.size)
        return census(rest, primes)
    monkeypatch.setattr(scanner_mod, "census_block", recorded)
    assert scan_on(monkeypatch, 1, f, rng, with_cycle_types=True) == whole[1]
    blocks = -(-rng.hi // scanner_mod.BLOCK_SPAN)
    assert max(sizes) == step and len(sizes) > 20 * blocks
    assert min(sizes) < step and any(n % chunk for n in sizes)
    monkeypatch.setattr(scanner_mod, "census_block", census)
    for w in (1, 2, 8):
        assert scan_on(monkeypatch, w, f, rng) == whole[0]
        assert scan_on(monkeypatch, w, f, rng, with_cycle_types=True) == whole[1]
    assert whole[1].histogram == whole[0].histogram


@pytest.mark.parametrize("f, rng, budget", [
    # x^12 - x - 1 over one block: every array is a slice of about 1,365
    # primes, where whole sieve arrays held 6.06 MiB
    (IntPoly((-1, -1) + (0,) * 10 + (1,)), PrimeRange(2, (1 << 18) - 1), 3 << 20),
    # a cubic to 2 * 10^5 (17,978 primes, one sieve array), which held 4.23 MiB
    (IntPoly((-257, 4, -12, 657)), PrimeRange(2, 200_000), 2 << 20),
])
def test_census_holds_memory_bounded_by_a_slice(monkeypatch, f, rng, budget):
    # tracemalloc sees numpy's allocations
    monkeypatch.setenv(THREADS_ENV_VAR, "1")
    tracemalloc.start()
    try:
        report = scan(f, rng, with_cycle_types=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(report.cycle_type_histogram.values()) == report.good_prime_count
    assert peak < budget, peak / (1 << 20)


SEVERAL_BLOCKS = PrimeRange(2, 600_000)  # blocks [2, B - 1], [B, 2B - 1], [2B, 600000]
# x^3 - x - 1 has no factor of degree <= 2, so its roots come from
# count_roots_block, where the failure tests below inject their faults
IRREDUCIBLE_CUBIC = IntPoly((-1, -1, 0, 1))


def count_forks(monkeypatch):
    """The pids of the children forked from now on, in order."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_middle_block(monkeypatch, action):
    """Make count_roots_block call action() on the primes of the middle
    block, which a scan of SEVERAL_BLOCKS on two workers gives to worker 1."""
    count = scanner_mod.count_roots_block

    def patched(f, primes):
        if scanner_mod.BLOCK_SPAN < primes[0] < 2 * scanner_mod.BLOCK_SPAN:
            action()
        return count(f, primes)

    monkeypatch.setattr(scanner_mod, "count_roots_block", patched)


def test_multi_block_scans_fork_one_child_per_worker(monkeypatch):
    forks = count_forks(monkeypatch)
    f = IntPoly((1, 0, 1))
    ref = scan_on(monkeypatch, 1, f, SEVERAL_BLOCKS)
    assert forks == []
    one_block = PrimeRange(2, 1000)
    assert scan_on(monkeypatch, 2, f, one_block) == scan_on(monkeypatch, 1, f, one_block)
    assert forks == []  # one block
    assert scan_on(monkeypatch, 2, f, SEVERAL_BLOCKS) == ref
    assert len(forks) == 2
    assert scan_on(monkeypatch, 8, f, SEVERAL_BLOCKS) == ref
    assert len(forks) == 2 + 3  # never more children than blocks
    assert_no_child_left()


def test_blocks_run_in_process_beside_other_threads_or_without_fork(monkeypatch):
    forks = count_forks(monkeypatch)
    f = IntPoly((1, 0, 1))
    ref = scan_on(monkeypatch, 1, f, SEVERAL_BLOCKS)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert scan_on(monkeypatch, 2, f, SEVERAL_BLOCKS) == ref
    finally:
        stop.set()
        thread.join()
    assert forks == []
    monkeypatch.delattr(os, "fork")
    assert scan_on(monkeypatch, 2, f, SEVERAL_BLOCKS) == ref


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    # every block from the second on fails: the first failure in block
    # order is raised, with its type and message, on any worker count
    count = scanner_mod.count_roots_block

    def patched(f, primes):
        if primes[0] > scanner_mod.BLOCK_SPAN:
            raise InvariantViolation(f"no roots counted from p={int(primes[0])}")
        return count(f, primes)

    monkeypatch.setattr(scanner_mod, "count_roots_block", patched)
    forks = count_forks(monkeypatch)
    for workers in (1, 2, 8):
        with pytest.raises(InvariantViolation, match="^no roots counted from p=262147$"):
            scan_on(monkeypatch, workers, IRREDUCIBLE_CUBIC, SEVERAL_BLOCKS)
    assert len(forks) == 2 + 3
    assert_no_child_left()


@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(7), "exit status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
])
def test_a_worker_that_dies_is_named_with_its_blocks(monkeypatch, death, how):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "the middle block ran in the test process"
        death()

    fail_in_middle_block(monkeypatch, die)
    with pytest.raises(RuntimeError) as info:
        scan_on(monkeypatch, 2, IRREDUCIBLE_CUBIC, SEVERAL_BLOCKS)
    assert str(info.value) == (
        "scan worker 1 of 2 (blocks [262144, 524287]) exited without a result: " + how)
    assert_no_child_left()


def test_an_orphaned_worker_stops_before_its_next_block(monkeypatch):
    # a parent killed outright cannot reap: its workers see a new parent
    # pid and leave rather than finish their blocks
    monkeypatch.setattr(os, "getppid", lambda: 1)
    with pytest.raises(RuntimeError, match=r"^scan worker 0 of 2 \(blocks \[2, 262143\], "
                       r"\[524288, 600000\]\) exited without a result: exit status 1$"):
        scan_on(monkeypatch, 2, IntPoly((1, 0, 1)), SEVERAL_BLOCKS)
    assert_no_child_left()


def test_an_interrupted_parent_reaps_every_child(monkeypatch):
    loads = scanner_mod.pickle.loads

    def interrupt(data):
        loads(data)
        raise KeyboardInterrupt

    monkeypatch.setattr(scanner_mod.pickle, "loads", interrupt)
    with pytest.raises(KeyboardInterrupt):
        scan_on(monkeypatch, 2, IntPoly((1, 0, 1)), SEVERAL_BLOCKS)
    assert_no_child_left()


def test_a_product_whose_cofactor_fits_int64_is_counted_near_10_8():
    # deg f* = 923 breaks deg * p^2 < 2^63 near 10^8, but Euler's criterion
    # counts x^2 + 1 and only x^921 - 2 reaches the kernel.  Oracle: x^n - a
    # has g = gcd(n, p - 1) roots at p not dividing n * a when
    # a^((p - 1) / g) = 1 mod p, and none otherwise; x^2 + 1 adds 2 roots
    # when p = 1 mod 4.
    f = multiply(IntPoly([1, 0, 1]), IntPoly([-2] + [0] * 920 + [1]))
    primes = list(primes_in(99999900, 10**8))
    assert len(primes) == 5
    for p in primes:
        g = gcd(921, p - 1)
        expected = (g if pow(2, (p - 1) // g, p) == 1 else 0) + 2 * (p % 4 == 1)
        report = scan(f, PrimeRange(p, p))
        assert report.excluded_primes == ()
        assert report.histogram == {expected: 1}, p


def test_bad_primes_of_a_huge_discriminant():
    # 2 * disc = -8 * 3**45 * 5 * 7 is far beyond int64
    c = 3**45 * 5 * 7
    report = scan(IntPoly((c, 0, 1)), PrimeRange(2, 3000))
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


def test_default_workers_count_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("INTERSECTIVE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 17}, raising=False)
    assert resolve_workers() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert resolve_workers() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers() == 1


def test_check_real_roots_empirical():
    # x^3 - 2 has no factor of degree <= 2: its cofactor keeps the check empirical
    cubic = IntPoly((-2, 0, 0, 1))
    check, report, dist = check_real_roots(cubic, PrimeRange(2, 1000))
    assert report.factors.cofactor == cubic
    assert dist is None
    assert check.mode == "empirical"
    assert check.exact_min_roots is None
    assert check.real_root_count == 1
    assert check.min_roots_observed == 0
    assert check.verdict == "consistent"
    # a tiny sample can show a positive minimum without a real root:
    # x^4 + 1, irreducible, has 4 roots mod 17
    check, _, _ = check_real_roots(IntPoly((1, 0, 0, 0, 1)), PrimeRange(17, 17))
    assert check.mode == "empirical"
    assert check.min_roots_observed == 4
    assert check.real_root_count == 0
    assert check.verdict == "inconsistent"


def test_check_real_roots_forms_exact():
    rng = PrimeRange(2, 2000)
    check, report, dist = check_real_roots(TRIPLE_POLY, rng, form_factors(TRIPLE_FORMS))
    assert check.mode == "exact"
    assert check.exact_min_roots == 2
    assert check.real_root_count == 2
    assert check.min_roots_observed == 2
    assert check.verdict == "consistent"
    assert report.min_roots_observed == 2
    assert dist.min_roots == 2
    # the same polynomial without its forms: the scan splits it completely
    assert_same_check(check_real_roots(TRIPLE_POLY, rng), (check, report, dist))
    x2p1 = IntPoly((1, 0, 1))
    check, _, dist = check_real_roots(x2p1, rng, form_factors([QuadForm(1, 0, 1)]))
    assert dist.min_roots == 0
    assert check.real_root_count == 0
    assert check.verdict == "consistent"
    # exact, x^2 + 1 needs no real root, however many roots a tiny sample shows
    check, _, _ = check_real_roots(x2p1, PrimeRange(5, 6))
    assert check == (2, 0, 0, "consistent", "exact")


def assert_same_check(got, expected):
    """Equal checks, distributions and reports but for the reports' factors,
    which the finder and form_factors may list differently (the finder
    keeps a degree-2 f* whole, x^2 - 1 included)."""
    (check, report, dist), (check_e, report_e, dist_e) = got, expected
    assert (check, dist) == (check_e, dist_e)
    assert report._replace(factors=None) == report_e._replace(factors=None)


LINEAR_FORMS = st.builds(
    lambda b, c: QuadForm(0, b, c), st.integers(-6, 6).filter(bool), st.integers(-30, 30)
)
QUADRATIC_FORMS = st.builds(
    QuadForm, st.integers(1, 3), st.integers(-6, 6), st.integers(-30, 30)
)
# (p t + q)(r t + s): a square discriminant, zero when the roots meet
SQUARE_FORMS = st.builds(
    lambda p, q, r, s: QuadForm(p * r, p * s + q * r, q * s),
    st.integers(1, 3), st.integers(-5, 5), st.integers(1, 3), st.integers(-5, 5),
)
CONSTANT_FORMS = st.builds(lambda c: QuadForm(0, 0, c), st.integers(-9, 9).filter(bool))
FORMS = st.one_of(LINEAR_FORMS, QUADRATIC_FORMS, SQUARE_FORMS, CONSTANT_FORMS)


@st.composite
def form_lists(draw):
    """1-6 forms: 1-4 drawn, then up to two nonzero multiples of them."""
    forms = draw(st.lists(FORMS, min_size=1, max_size=4))
    for k in draw(st.lists(st.integers(-3, 3).filter(bool), max_size=2)):
        q = draw(st.sampled_from(forms))
        forms.append(QuadForm(k * q.a, k * q.b, k * q.c))
    return forms


@settings(max_examples=40, deadline=None)
@example(forms=TRIPLE_FORMS)
@example(forms=[QuadForm(0, 0, 3), QuadForm(1, 0, 1), QuadForm(1, 0, -2)])
@example(forms=[QuadForm(1, 0, 1), QuadForm(2, 0, 2), QuadForm(1, 2, 1)])
@given(forms=form_lists())
def test_check_of_a_complete_split_equals_the_check_of_its_forms(forms):
    # form_factors lists f*'s factors, each once; a check given them is
    # exact, and reads as the check of f whenever the finder splits f*
    f = product_polynomial(forms)
    factors = form_factors(forms)
    assert factors.cofactor == ONE
    assert reduce(multiply, factors.linear + factors.quadratic, ONE) == squarefree_part(f)
    if f.degree < 1:
        return
    rng = PrimeRange(2, 3000)
    expected = check_real_roots(f, rng, factors)
    assert expected[0].mode == "exact"
    check, report, dist = check_real_roots(f, rng)
    if report.factors.cofactor != ONE:
        assert (check.mode, check.exact_min_roots, dist) == ("empirical", None, None)
        return
    assert_same_check((check, report, dist), expected)
    _, expected_report, expected_dist = expected
    assert density_comparison(dist, report) == density_comparison(
        expected_dist, expected_report
    )


def test_known_factors_skip_the_finder_and_the_kernel(monkeypatch):
    # the finder leaves 6 of the 20 quadratics x^2 + p in a degree-12
    # cofactor for the kernel; given the forms' factors, Euler's criterion
    # counts every one of them
    forms = [QuadForm(1, 0, p) for p in primes_in(3, 73)]
    f = product_polynomial(forms)
    rng = PrimeRange(2, 20_000)
    assert scan(f, PrimeRange(2, 3)).factors.cofactor.degree == 12
    expected = check_real_roots(f, rng)

    def refuse(*args):
        raise AssertionError("called")
    monkeypatch.setattr(scanner_mod, "small_factors", refuse)
    monkeypatch.setattr(scanner_mod, "count_roots_block", refuse)
    got = check_real_roots(f, rng, form_factors(forms))
    assert got[0][1:] == (0, 0, "consistent", "exact")
    assert got[2] == exact_root_distribution(forms)
    # the kernel's counts of the cofactor are Euler's, and the finder's
    # split leaves that check empirical
    assert got[1]._replace(factors=None) == expected[1]._replace(factors=None)
    assert expected[0].mode == "empirical"
    assert got[1].factors == form_factors(forms)
    assert len(got[1].factors.quadratic) == 20


def test_factors_that_miss_f_star_are_refused():
    # x^2 + 2 left out, and a factor that is not one of f's
    with pytest.raises(InvariantViolation, match="multiply to x\\^4-x\\^2-2, not"):
        scan(TRIPLE_POLY, PrimeRange(2, 100),
             factors=SmallFactors((), form_factors(TRIPLE_FORMS).quadratic[::2], ONE))
    with pytest.raises(InvariantViolation, match="the factors of x\\^2\\+1 multiply"):
        check_real_roots(IntPoly((1, 0, 1)), PrimeRange(2, 100),
                         SmallFactors((), (IntPoly((2, 0, 1)),), ONE))


def test_compare_densities_triple():
    _, report, dist = check_real_roots(
        TRIPLE_POLY, PrimeRange(2, 10**5), form_factors(TRIPLE_FORMS)
    )
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

