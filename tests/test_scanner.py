import os
import signal
import threading
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
    # a census: its cycle-type Counter, keyed by tuples, crosses the pipe
    quintic = IntPoly((-1, -1, 0, 0, 0, 1))
    reports = [scan(quintic, rng, with_cycle_types=True, workers=w) for w in (1, 2, 8)]
    assert reports[0] == reports[1] == reports[2]
    assert sum(reports[0].cycle_type_histogram.values()) == reports[0].good_prime_count


SEVERAL_BLOCKS = PrimeRange(2, 600_000)  # blocks [2, B - 1], [B, 2B - 1], [2B, 600000]


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
    ref = scan(f, SEVERAL_BLOCKS, workers=1)
    assert forks == []
    assert scan(f, PrimeRange(2, 1000), workers=2) == scan(f, PrimeRange(2, 1000), workers=1)
    assert forks == []  # one block
    assert scan(f, SEVERAL_BLOCKS, workers=2) == ref
    assert len(forks) == 2
    assert scan(f, SEVERAL_BLOCKS, workers=8) == ref
    assert len(forks) == 2 + 3  # never more children than blocks
    assert_no_child_left()


def test_blocks_run_in_process_beside_other_threads_or_without_fork(monkeypatch):
    forks = count_forks(monkeypatch)
    f = IntPoly((1, 0, 1))
    ref = scan(f, SEVERAL_BLOCKS, workers=1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert scan(f, SEVERAL_BLOCKS, workers=2) == ref
    finally:
        stop.set()
        thread.join()
    assert forks == []
    monkeypatch.delattr(os, "fork")
    assert scan(f, SEVERAL_BLOCKS, workers=2) == ref


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
            scan(IntPoly((1, 0, 1)), SEVERAL_BLOCKS, workers=workers)
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
        scan(IntPoly((1, 0, 1)), SEVERAL_BLOCKS, workers=2)
    assert str(info.value) == (
        "scan worker 1 of 2 (blocks [262144, 524287]) exited without a result: " + how)
    assert_no_child_left()


def test_an_orphaned_worker_stops_before_its_next_block(monkeypatch):
    # a parent killed outright cannot reap: its workers see a new parent
    # pid and leave rather than finish their blocks
    monkeypatch.setattr(os, "getppid", lambda: 1)
    with pytest.raises(RuntimeError, match=r"^scan worker 0 of 2 \(blocks \[2, 262143\], "
                       r"\[524288, 600000\]\) exited without a result: exit status 1$"):
        scan(IntPoly((1, 0, 1)), SEVERAL_BLOCKS, workers=2)
    assert_no_child_left()


def test_an_interrupted_parent_reaps_every_child(monkeypatch):
    loads = scanner_mod.pickle.loads

    def interrupt(data):
        loads(data)
        raise KeyboardInterrupt

    monkeypatch.setattr(scanner_mod.pickle, "loads", interrupt)
    with pytest.raises(KeyboardInterrupt):
        scan(IntPoly((1, 0, 1)), SEVERAL_BLOCKS, workers=2)
    assert_no_child_left()


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
