"""Tests for the benchmark's own logic: span arithmetic, job generation,
and the output checks.  Run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402
import shim  # noqa: E402
from run import Result, failed_jobs  # noqa: E402
from spans import Span, self_times, summarize, union_length  # noqa: E402
from workloads import WORKLOADS, Job, WILKINSON_20, forms_jobs  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4
    assert union_length([(1, 4), (2, 3)]) == 3


def test_self_time_with_overlapping_pool_children():
    # scan [0, 10] on the main thread; two pool threads run blocks that
    # overlap each other; one block has its own child.
    spans = [
        Span(1, None, "scanner.scan", 0.0, 10.0),
        Span(2, 1, "modular.count_roots_block", 1.0, 5.0),
        Span(3, 1, "modular.count_roots_block", 3.0, 8.0),
        Span(4, 3, "modular.reduce", 4.0, 6.0),
        Span(5, 1, "primes.iter_prime_arrays", 7.5, 9.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 8)  # union of [1, 9]
    assert selfs[2] == pytest.approx(4)
    assert selfs[3] == pytest.approx(5 - 2)
    assert selfs[4] == pytest.approx(2)
    assert selfs[5] == pytest.approx(1.5)


def test_children_are_clipped_to_the_parent():
    spans = [Span(1, None, "a.f", 0.0, 2.0), Span(2, 1, "b.g", 1.5, 3.0)]
    assert self_times(spans)[1] == pytest.approx(1.5)


def test_summarize_counts_busy_time_and_counters():
    spans = [
        Span(1, None, "cli.main", 0.0, 10.0),
        Span(2, 1, "scanner.scan", 1.0, 9.0),
        Span(3, 2, "modular.count_roots_block", 2.0, 6.0, {"lanes": 5}),
        Span(4, 2, "modular.count_roots_block", 3.0, 8.0, {"lanes": 7}),
        Span(5, 1, "quadcover.decide_cover", 9.0, 9.5, {"rank_max": 3}),
        Span(6, 1, "quadcover.decide_cover", 9.5, 9.75, {"rank_max": 5}),
    ]
    s = summarize(spans)
    names = s["names"]
    assert s["top_s"] == pytest.approx(10)
    assert names["scanner.scan"]["child_busy_s"] == pytest.approx(9)
    assert names["scanner.scan"]["self_s"] == pytest.approx(8 - 6)
    assert names["modular.count_roots_block"]["counters"] == {"lanes": 12}
    assert names["modular.count_roots_block"]["calls"] == 2
    assert names["quadcover.decide_cover"]["counters"] == {"rank_max": 5}
    assert names["cli.main"]["self_s"] == pytest.approx(10 - 8 - 0.75)


def test_tracer_parents_pool_spans_and_times_each_next():
    tracer = shim.Tracer()

    def numbers(n):
        yield from range(n)

    leaf = tracer.wrap("modular.jacobi", lambda x: x * x)
    gen = tracer.wrap("primes.primes_in", numbers)

    def body():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert tracer.wrap("scanner.scan", body)() == [0, 1, 4, 9]
    assert list(gen(3)) == [0, 1, 2]
    scan_sid = next(s.sid for s in tracer.spans if s.name == "scanner.scan")
    leaves = [s for s in tracer.spans if s.name == "modular.jacobi"]
    assert len(leaves) == 4 and all(s.parent == scan_sid for s in leaves)
    # three values, then the next() that ends the generator
    assert sum(s.name == "primes.primes_in" for s in tracer.spans) == 4


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_lists_are_deterministic(workload):
    make = WORKLOADS[workload]
    assert make(7) == make(7)
    assert [j.key for j in make(7)] != [j.key for j in make(8)]


def test_forms_job_mix():
    jobs = forms_jobs(0)
    commands = [j.command for j in jobs]
    assert commands.count("cover") == commands.count("density") == 8
    assert commands.count("check") == 2
    assert commands.count("realroots") == 6
    assert all(abs(c) < 10**7 for j in jobs if j.forms for q in j.forms for c in q)


def _range_job(command: str, poly=(1, 0, 1), lo=2, hi=100) -> Job:
    return Job(command, (command,), poly=tuple(poly), lo=lo, hi=hi)


def _scan_output(hist, excluded=(2,), cyc=None, poly=(1, 0, 1), lo=2, hi=100):
    return {
        "polynomial": list(poly),
        "range": {"lo": lo, "hi": hi},
        "histogram": {str(k): v for k, v in hist.items()},
        "excluded_primes": list(excluded),
        "good_prime_count": sum(hist.values()),
        "min_roots_observed": min(hist),
        "cycle_type_histogram": cyc,
    }


def test_scan_check_accepts_and_rejects_off_by_one():
    # x^2 + 1 below 100: 25 primes; 2 excluded, 11 split (p = 1 mod 4).
    job = _range_job("scan")
    good = _scan_output({0: 13, 2: 11})
    assert checks.check_job(good, job) == []
    bad = _scan_output({0: 13, 2: 12})
    assert any("histogram total" in p for p in checks.check_job(bad, job))


def test_census_check_rejects_inconsistent_cycle_types():
    job = _range_job("census")
    good = _scan_output({0: 13, 2: 11}, cyc={"2": 13, "1,1": 11})
    assert checks.check_job(good, job) == []
    wrong_sum = _scan_output({0: 13, 2: 11}, cyc={"2": 13, "1,1,1": 11})
    assert any("does not sum" in p for p in checks.check_job(wrong_sum, job))
    wrong_ones = _scan_output({0: 13, 2: 11}, cyc={"2": 12, "1,1": 12})
    assert any("1-parts" in p for p in checks.check_job(wrong_ones, job))


def test_canonical_json_check():
    obj, problems = checks.canonical_problems('{"a":1,"b":[2]}\n')
    assert obj == {"a": 1, "b": [2]} and problems == []
    assert checks.canonical_problems('{"b":1,"a":2}\n')[1]
    assert checks.canonical_problems('{"a": 1}\n')[1]
    assert checks.canonical_problems("not json")[1]


FORMS = ((1, 0, -2), (1, 0, -3), (1, 0, -6))


def _cover_output(verdict, **kw):
    base = {"forms": [list(q) for q in FORMS], "verdict": verdict,
            "witness_subset": None, "density_num": 0, "density_log2_den": 0,
            "example_prime": None}
    base.update(kw)
    return base


def test_cover_check_witness_subsets():
    job = Job("cover", ("cover",), forms=FORMS)
    assert checks.check_job(_cover_output("covers", witness_subset=[1, 2, 3]), job) == []
    even = checks.check_job(_cover_output("covers", witness_subset=[1, 2]), job)
    assert any("odd subset" in p for p in even)
    not_square = checks.check_job(_cover_output("covers", witness_subset=[1]), job)
    assert any("positive square" in p for p in not_square)


def test_cover_check_example_prime():
    # -1 and -2 are non-residues mod 7, so x^2 + y^2 and x^2 + 2y^2 have no
    # nontrivial zero mod 7; mod 5 the first has one (2^2 + 1 = 5).
    forms = ((1, 0, 1), (1, 0, 2))
    job = Job("cover", ("cover",), forms=forms)
    out = {"forms": [list(q) for q in forms], "verdict": "fails_to_cover",
           "density_num": 1, "density_log2_den": 2, "example_prime": 7}
    assert checks.check_job(out, job) == []
    assert checks.check_job(dict(out, example_prime=5), job)
    assert checks.check_job(dict(out, density_num=3), job)


def test_density_check():
    half = {"num": 1, "den": 2}
    good = {"rank": 1, "min_roots": 0, "densities": {"0": half, "2": half}}
    assert checks.check_job(good, Job("density", ("density",))) == []
    short = dict(good, densities={"0": half, "2": {"num": 1, "den": 4}})
    assert checks.check_job(short, Job("density", ("density",)))
    coarse = dict(good, rank=0)
    assert checks.check_job(coarse, Job("density", ("density",)))


def _realroots(poly, intervals, precision):
    job = Job("realroots", ("realroots",), poly=poly, precision=precision,
              real_roots=len(intervals))
    out = {"polynomial": list(poly), "count": len(intervals),
           "intervals": [{"lo": str(lo), "hi": str(hi)} for lo, hi in intervals]}
    return out, job


def test_realroots_check_needs_sign_changes():
    # x^2 - 2: roots near -1.414 and 1.414.
    good, job = _realroots((-2, 0, 1), [(Fraction(-3, 2), Fraction(-11, 8)),
                                        (Fraction(11, 8), Fraction(3, 2))], 3)
    assert checks.check_job(good, job) == []
    no_change, job = _realroots((-2, 0, 1), [(Fraction(-3, 2), Fraction(-11, 8)),
                                             (Fraction(3, 2), Fraction(13, 8))], 3)
    assert any("no sign change" in p for p in checks.check_job(no_change, job))
    wide, job = _realroots((-2, 0, 1), [(Fraction(-2), Fraction(-1)),
                                        (Fraction(1), Fraction(2))], 3)
    assert any("wider" in p for p in checks.check_job(wide, job))


def test_realroots_check_rejects_overlap():
    poly = (0, -1, 0, 1)  # x^3 - x: roots -1, 0, 1
    out, job = _realroots(poly, [(Fraction(-5, 4), Fraction(-3, 4)),
                                 (Fraction(-1, 4), Fraction(1, 4)),
                                 (Fraction(1, 8), Fraction(5, 4))], 0)
    assert any("overlap" in p for p in checks.check_job(out, job))


def test_wilkinson_has_its_twenty_integer_roots():
    assert len(WILKINSON_20) == 21
    assert all(checks._sign_at(WILKINSON_20, Fraction(k)) == 0 for k in range(1, 21))


def test_forms_check_flags_a_large_deviation():
    job = Job("check", ("check",), forms=FORMS, real_roots=6)
    row = lambda k, e, m: {"root_count": k, "exact": {"num": e[0], "den": e[1]},  # noqa: E731
                           "empirical": {"num": m[0], "den": m[1]}}
    out = {"verdict": "consistent", "real_root_count": 6, "max_abs_deviation": "0.010000",
           "density_table": [row(2, (3, 4), (74, 100)), row(6, (1, 4), (26, 100))]}
    assert checks.check_job(out, job) == []
    bad = dict(out, max_abs_deviation="0.500000")
    assert any("max_abs_deviation" in p for p in checks.check_job(bad, job))


def test_count_primes_matches_known_counts():
    assert checks.count_primes(2, 100) == 25
    assert checks.count_primes(2, 10**6) == 78498
    assert checks.count_primes(90, 100) == 1


def test_a_job_failing_in_every_pass_counts_once():
    jobs = forms_jobs(0)[:3]

    def result(job, refused=False, problems=()):
        return Result(job, 0.1, 0.1, 2 if refused else 0, "", "",
                      problems=list(problems), refused=refused)

    passes = [[result(jobs[0]), result(jobs[1], refused=True), result(jobs[2])]
              for _ in range(3)]
    assert failed_jobs(passes) == 1
    assert failed_jobs(passes[:1]) == 1
    passes[2][2] = result(jobs[2], problems=["bad"])
    assert failed_jobs(passes) == 2
