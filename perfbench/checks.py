"""Output checks for every benchmark job, independent of the code under test.

Each check takes the parsed JSON output of one job and the job that made
it, and returns a list of problems (empty when the output is right).
Nothing here imports `intersective`: primes come from the benchmark's own
sieve, discriminants of forms and signs of polynomials from exact integer
arithmetic here.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt

# `check` compares exact densities with frequencies over the ~9.6k primes
# below 10**5.  The sampling error of one frequency is below
# sqrt(1/4 / 9592) ~= 0.005, so 0.05 is ten standard errors; a density
# table that is wrong by a whole Frobenius class (the shared-root bug
# shows a deviation of 0.5) exceeds it.
MAX_DENSITY_DEVIATION = Fraction(1, 20)
BRUTE_FORCE_PRIME_MAX = 10**4


def canonical_problems(stdout: str) -> tuple[object, list[str]]:
    """Parse stdout; it must be one canonical JSON document and a newline."""
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" != stdout:
        return obj, ["stdout is not canonical JSON"]
    return obj, []


@lru_cache(maxsize=None)
def count_primes(lo: int, hi: int) -> int:
    """Number of primes in [lo, hi], by a segmented sieve of Eratosthenes."""
    lo = max(lo, 2)
    if hi < lo:
        return 0
    mark = bytearray([1]) * (hi - lo + 1)
    for p in _small_primes(isqrt(hi)):
        start = max(p * p, (lo + p - 1) // p * p)
        mark[start - lo :: p] = bytes(len(range(start - lo, hi - lo + 1, p)))
    return mark.count(1)


def _small_primes(n: int) -> list[int]:
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if mark[i]]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def check_range_report(obj: dict, job) -> list[str]:
    """scan and census: the histogram accounts for every prime of the range,
    and cycle types refine the root counts."""
    out = []
    prime_count = count_primes(job.lo, job.hi)
    degree = len(job.poly) - 1
    if obj.get("polynomial") != list(job.poly):
        out.append("polynomial differs from the input")
    if obj.get("range") != {"lo": job.lo, "hi": job.hi}:
        out.append("range differs from the input")
    hist = {int(k): v for k, v in obj["histogram"].items()}
    excluded = obj["excluded_primes"]
    if sum(hist.values()) + len(excluded) != prime_count:
        out.append(
            f"histogram total {sum(hist.values())} + {len(excluded)} excluded "
            f"!= {prime_count} primes in range"
        )
    if len(set(excluded)) != len(excluded) or not all(
        job.lo <= p <= job.hi and _is_prime(p) for p in excluded
    ):
        out.append("excluded primes are not distinct primes of the range")
    if obj.get("good_prime_count") != sum(hist.values()):
        out.append("good_prime_count differs from the histogram total")
    if any(not 0 <= k <= degree for k in hist):
        out.append("root count outside [0, degree]")
    if hist and obj.get("min_roots_observed") != min(hist):
        out.append("min_roots_observed is not the smallest root count")
    cyc = obj.get("cycle_type_histogram")
    if job.command == "census":
        if cyc is None:
            out.append("census without cycle types")
            return out
        ones: Counter = Counter()
        for key, n in cyc.items():
            parts = [int(x) for x in key.split(",")]
            if sum(parts) != degree:
                out.append(f"cycle type {key} does not sum to degree {degree}")
            ones[parts.count(1)] += n
        if dict(ones) != hist:
            out.append("1-parts of the cycle types differ from the root histogram")
    elif cyc is not None:
        out.append("scan reported cycle types")
    return out


def _disc(form) -> int:
    a, b, c = form
    return b * b - 4 * a * c


def _uncovered_brute(form, p: int) -> bool:
    """No nontrivial zero of a x^2 + b x y + c y^2 mod p."""
    a, b, c = form
    if a % p == 0:
        return False
    return all((a * x * x + b * x + c) % p for x in range(p))


def _uncovered_euler(form, p: int) -> bool:
    """Odd prime p not dividing a: uncovered iff disc is a nonresidue."""
    a = form[0]
    return a % p != 0 and pow(_disc(form) % p, (p - 1) // 2, p) == p - 1


def check_cover(obj: dict, job) -> list[str]:
    out = []
    forms = job.forms
    if obj.get("forms") != [list(q) for q in forms]:
        out.append("forms differ from the input")
    if obj["verdict"] == "covers":
        subset = obj["witness_subset"]
        if len(subset) % 2 != 1 or len(set(subset)) != len(subset):
            out.append(f"witness {subset} is not an odd subset")
        elif not all(1 <= i <= len(forms) for i in subset):
            out.append(f"witness {subset} names a missing form")
        else:
            prod = 1
            for i in subset:
                prod *= _disc(forms[i - 1])
            if prod <= 0 or isqrt(prod) ** 2 != prod:
                out.append("witness discriminant product is not a positive square")
    elif obj["verdict"] == "fails_to_cover":
        if obj.get("density_num") != 1:
            out.append("uncovered density is not 2^-rank")
        p = obj.get("example_prime")
        if isinstance(p, int):
            if not _is_prime(p) or p == 2:
                out.append(f"example prime {p} is not an odd prime")
            else:
                test = _uncovered_brute if p < BRUTE_FORCE_PRIME_MAX else _uncovered_euler
                if not all(test(q, p) for q in forms):
                    out.append(f"example prime {p} is covered by some form")
    else:
        out.append(f"unknown verdict {obj['verdict']!r}")
    return out


def check_density(obj: dict, job) -> list[str]:
    out = []
    rank = obj["rank"]
    dens = {int(k): Fraction(v["num"], v["den"]) for k, v in obj["densities"].items()}
    if sum(dens.values()) != 1:
        out.append("densities do not sum to 1")
    if any((1 << rank) % d.denominator for d in dens.values()):
        out.append(f"a density denominator does not divide 2^{rank}")
    if dens and obj.get("min_roots") != min(k for k, v in dens.items() if v):
        out.append("min_roots is not the smallest root count")
    return out


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign of f(x) by exact homogeneous Horner evaluation."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def check_realroots(obj: dict, job) -> list[str]:
    out = []
    if obj.get("polynomial") != list(job.poly):
        out.append("polynomial differs from the input")
    intervals = [
        (Fraction(iv["lo"]), Fraction(iv["hi"])) for iv in obj["intervals"]
    ]
    if obj.get("count") != len(intervals):
        out.append("count differs from the number of intervals")
    if job.real_roots is not None and len(intervals) != job.real_roots:
        out.append(f"{len(intervals)} intervals, expected {job.real_roots} real roots")
    width = Fraction(1, 2**job.precision)
    for i, (lo, hi) in enumerate(intervals):
        if not lo < hi:
            out.append(f"interval {i} is empty")
        if hi - lo > width:
            out.append(f"interval {i} is wider than 2^-{job.precision}")
        if i and intervals[i - 1][1] > lo:
            out.append(f"intervals {i - 1} and {i} overlap or are unsorted")
        if _sign_at(job.poly, lo) * _sign_at(job.poly, hi) >= 0:
            out.append(f"no sign change across interval {i}")
    return out


def check_forms_check(obj: dict, job) -> list[str]:
    out = []
    table = obj.get("density_table")
    if table is None:
        return ["check over a range reaching 10^5 has no density table"]
    exact = sum(Fraction(r["exact"]["num"], r["exact"]["den"]) for r in table)
    empirical = sum(Fraction(r["empirical"]["num"], r["empirical"]["den"]) for r in table)
    if exact != 1 or empirical != 1:
        out.append("density table columns do not sum to 1")
    if Fraction(obj["max_abs_deviation"]) > MAX_DENSITY_DEVIATION:
        out.append(
            f"max_abs_deviation {obj['max_abs_deviation']} exceeds "
            f"{float(MAX_DENSITY_DEVIATION)}"
        )
    if obj.get("real_root_count") != job.real_roots:
        out.append(f"real_root_count {obj.get('real_root_count')} != {job.real_roots}")
    if obj.get("verdict") != "consistent":
        out.append(f"verdict {obj.get('verdict')!r}")
    return out


def check_job(obj: dict, job) -> list[str]:
    """Every check that applies to the job's subcommand."""
    return {
        "scan": check_range_report,
        "census": check_range_report,
        "cover": check_cover,
        "density": check_density,
        "realroots": check_realroots,
        "check": check_forms_check,
    }[job.command](obj, job)


def content(obj: dict, command: str) -> dict:
    """The mathematical content of an output, compared with the reference.

    Witness subsets and interval endpoints are left out: a valid change
    may pick a different witness or different isolating intervals.
    """
    if command in ("scan", "census"):
        return {
            "histogram": obj["histogram"],
            "cycle_type_histogram": obj["cycle_type_histogram"],
        }
    if command == "cover":
        return {
            "verdict": obj["verdict"],
            "rank": obj["density_log2_den"],
            "density_num": obj["density_num"],
            "example_prime": obj["example_prime"],
        }
    if command == "density":
        return {"densities": obj["densities"], "rank": obj["rank"],
                "min_roots": obj["min_roots"]}
    if command == "realroots":
        return {"count": obj["count"]}
    return {
        key: obj[key]
        for key in ("verdict", "real_root_count", "exact_min_roots",
                    "min_roots_observed", "density_table", "max_abs_deviation")
    }
