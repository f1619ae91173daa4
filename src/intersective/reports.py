"""Deterministic JSON / TSV / text rendering of analysis results.

JSON output is canonical: keys sorted, compact separators, schema tag
"v2", exact rationals carried as num/den plus a fixed 6-place decimal.
Identical inputs therefore serialize to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .intpoly import IntPoly, to_text
from .quadcover import (
    CoverVerdict,
    Covers,
    FailsToCover,
    QuadForm,
    RootDistribution,
)

if TYPE_CHECKING:  # the scanner loads numpy; sturm loads only to count real roots
    from .scanner import DensityComparison, RealRootCheck, ScanReport
    from .sturm import Interval

SCHEMA = "v2"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def decimal6(value: Fraction) -> str:
    """Fixed 6-place decimal string, round half up, exact arithmetic."""
    n, d = value.numerator, value.denominator
    neg = n < 0
    if neg:
        n = -n
    scaled = (2 * n * 10**6 + d) // (2 * d)
    whole, frac = divmod(scaled, 10**6)
    return f"{'-' if neg else ''}{whole}.{frac:06d}"


def fraction_json(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": decimal6(value),
    }


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cycle_key(ct: tuple[int, ...]) -> str:
    return ",".join(str(part) for part in ct)


def scan_report_json(report: ScanReport) -> dict:
    return {
        "schema": SCHEMA,
        "polynomial": list(report.polynomial.coeffs),
        "range": {"lo": report.range.lo, "hi": report.range.hi},
        "excluded_primes": list(report.excluded_primes),
        "histogram": {str(k): v for k, v in report.histogram.items()},
        "min_roots_observed": report.min_roots_observed,
        "cycle_type_histogram": (
            None
            if report.cycle_type_histogram is None
            else {cycle_key(ct): v for ct, v in report.cycle_type_histogram.items()}
        ),
        "empirical_density_with_root": (
            None
            if report.empirical_density_with_root is None
            else fraction_json(report.empirical_density_with_root)
        ),
        "good_prime_count": report.good_prime_count,
    }


def scan_report_tsv(report: ScanReport) -> str:
    lines = ["root_count\tprimes"]
    for k, v in sorted(report.histogram.items()):
        lines.append(f"{k}\t{v}")
    return "\n".join(lines)


def scan_report_text(report: ScanReport) -> str:
    lines = [
        f"polynomial: {to_text(report.polynomial)}",
        f"primes: [{report.range.lo}, {report.range.hi}]",
        f"excluded (divide 2*lc*disc): {list(report.excluded_primes)}",
        f"good primes: {report.good_prime_count}",
    ]
    for k, v in sorted(report.histogram.items()):
        lines.append(f"  roots={k}: {v}")
    if report.min_roots_observed is not None:
        lines.append(f"minimum roots observed: {report.min_roots_observed}")
    if report.cycle_type_histogram:
        lines.append("cycle types:")
        for ct, v in sorted(report.cycle_type_histogram.items()):
            lines.append(f"  [{cycle_key(ct)}]: {v}")
    if report.empirical_density_with_root is not None:
        dens = report.empirical_density_with_root
        lines.append(
            f"density with a root: {rational_str(dens)} = {decimal6(dens)}"
        )
    return "\n".join(lines)


def cover_verdict_json(verdict: CoverVerdict, forms: list[QuadForm]) -> dict:
    out = {
        "schema": SCHEMA,
        "forms": [[q.a, q.b, q.c] for q in forms],
    }
    if isinstance(verdict, Covers):
        out.update(
            {
                "verdict": "covers",
                "witness_subset": [i + 1 for i in verdict.witness],
                "density_num": 0,
                "density_log2_den": 0,
                "witness_class": None,
                "example_prime": None,
            }
        )
    else:
        out.update(
            {
                "verdict": "fails_to_cover",
                "witness_subset": None,
                "density_num": verdict.density.numerator,
                "density_log2_den": verdict.rank,
                "witness_class": {
                    str(e): s for e, s in verdict.witness_class.as_dict().items()
                },
                "example_prime": (
                    verdict.example_prime
                    if verdict.example_prime is not None
                    else "none found below bound"
                ),
            }
        )
    return out


def cover_verdict_text(verdict: CoverVerdict, forms: list[QuadForm]) -> str:
    lines = [f"forms: {'; '.join(str(q) for q in forms)}"]
    if isinstance(verdict, Covers):
        subset = ", ".join(str(i + 1) for i in verdict.witness)
        lines.append("verdict: covers all sufficiently large primes")
        lines.append(f"witness subset (1-based): {{{subset}}}")
    else:
        lines.append("verdict: fails to cover")
        lines.append(
            f"uncovered density: 1/2^{verdict.rank}"
            f" = {decimal6(verdict.density)}"
        )
        cls = " ".join(
            f"({e}|p)={s:+d}" for e, s in verdict.witness_class.as_dict().items()
        )
        lines.append(
            f"one assignment realized by a positive density of uncovered primes: {cls}"
        )
        if verdict.example_prime is not None:
            lines.append(f"example uncovered prime: {verdict.example_prime}")
        else:
            lines.append("example uncovered prime: none found below bound")
    return "\n".join(lines)


def intervals_json(f: IntPoly, intervals: list[Interval]) -> dict:
    return {
        "schema": SCHEMA,
        "polynomial": list(f.coeffs),
        "count": len(intervals),
        "intervals": [
            {"lo": rational_str(iv.lo), "hi": rational_str(iv.hi)}
            for iv in intervals
        ],
    }


def intervals_text(f: IntPoly, intervals: list[Interval]) -> str:
    lines = [
        f"polynomial: {to_text(f)}",
        f"distinct real roots: {len(intervals)}",
    ]
    for iv in intervals:
        approx = (iv.lo + iv.hi) / 2
        lines.append(
            f"  ({rational_str(iv.lo)}, {rational_str(iv.hi)})"
            f"  ~ {decimal6(approx)}"
        )
    return "\n".join(lines)


def real_root_check_json(
    check: RealRootCheck, comparison: DensityComparison | None = None
) -> dict:
    return {
        "schema": SCHEMA,
        "mode": check.mode,
        "min_roots_observed": check.min_roots_observed,
        "real_root_count": check.real_root_count,
        "exact_min_roots": check.exact_min_roots,
        "verdict": check.verdict,
        "density_table": None if comparison is None else density_rows_json(comparison),
        "max_abs_deviation": (
            None if comparison is None else decimal6(comparison.max_abs_deviation)
        ),
    }


def real_root_check_text(
    check: RealRootCheck, comparison: DensityComparison | None = None
) -> str:
    lines = [f"mode: {check.mode}"]
    if check.mode == "exact":
        lines.append(f"exact minimum roots over classes: {check.exact_min_roots}")
    lines += [
        f"minimum roots observed: {check.min_roots_observed}",
        f"distinct real roots: {check.real_root_count}",
        f"verdict: {check.verdict}",
    ]
    if comparison is not None:
        lines.append(density_comparison_text(comparison))
    return "\n".join(lines)


def density_rows_json(comparison: DensityComparison) -> list[dict]:
    return [
        {
            "root_count": row.root_count,
            "exact": fraction_json(row.exact),
            "empirical": fraction_json(row.empirical),
            "abs_deviation": decimal6(row.abs_deviation),
        }
        for row in comparison.rows
    ]


def density_comparison_text(comparison: DensityComparison) -> str:
    lines = ["roots  exact        empirical    |dev|"]
    for row in comparison.rows:
        lines.append(
            f"{row.root_count:>5}  {rational_str(row.exact):<11}  "
            f"{decimal6(row.empirical):<11}  {decimal6(row.abs_deviation)}"
        )
    lines.append(f"max deviation: {decimal6(comparison.max_abs_deviation)}")
    return "\n".join(lines)


def distribution_json(dist: RootDistribution) -> dict:
    return {
        "schema": SCHEMA,
        "densities": {str(k): fraction_json(v) for k, v in dist.densities.items()},
        "min_roots": dist.min_roots,
        "rank": dist.rank,
    }


def distribution_text(dist: RootDistribution) -> str:
    lines = [
        f"square-class rank: {dist.rank}",
        f"minimum roots over classes: {dist.min_roots}",
    ]
    for k, v in dist.densities.items():
        lines.append(f"  roots={k}: {rational_str(v)} = {decimal6(v)}")
    return "\n".join(lines)
