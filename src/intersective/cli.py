"""Command-line interface.

Subcommands: scan, cover, realroots, census, check, density.  Output is
JSON by default (--format json|text, and tsv for scan and census).  Exit
codes: 0 on success (a fails-to-cover verdict is a success), 1 if stdout
was closed before the output was written (as by `| head`), 2 on usage or
input errors, 3 if an internal cross-check fails, 4 if a scan worker
exited without a result (a signal, an out-of-memory kill).

main() is the in-process entry and returns the exit code.  run() is the
entry of `python -m intersective.cli` and of the `intersective` script:
it calls main(), flushes stdout and stderr, and leaves by os._exit,
skipping the interpreter's teardown once the answer is written.

The scanner and the sieve are imported by the handlers that use them, so
numpy loads only where a prime-array kernel runs: realroots, density and
a covering cover start without it.  Likewise sturm loads only where real
roots are counted, in realroots and check.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, NoReturn

# No kernel does BLAS work (the only matrix products are on int64), yet
# OpenBLAS starts an idle worker thread that spins when numpy loads.  The
# CLI owns its process, so it pins OpenBLAS to one thread before any
# handler can import numpy; an explicit OPENBLAS_NUM_THREADS wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import reports
from .parse import (
    DEFAULT_SCAN_CAP,
    HARD_SCAN_CAP,
    MIN_DENSITY_PRIMES,
    FormParseError,
    InvariantViolation,
    PolyParseError,
    WorkerLost,
    parse_form,
    parse_poly,
    read_forms_file,
)
from .quadcover import (
    QuadForm,
    decide_cover,
    exact_root_distribution,
    product_polynomial,
)

if TYPE_CHECKING:
    from .primes import PrimeRange


class UsageError(ValueError):
    pass


def _add_range_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--from", dest="lo", type=int, default=2, metavar="LO")
    sub.add_argument("--to", dest="hi", type=int, required=True, metavar="HI")
    sub.add_argument("--cap", type=int, default=DEFAULT_SCAN_CAP)


def _add_format_arg(sub: argparse.ArgumentParser, *extra: str) -> None:
    sub.add_argument("--format", choices=("json", *extra, "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intersective",
        description="Root counts of integer polynomials mod p, real-root "
        "certificates, and covering analysis of quadratic forms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_scan = subs.add_parser("scan", help="histogram root counts over a prime range")
    p_scan.add_argument("--poly", required=True)
    _add_range_args(p_scan)
    _add_format_arg(p_scan, "tsv")

    p_cover = subs.add_parser("cover", help="decide covering for quadratic forms")
    p_cover.add_argument("--form", action="append", default=[])
    p_cover.add_argument("--forms-file")
    _add_format_arg(p_cover)

    p_real = subs.add_parser("realroots", help="count and isolate real roots")
    p_real.add_argument("--poly", required=True)
    p_real.add_argument("--precision", type=int, default=20, metavar="K",
                        help="isolating interval width at most 2^-K")
    _add_format_arg(p_real)

    p_census = subs.add_parser("census", help="cycle-type census over a prime range")
    p_census.add_argument("--poly", required=True)
    _add_range_args(p_census)
    _add_format_arg(p_census, "tsv")

    p_check = subs.add_parser(
        "check", help="minimum root count mod p against the real-root count"
    )
    p_check.add_argument("--poly")
    p_check.add_argument("--form", action="append", default=[])
    p_check.add_argument("--forms-file")
    _add_range_args(p_check)
    _add_format_arg(p_check)

    p_density = subs.add_parser(
        "density", help="exact root-count distribution for quadratic forms"
    )
    p_density.add_argument("--form", action="append", default=[])
    p_density.add_argument("--forms-file")
    _add_format_arg(p_density)

    return parser


def _collect_forms(args: argparse.Namespace) -> list[QuadForm]:
    forms = [parse_form(text) for text in args.form]
    if args.forms_file:
        forms.extend(read_forms_file(args.forms_file))
    if not forms:
        raise UsageError("at least one --form or a --forms-file is required")
    return forms


def _make_range(args: argparse.Namespace) -> PrimeRange:
    from .primes import PrimeRange

    cap = min(args.cap, HARD_SCAN_CAP)
    if args.hi > cap:
        raise UsageError(
            f"range end {args.hi} exceeds the cap {cap}; raise --cap "
            f"(hard limit {HARD_SCAN_CAP})"
        )
    try:
        return PrimeRange(args.lo, args.hi)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _nonconstant_poly(text: str):
    f = parse_poly(text)
    if f.is_zero or f.degree < 1:
        raise UsageError(f"polynomial {text!r} must have degree at least 1")
    return f


def _emit(args: argparse.Namespace, json_obj, text: str, tsv: str | None = None) -> None:
    if args.format == "json":
        print(reports.dumps(json_obj))
    elif args.format == "tsv":
        print(tsv)
    else:
        print(text)


def _cmd_scan(args: argparse.Namespace) -> None:
    from .scanner import scan

    f = _nonconstant_poly(args.poly)
    rng = _make_range(args)
    report = scan(f, rng, with_cycle_types=args.command == "census")
    _emit(
        args,
        reports.scan_report_json(report),
        reports.scan_report_text(report),
        reports.scan_report_tsv(report),
    )


def _cmd_cover(args: argparse.Namespace) -> None:
    forms = _collect_forms(args)
    verdict = decide_cover(forms)
    _emit(
        args,
        reports.cover_verdict_json(verdict, forms),
        reports.cover_verdict_text(verdict, forms),
    )


def _cmd_realroots(args: argparse.Namespace) -> None:
    from .sturm import isolate_real_roots

    f = _nonconstant_poly(args.poly)
    if args.precision < 0 or args.precision > 10**4:
        raise UsageError("--precision must be between 0 and 10000")
    intervals = isolate_real_roots(f, Fraction(1, 2**args.precision))
    _emit(
        args,
        reports.intervals_json(f, intervals),
        reports.intervals_text(f, intervals),
    )


def _cmd_check(args: argparse.Namespace) -> None:
    from .scanner import check_real_roots, density_comparison

    has_poly = args.poly is not None
    has_forms = bool(args.form) or bool(args.forms_file)
    if has_poly == has_forms:
        raise UsageError("check needs exactly one of --poly or --form/--forms-file")
    rng = _make_range(args)
    forms = None
    if has_poly:
        f = _nonconstant_poly(args.poly)
    else:
        forms = _collect_forms(args)
        if not any(q.a or q.b for q in forms):
            raise UsageError(
                f"the forms multiply to the constant {prod(q.c for q in forms)}; "
                "check needs a form with a or b nonzero"
            )
        f = product_polynomial(forms)
    check, report, dist = check_real_roots(f, rng, forms)
    comparison = None
    if dist is not None and report.good_prime_count >= MIN_DENSITY_PRIMES:
        comparison = density_comparison(dist, report)
    _emit(
        args,
        reports.real_root_check_json(check, comparison),
        reports.real_root_check_text(check, comparison),
    )


def _cmd_density(args: argparse.Namespace) -> None:
    forms = _collect_forms(args)
    dist = exact_root_distribution(forms)
    _emit(args, reports.distribution_json(dist), reports.distribution_text(dist))


_COMMANDS = {
    "scan": _cmd_scan,
    "cover": _cmd_cover,
    "realroots": _cmd_realroots,
    "census": _cmd_scan,
    "check": _cmd_check,
    "density": _cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    # The CLI owns its process, so it lifts Python's limit of 4300 digits on
    # int-string conversion for long coefficients (early 3.10 lacks one).
    lift = getattr(sys, "set_int_max_str_digits", None)
    if lift is not None:
        lift(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so the flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, PolyParseError, FormParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


def run() -> NoReturn:
    """Exit with main()'s code, without the interpreter's teardown.

    By the time main() returns, its answer is written, every scan worker
    has been reaped, and no thread or atexit handler of the package is
    left, so the flushes below are all that os._exit skips that matters.
    An exception, argparse's SystemExit or an interrupt escaping main()
    takes Python's normal exit, with its traceback or usage message.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
