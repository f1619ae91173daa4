"""Prime-range scans of root counts, with exact predictions to compare against.

A scan fixes the squarefree part f* of the input, excludes the finitely
many primes dividing 2 * lc(f*) * disc(f*), and counts distinct roots of
f* at every remaining prime in the range.  Work is split into fixed
absolute blocks merged in block order, so reports are identical for any
worker count.

A scan of several blocks on several workers forks one worker process
per worker: worker i of w runs blocks i, i + w, i + 2w, ... and pipes
its partial results back.  Where os.fork is missing, or the calling
process already runs other Python threads, the blocks run in-process,
as on one worker.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .intpoly import IntPoly, discriminant, squarefree_part
from .modular import _batch_powmod, _residues, census_block, count_roots_block
from .parse import (
    DEFAULT_SCAN_CAP,  # re-exported
    HARD_SCAN_CAP,
    InvariantViolation,
)
from .primes import PrimeRange, iter_prime_arrays
from .quadcover import (
    QuadForm,
    RootDistribution,
    exact_root_distribution,
    product_polynomial,
)

BLOCK_SPAN = 1 << 18

THREADS_ENV_VAR = "INTERSECTIVE_THREADS"


class ScanReport(NamedTuple):
    polynomial: IntPoly
    range: PrimeRange
    excluded_primes: tuple[int, ...]
    histogram: dict[int, int]
    min_roots_observed: int | None
    cycle_type_histogram: dict[tuple[int, ...], int] | None
    empirical_density_with_root: Fraction | None

    @property
    def good_prime_count(self) -> int:
        return sum(self.histogram.values())


def resolve_workers(workers: int | None = None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        return workers
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            w = int(env)
        except ValueError:
            w = 0
        if w < 1:
            raise ValueError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}"
            )
        return w
    # a forked worker costs private memory: count the CPUs this process
    # may run on, not the host's
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(8, cpus)


def _scan_block(
    fstar: IntPoly,
    disc: int,
    lo: int,
    hi: int,
    with_cycle_types: bool,
) -> tuple[Counter, Counter | None, list[int]]:
    """Root-count histogram, cycle types and excluded primes of one block;
    disc is disc(f*).

    Each census is checked at every prime: the parts sum to deg f*, no
    count is negative, and Stickelberger's parity (disc f* | p) =
    (-1)^(deg f* - number of parts) holds, by one batched Euler criterion
    that shares nothing with the Frobenius powering.  The census kernel
    itself refuses distinct-degree counts that fit no factorization
    (modular._cycle_types), and its 1-parts are the root counts.
    """
    bad = 2 * abs(fstar.lc) * abs(disc)
    hist: Counter = Counter()
    cyc: Counter | None = Counter() if with_cycle_types else None
    excluded: list[int] = []
    degree = fstar.degree
    for parr in iter_prime_arrays(lo, hi):
        good_mask = _residues(bad, parr) != 0
        if not good_mask.all():
            excluded.extend(parr[~good_mask].tolist())
            parr = parr[good_mask]
        if parr.size == 0:
            continue
        if cyc is None:
            counts = count_roots_block(fstar, parr)
        else:
            types = census_block(fstar, parr)
            counts = types[:, 0]
            wrong = (types @ np.arange(1, degree + 1) != degree) | (types < 0).any(axis=1)
            if wrong.any():
                i = int(np.flatnonzero(wrong)[0])
                raise InvariantViolation(
                    f"cycle type {_parts(types[i].tolist())} of {fstar} at "
                    f"p={int(parr[i])} fits no factorization of degree {degree}"
                )
            # (disc | p) = 1 exactly when d - r is even
            square = _batch_powmod(_residues(disc, parr), parr >> 1, parr) == 1
            odd = (degree - types.sum(axis=1)) % 2 == 1
            wrong = square == odd
            if wrong.any():
                i = int(np.flatnonzero(wrong)[0])
                raise InvariantViolation(
                    f"cycle type {_parts(types[i].tolist())} of {fstar} at "
                    f"p={int(parr[i])} breaks Stickelberger's parity: "
                    f"(disc | p) = {1 if square[i] else -1}"
                )
            for row, v in Counter(map(tuple, types.tolist())).items():
                cyc[_parts(row)] += v
        tally = np.bincount(counts, minlength=degree + 1)
        for k in np.flatnonzero(tally).tolist():
            hist[k] += int(tally[k])
    return hist, cyc, excluded


def _parts(counts) -> tuple[int, ...]:
    """Sorted factor degrees from counts per degree (entry m - 1 for m)."""
    return tuple(m for m, c in enumerate(counts, 1) for _ in range(c))


def _run_forked(run, blocks: list[tuple[int, int]], nworkers: int) -> list:
    """[run(lo, hi) for lo, hi in blocks], computed by nworkers forked
    children; child i runs blocks i, i + nworkers, ...

    Every child is reaped before this returns or raises.  The first
    failure in block order is raised: a block's exception, with its type
    and message, or an error naming the blocks of a child that exited
    without a result, which counts at its first block.
    """
    parent = os.getpid()
    children: dict = {}  # worker -> (pid, read end of its pipe)
    try:
        for i in range(nworkers):
            rfd, wfd = os.pipe()
            pipe = open(rfd, "rb")
            try:
                pid = os.fork()
            except OSError:
                pipe.close()
                os.close(wfd)
                raise
            if pid == 0:
                _worker(run, blocks, i, nworkers, wfd, parent)
            children[i] = (pid, pipe)
            os.close(wfd)
        outcomes = []
        for i in range(nworkers):
            pid, pipe = children[i]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[i]
            outcomes.append(pickle.loads(data) if status == 0 else status)
    finally:
        # children are left here only when the parent itself failed
        if children:
            import signal

            for pid, pipe in children.values():
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:  # reaped already
                    pass

    failures = []
    partials: list = [None] * len(blocks)
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, int):
            spans = ", ".join(f"[{lo}, {hi}]" for lo, hi in blocks[i::nworkers])
            code = os.waitstatus_to_exitcode(outcome)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            failures.append((i, RuntimeError(
                f"scan worker {i} of {nworkers} (blocks {spans}) exited "
                f"without a result: {how}")))
        elif outcome[0] is not None:
            failures.append(outcome)
        else:
            partials[i::nworkers] = outcome[1]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return partials


def _worker(run, blocks, first: int, step: int, wfd: int, parent: int):
    """Body of forked worker `first`: pickle (None, its partials), or the
    index and exception of its first failing block, into wfd.

    It ignores SIGINT (the parent kills it on an interrupt) and leaves by
    os._exit, so it never returns into the parent's frames and never
    flushes the stdio buffers it copied from the parent.  Orphaned (the
    parent was killed outright), it stops before its next block.
    """
    code = 1
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        index = first
        try:
            partials = []
            for index in range(first, len(blocks), step):
                if os.getppid() != parent:
                    os._exit(1)
                partials.append(run(*blocks[index]))
            outcome = (None, partials)
        except BaseException as exc:
            outcome = (index, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:
            data = pickle.dumps((index, RuntimeError(
                f"scan worker {first} could not send {outcome[1]!r}: {exc!r}")))
        view = memoryview(data)
        while view:
            view = view[os.write(wfd, view):]
        code = 0
    finally:
        os._exit(code)


def scan(
    f: IntPoly,
    rng: PrimeRange,
    with_cycle_types: bool = False,
    workers: int | None = None,
) -> ScanReport:
    """Histogram of distinct-root counts of f over the primes in rng.

    Primes dividing 2 * lc(f*) * disc(f*) are listed separately and kept
    out of the histogram.  With with_cycle_types, every good prime also
    gets its cycle type, checked there (see _scan_block).
    """
    if f.is_zero:
        raise ValueError("cannot scan the zero polynomial")
    if f.degree < 1:
        raise ValueError("scan requires degree at least 1")
    if rng.hi > HARD_SCAN_CAP:
        raise ValueError(f"scan range end {rng.hi} exceeds the cap {HARD_SCAN_CAP}")
    fstar = squarefree_part(f)
    disc = discriminant(fstar)

    blocks = []
    start = (rng.lo // BLOCK_SPAN) * BLOCK_SPAN
    while start <= rng.hi:
        blocks.append((max(rng.lo, start), min(rng.hi, start + BLOCK_SPAN - 1)))
        start += BLOCK_SPAN

    nworkers = min(resolve_workers(workers), len(blocks))

    def run(lo: int, hi: int) -> tuple[Counter, Counter | None, list[int]]:
        return _scan_block(fstar, disc, lo, hi, with_cycle_types)

    # a child forked beside other threads can deadlock on a lock one of
    # them held at the fork
    if nworkers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        partials = [run(lo, hi) for lo, hi in blocks]
    else:
        partials = _run_forked(run, blocks, nworkers)

    hist: Counter = Counter()
    cyc: Counter | None = Counter() if with_cycle_types else None
    excluded: list[int] = []
    for bh, bc, bex in partials:  # merge in block order
        hist.update(bh)
        if cyc is not None and bc is not None:
            cyc.update(bc)
        excluded.extend(bex)
    good = sum(hist.values())
    return ScanReport(
        polynomial=f,
        range=rng,
        excluded_primes=tuple(excluded),
        histogram=dict(sorted(hist.items())),
        min_roots_observed=min(hist) if hist else None,
        cycle_type_histogram=(
            dict(sorted(cyc.items())) if cyc is not None else None
        ),
        empirical_density_with_root=(
            Fraction(good - hist[0], good) if good else None
        ),
    )


class RealRootCheck(NamedTuple):
    """Observed minimum root count mod p against the real-root count.

    In exact mode (products of quadratic forms) the minimum over all
    Frobenius classes is computed exactly and the real-root count must
    reach it.  In empirical mode the scan minimum is only evidence: a
    positive minimum over a finite range does not prove one for all
    primes, so the verdict is labeled accordingly.
    """

    min_roots_observed: int | None
    real_root_count: int
    exact_min_roots: int | None
    verdict: str
    mode: str


def check_real_roots(
    f: IntPoly, rng: PrimeRange, workers: int | None = None
) -> RealRootCheck:
    """Empirical check: if every scanned good prime sees a root, expect a real root."""
    # imported here, as in check_real_roots_forms: a scan never loads sturm
    from .sturm import count_real_roots

    report = scan(f, rng, workers=workers)
    real = count_real_roots(f)
    observed = report.min_roots_observed
    if observed is None or observed == 0:
        verdict = "consistent"
    else:
        verdict = "consistent" if real >= 1 else "inconsistent"
    return RealRootCheck(observed, real, None, verdict, "empirical")


def check_real_roots_forms(
    forms: list[QuadForm], rng: PrimeRange, workers: int | None = None
) -> tuple[RealRootCheck, ScanReport, RootDistribution]:
    """Exact check for products of quadratic forms.

    The minimum root count over Frobenius classes is exact, and the
    product polynomial must have at least that many distinct real roots.
    """
    from .sturm import count_real_roots

    dist = exact_root_distribution(forms)
    f = product_polynomial(forms)
    report = scan(f, rng, workers=workers)
    real = count_real_roots(f)
    verdict = "consistent" if real >= dist.min_roots else "inconsistent"
    check = RealRootCheck(
        report.min_roots_observed, real, dist.min_roots, verdict, "exact"
    )
    return check, report, dist


class DensityRow(NamedTuple):
    root_count: int
    exact: Fraction
    empirical: Fraction
    abs_deviation: Fraction


class DensityComparison(NamedTuple):
    rows: list[DensityRow]
    max_abs_deviation: Fraction


def density_comparison(dist: RootDistribution, report: ScanReport) -> DensityComparison:
    """Exact Frobenius-class densities next to the frequencies of a scan."""
    good = report.good_prime_count
    keys = sorted(set(dist.densities) | set(report.histogram))
    rows = []
    worst = Fraction(0)
    for k in keys:
        exact = dist.densities.get(k, Fraction(0))
        empirical = Fraction(report.histogram.get(k, 0), good) if good else Fraction(0)
        dev = abs(exact - empirical)
        worst = max(worst, dev)
        rows.append(DensityRow(k, exact, empirical, dev))
    return DensityComparison(rows, worst)
