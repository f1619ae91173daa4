"""Prime-range scans of root counts, with exact predictions to compare against.

A scan fixes the squarefree part f* of the input, excludes the finitely
many primes dividing 2 * lc(f*) * disc(f*), and counts distinct roots of
f* at every remaining prime in the range.  Work is split into fixed
absolute blocks merged in block order, so reports are identical for any
worker count.  Each block also records the least prime at which each of
its root counts occurs; merged in block order, these name the least
prime of the range with a given count (ScanReport.least_prime_with)
without a second pass.

Before the blocks run, f*'s factors of degree <= 2 over Z are fixed:
the caller's (quadcover.form_factors for forms), or else those that
factor.small_factors splits off.  At a good prime a linear factor has
one root and a quadratic factor of discriminant D two or none as
(D | p) = 1 or -1, by a batched Euler criterion; only the cofactor of
degree >= 3 goes to the Frobenius kernels of `modular`
(_good_prime_counts).  Cycle types combine the same way and are checked
on f* as a whole (_scan_block).  The split is kept as ScanReport.factors.

A census takes each sieve array in slices of about as many primes as a
root-count chunk of deg f* has lanes, rounded down to whole kernel
chunks of the cofactor (_census_slice), and runs everything per slice:
the bad-prime filter, the Euler criteria, census_block, the checks and
the tallies.  So no array of deg f* entries per prime spans more than a
slice.  Root counts keep whole sieve arrays: outside the kernels their
arrays hold one entry per prime.

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
from functools import reduce
from typing import NamedTuple

import numpy as np

from .factor import small_factors
from .intpoly import ONE, IntPoly, discriminant, multiply, squarefree_part
from .modular import (
    _chunk_lanes,
    _nonresidue,
    _residues,
    census_block,
    count_roots_block,
)
from .parse import HARD_SCAN_CAP, InvariantViolation, WorkerLost
from .primes import PrimeRange, iter_prime_arrays
from .quadcover import RootDistribution, SmallFactors, root_distribution

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
    least_prime_with: dict[int, int]  # root count -> least good prime with it
    factors: SmallFactors  # f*'s, given or found; no report prints them

    @property
    def good_prime_count(self) -> int:
        return sum(self.histogram.values())


def resolve_workers() -> int:
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
    split: SmallFactors,
    lo: int,
    hi: int,
    with_cycle_types: bool,
) -> tuple[Counter, Counter, list[int], dict[int, int]]:
    """Root-count histogram, cycle types, excluded primes and the least
    prime with each root count, of one block; disc is disc(f*) and split
    its factors of degree <= 2 (ScanReport.factors).

    Each census is checked at every prime on f* as a whole, whichever
    path gave its parts: the parts sum to deg f*, no count is negative,
    and Stickelberger's parity (disc f* | p) = (-1)^(deg f* - number of
    parts) holds, by one batched Euler criterion on disc f* that shares
    nothing with the Frobenius powering.  The census kernel itself refuses
    distinct-degree counts that fit no factorization (modular._cycle_types).
    """
    bad = 2 * abs(fstar.lc) * abs(disc)
    hist: Counter = Counter()
    cyc: Counter = Counter()
    excluded: list[int] = []
    least: dict[int, int] = {}
    degree = fstar.degree
    step = _census_slice(split.cofactor, degree) if with_cycle_types else 0
    for arr in iter_prime_arrays(lo, hi):
        n = step or arr.size
        for i in range(0, arr.size, n):
            parr = arr[i : i + n]
            good_mask = _residues(bad, parr) != 0
            if not good_mask.all():
                excluded.extend(parr[~good_mask].tolist())
                parr = parr[good_mask]
            if parr.size == 0:
                continue
            counts, types = _good_prime_counts(split, degree, parr, with_cycle_types)
            if types is not None:
                _check_census(fstar, disc, parr, types)
                # one void item per row, so np.unique counts whole rows
                rows = types.view(np.dtype((np.void, types.itemsize * degree)))
                distinct, freq = np.unique(rows.ravel(), return_counts=True)
                decoded = distinct.view(np.int64).reshape(-1, degree).tolist()
                for row, v in zip(decoded, freq.tolist()):
                    cyc[_parts(row)] += v
            tally = np.bincount(counts, minlength=degree + 1)
            for k in np.flatnonzero(tally).tolist():
                hist[k] += int(tally[k])
                if k not in least:  # the primes ascend: the first is the least
                    least[k] = int(parr[np.argmax(counts == k)])
    return hist, cyc, excluded, least


def _census_slice(cofactor: IntPoly, degree: int) -> int:
    """Primes per slice of a census of f* of the given degree: as many as
    a root-count chunk of that degree has lanes, rounded down to whole
    kernel chunks of the cofactor when that leaves at least one, since a
    partial chunk in every slice costs a kernel pass of its own."""
    step = _chunk_lanes(degree, 1)
    c = cofactor.degree
    if c < 2:
        return step
    chunk = _chunk_lanes(c, c // 2)
    return step - step % chunk if step >= chunk else step


def _check_census(
    fstar: IntPoly, disc: int, parr: np.ndarray, types: np.ndarray
) -> None:
    """The census checks of _scan_block on one slice: InvariantViolation
    names the first prime of parr whose row of types fails one."""
    degree = fstar.degree
    wrong = (types @ np.arange(1, degree + 1) != degree) | (types < 0).any(axis=1)
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise InvariantViolation(
            f"cycle type {_parts(types[i].tolist())} of {fstar} at "
            f"p={int(parr[i])} fits no factorization of degree {degree}"
        )
    # (disc | p) = 1 exactly when d - r is even; p does not divide disc
    square = ~_nonresidue(disc, parr)
    odd = (degree - types.sum(axis=1)) % 2 == 1
    wrong = square == odd
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        raise InvariantViolation(
            f"cycle type {_parts(types[i].tolist())} of {fstar} at "
            f"p={int(parr[i])} breaks Stickelberger's parity: "
            f"(disc | p) = {1 if square[i] else -1}"
        )


def _good_prime_counts(
    split: SmallFactors, degree: int, parr: np.ndarray, with_cycle_types: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Root counts of f* = product of split at good primes, and with
    with_cycle_types the counts per factor degree (entry m - 1 for m).

    At a good prime the factors stay coprime and keep their degrees, so
    counts add up over them: a linear factor has 1 root, a quadratic one
    of discriminant D has 2 roots, type (1, 1), or none, type (2), as
    (D | p) = 1 or -1 by Euler's criterion, and the cofactor goes to the
    kernels of `modular`, which count nothing for a constant one (root
    counts then skip them).  Their int64 bound applies to the cofactor
    alone, the only polynomial they power (modular._chunks).
    """
    # inert: the number of quadratic factors with no root at each prime
    discs = [b * b - 4 * a * c for c, b, a in (q.coeffs for q in split.quadratic)]
    inert = sum((_nonresidue(d, parr) for d in discs), np.zeros(parr.size, dtype=np.int64))
    ones = len(split.linear) + 2 * len(split.quadratic) - 2 * inert
    rest = split.cofactor
    if not with_cycle_types:
        return (ones if rest == ONE else count_roots_block(rest, parr) + ones), None
    types = np.zeros((parr.size, degree), dtype=np.int64)
    types[:, : rest.degree] = census_block(rest, parr)
    types[:, 0] += ones
    if split.quadratic:
        types[:, 1] += inert
    return types[:, 0], types


def _parts(counts) -> tuple[int, ...]:
    """Sorted factor degrees from counts per degree (entry m - 1 for m)."""
    return tuple(m for m, c in enumerate(counts, 1) for _ in range(c))


def _run_forked(run, blocks: list[tuple[int, int]], nworkers: int) -> list:
    """[run(lo, hi) for lo, hi in blocks], computed by nworkers forked
    children; child i runs blocks i, i + nworkers, ...

    Every child is reaped before this returns or raises.  The first
    failure in block order is raised: a block's exception, with its type
    and message, or a WorkerLost naming the blocks of a child that exited
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
            failures.append((i, WorkerLost(
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
            data = pickle.dumps((index, WorkerLost(
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
    factors: SmallFactors | None = None,
) -> ScanReport:
    """Histogram of distinct-root counts of f over the primes in rng.

    Primes dividing 2 * lc(f*) * disc(f*) are listed separately and kept
    out of the histogram.  With with_cycle_types, every good prime also
    gets its cycle type, checked there (see _scan_block).  f*'s factors
    are factors, else factor.small_factors(f*); they must multiply to f*.
    """
    if f.is_zero:
        raise ValueError("cannot scan the zero polynomial")
    if f.degree < 1:
        raise ValueError("scan requires degree at least 1")
    if rng.hi > HARD_SCAN_CAP:
        raise ValueError(f"scan range end {rng.hi} exceeds the cap {HARD_SCAN_CAP}")
    fstar = squarefree_part(f)
    disc = discriminant(fstar)
    split = small_factors(fstar) if factors is None else factors  # before any fork
    product = reduce(multiply, (*split.linear, *split.quadratic), split.cofactor)
    if product != fstar:
        raise InvariantViolation(f"the factors of {f} multiply to {product}, not {fstar}")

    blocks = []
    start = (rng.lo // BLOCK_SPAN) * BLOCK_SPAN
    while start <= rng.hi:
        blocks.append((max(rng.lo, start), min(rng.hi, start + BLOCK_SPAN - 1)))
        start += BLOCK_SPAN

    nworkers = min(resolve_workers(), len(blocks))

    def run(lo: int, hi: int) -> tuple[Counter, Counter, list[int], dict]:
        return _scan_block(fstar, disc, split, lo, hi, with_cycle_types)

    # a child forked beside other threads can deadlock on a lock one of
    # them held at the fork
    if nworkers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        partials = [run(lo, hi) for lo, hi in blocks]
    else:
        partials = _run_forked(run, blocks, nworkers)

    hist: Counter = Counter()
    cyc: Counter = Counter()
    excluded: list[int] = []
    least: dict[int, int] = {}
    for bh, bc, bex, bleast in partials:  # merge in block order
        hist.update(bh)
        cyc.update(bc)
        excluded.extend(bex)
        for k, p in bleast.items():
            least.setdefault(k, p)  # blocks ascend: the first is the least
    good = sum(hist.values())
    return ScanReport(
        polynomial=f,
        range=rng,
        excluded_primes=tuple(excluded),
        histogram=dict(sorted(hist.items())),
        min_roots_observed=min(hist) if hist else None,
        cycle_type_histogram=(
            dict(sorted(cyc.items())) if with_cycle_types else None
        ),
        empirical_density_with_root=(
            Fraction(good - hist[0], good) if good else None
        ),
        least_prime_with=dict(sorted(least.items())),
        factors=split,
    )


class RealRootCheck(NamedTuple):
    """Observed minimum root count mod p against the real-root count.

    In exact mode (f* a product of known factors of degree <= 2) the
    minimum over all Frobenius classes is computed exactly and the
    real-root count must reach it.  In empirical mode the scan minimum is
    only evidence: a positive minimum over a finite range does not prove
    one for all primes, so the verdict is labeled accordingly.
    """

    min_roots_observed: int | None
    real_root_count: int
    exact_min_roots: int | None
    verdict: str
    mode: str


def check_real_roots(
    f: IntPoly, rng: PrimeRange, factors: SmallFactors | None = None
) -> tuple[RealRootCheck, ScanReport, RootDistribution | None]:
    """The check of f over rng, its scan (of f*'s factors, see scan), and
    the exact distribution of its root counts when their cofactor is ONE.

    Then the check is exact: the minimum root count over Frobenius classes
    is exact, and f must have at least that many distinct real roots.
    InvariantViolation is raised for a root count of the scan that no class
    gives, naming the least prime of rng with it, and for a real-root count
    other than one per linear factor and two per quadratic factor of
    positive discriminant.  Otherwise the check is empirical: if every
    scanned good prime sees a root, expect a real root.
    """
    # imported here: a scan never loads sturm
    from .sturm import count_real_roots

    report = scan(f, rng, factors=factors)
    split = report.factors
    dist = None if split.cofactor != ONE else root_distribution(split)
    real = count_real_roots(f)
    if dist is not None:
        stray = [k for k in report.histogram if k not in dist.densities]
        if stray:
            raise InvariantViolation(
                f"{f} has {stray[0]} roots mod p={report.least_prime_with[stray[0]]}, "
                f"a count no Frobenius class of the forms gives "
                f"(exact counts {sorted(dist.densities)})"
            )
        split_real = len(split.linear) + 2 * sum(
            b * b - 4 * a * c > 0 for c, b, a in (g.coeffs for g in split.quadratic))
        if real != split_real:
            raise InvariantViolation(
                f"{f} has {real} distinct real roots, but its factors have {split_real}")
    observed = report.min_roots_observed
    exact = None if dist is None else dist.min_roots
    # empirically, a root at every scanned good prime calls for a real root
    need = min(observed or 0, 1) if exact is None else exact
    verdict = "consistent" if real >= need else "inconsistent"
    mode = "empirical" if exact is None else "exact"
    return RealRootCheck(observed, real, exact, verdict, mode), report, dist


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
