"""Exact real-root counting and isolation via Sturm chains.

All arithmetic is over Z and Q.  A chain is f*, f*' and the primitive
parts of the subresultant remainder sequence of f* and f*', each signed
to be a positive multiple of the rational chain's negated remainder
(intpoly.subresultant_prs), so every sign evaluation agrees with the
rational chain.  f* is intpoly.squarefree_part(f), formed there and
nowhere else; for a squarefree f the one remainder sequence it runs is
the proof that f* = f, the chain, and in a scan also disc(f*).

Every sign check is integer arithmetic at a dyadic point x = n / 2**e:
_value_at evaluates 2**(e deg f) f(x) by Horner's rule on the homogenised
form.  Isolation starts from the integer bound (-B, B) and only halves
widths, so no other point occurs, whatever the requested width.

Isolating intervals come from bisection with Sturm counts.  Each is then
narrowed by quadratic interval refinement (Abbott, "Quadratic interval
refinement for real roots", 2014; Kerber and Sagraloff, ISSAC 2011): a
secant guess picks a sub-cell of the interval's dyadic grid and two exact
sign checks certify it, so 2^-K takes O(log K) certified steps instead of
K bisections.  The result is exactly the cell bisection would end in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .intpoly import (
    IntPoly,
    derivative,
    negate,
    primitive_part,
    squarefree_part,
    subresultant_prs,
)

DEFAULT_MIN_WIDTH = Fraction(1, 2**20)


class _IntervalFields(NamedTuple):
    lo: Fraction
    hi: Fraction


class Interval(_IntervalFields):
    """Open isolating interval with exact rational endpoints."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> Interval:
        if lo >= hi:
            raise ValueError("interval endpoints must satisfy lo < hi")
        return super().__new__(cls, lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Sturm chain of f* = squarefree_part(f); ends in a nonzero constant.

    It reads the kept sequence of (f*, f*'), run by squarefree_part(f)
    itself when f is squarefree.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no Sturm chain")
    if f.degree < 1:
        raise ValueError("Sturm chain requires degree at least 1")
    fstar = squarefree_part(f)
    seq, signs, _ = subresultant_prs(fstar, derivative(fstar))
    chain = [fstar, derivative(fstar)]
    for s, e in zip(seq[2:], signs[2:]):
        chain.append(primitive_part(s if e > 0 else negate(s)))
    return chain


def _variations(signs: list[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sign_at_infinity(f: IntPoly, positive: bool) -> int:
    s = 1 if f.lc > 0 else -1
    if not positive and f.degree % 2 == 1:
        s = -s
    return s


def _dyadic(x: Fraction) -> tuple[int, int]:
    """(n, e) with x = n / 2**e.  Isolation starts from an integer bound
    and only halves widths, so any other x is a bug; the AssertionError
    is raised, not asserted, so python -O keeps the check."""
    den = x.denominator
    if den & (den - 1):
        raise AssertionError(f"{x} is not a dyadic point")
    return x.numerator, den.bit_length() - 1


def _sign_at(rev: tuple[int, ...], x: Fraction) -> int:
    """Sign of f(x) at a dyadic x, rev the coefficients of f leading first."""
    v = _value_at(rev, *_dyadic(x))
    return (v > 0) - (v < 0)


def _root_count(chain: list[IntPoly]) -> int:
    at_minus = _variations([_sign_at_infinity(g, positive=False) for g in chain])
    at_plus = _variations([_sign_at_infinity(g, positive=True) for g in chain])
    return at_minus - at_plus


def count_real_roots(f: IntPoly) -> int:
    """Number of distinct real roots of f, exactly."""
    return _root_count(sturm_chain(f))


def _root_bound(f: IntPoly) -> int:
    """Integer B with every real root of f strictly inside (-B, B)."""
    lead = abs(f.lc)
    biggest = max(abs(c) for c in f.coeffs[:-1]) if f.degree > 0 else 0
    return 1 + (biggest + lead - 1) // lead


def _halvings(width: Fraction, min_width: Fraction) -> int:
    """Least m >= 0 with width / 2**m <= min_width."""
    ratio = width / min_width
    return (-(-ratio.numerator // ratio.denominator) - 1).bit_length()


def isolate_real_roots(
    f: IntPoly, min_width: Fraction = DEFAULT_MIN_WIDTH
) -> list[Interval]:
    """Disjoint open rational intervals, one around each real root.

    Sturm sequences isolate the roots by bisection of (-B, B); each
    isolating interval is then refined by quadratic interval refinement
    (see _refine) to the cell of width <= min_width that bisection would
    reach, every step certified by exact sign checks.  Each interval
    carries a sign change of the squarefree part across its endpoints.
    """
    if min_width <= 0:
        raise ValueError("min_width must be positive")
    chain = sturm_chain(f)
    total = _root_count(chain)
    if total == 0:
        return []

    revs = [g.coeffs[::-1] for g in chain]
    var_cache: dict[Fraction, int] = {}

    def var(x: Fraction) -> int:
        if x not in var_cache:
            var_cache[x] = _variations([_sign_at(rev, x) for rev in revs])
        return var_cache[x]

    def sign(x: Fraction) -> int:
        return _sign_at(revs[0], x)

    def sliver(mid: Fraction, w: Fraction) -> Interval:
        """(mid - w/2**j, mid + w/2**j) for the least j at which it
        isolates the root mid and is at most min_width wide.  Once it
        isolates mid it does so for every larger j, so the width part
        needs no sign checks."""
        while (
            sign(mid - w) == 0
            or sign(mid + w) == 0
            or var(mid - w) - var(mid + w) != 1
        ):
            w /= 2
        w /= 2 ** _halvings(2 * w, min_width)
        return Interval(mid - w, mid + w)

    bound = Fraction(_root_bound(chain[0]))
    found: list[Interval] = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = var(lo) - var(hi)
        if n == 0:
            continue
        if n == 1:
            found.append(_refine(revs[0], lo, hi, min_width, sliver))
            continue
        mid = (lo + hi) / 2
        if sign(mid) != 0:
            stack.append((lo, mid))
            stack.append((mid, hi))
            continue
        # mid is itself a root: carve out a verified sliver around it
        iv = sliver(mid, (hi - lo) / 4)
        found.append(iv)
        stack.append((lo, iv.lo))
        stack.append((iv.hi, hi))
    found.sort(key=lambda iv: iv.lo)
    if len(found) != total:
        raise AssertionError(f"isolated {len(found)} roots, the Sturm count is {total}")
    for iv in found:
        if sign(iv.lo) * sign(iv.hi) >= 0:
            raise AssertionError("an isolating interval has no sign change")
    return found


def _value_at(rev: tuple[int, ...], x: int, sh: int) -> int:
    """2**(sh*d) * f(x / 2**sh), with rev the d + 1 coefficients of f
    leading first: integer Horner on the homogenised form."""
    acc = 0
    for k, c in enumerate(rev):
        acc = acc * x + (c << sh * k)
    return acc


def _refine(
    rev: tuple[int, ...],
    lo: Fraction,
    hi: Fraction,
    min_width: Fraction,
    sliver,
) -> Interval:
    """Shrink an interval holding exactly one simple root of f*, rev its
    coefficients leading first.

    Level L of the dyadic grid of (lo, hi) has cells of width W / 2**L,
    W = hi - lo.  The result is the level-m cell holding the root, m
    the first level with W / 2**m <= min_width, which is where bisection
    ends; a root on the grid gets bisection's sliver instead.  Quadratic
    interval refinement (Abbott 2014) gets there in O(log m) steps: the
    secant through the current cell's end values picks one of its 2**s
    sub-cells, two exact signs at its ends certify it, and s doubles on
    success and halves on failure (s = 1 is a bisection step).  lo and
    hi are dyadic, so every grid point is an integer over a power of 2.
    """
    m = _halvings(hi - lo, min_width)
    if m == 0:
        return Interval(lo, hi)
    (a, ea), (b, eb) = _dyadic(lo), _dyadic(hi)
    e = max(ea, eb)
    x0 = a << (e - ea)
    y = (b << (e - eb)) - x0
    d = len(rev) - 1

    def point(level: int, idx: int) -> int:
        return (x0 << level) + idx * y

    def grid_root(level: int, idx: int) -> Interval:
        # the root is a point of the grid at level `at` = level - v2(idx);
        # bisection meets it as the midpoint of a cell at level at - 1,
        # and starts the sliver at that cell's width / 4
        at = level - ((idx & -idx).bit_length() - 1)
        mid = Fraction(point(level, idx), 1 << (e + level))
        return sliver(mid, (hi - lo) / 2 ** (at + 1))

    level, k, s = 0, 0, 1  # the cell [k, k + 1] of the grid at `level`
    fa, fb = _value_at(rev, x0, e), _value_at(rev, x0 + y, e)
    while level < m:
        s = min(s, m - level)
        n = 1 << s
        fine = level + s
        base = k << s
        # the secant root, rounded to one of the n - 1 inner points
        num, gap = n * fa, fa - fb
        if gap < 0:
            num, gap = -num, -gap
        j = min(max((2 * num + gap) // (2 * gap), 1), n - 1)
        vj = _value_at(rev, point(fine, base + j), e + fine)
        if vj == 0:
            return grid_root(fine, base + j)
        right = (vj > 0) == (fa > 0)  # the root lies right of point j
        i = j + 1 if right else j - 1
        if i == n:
            vi = fb << s * d
        elif i == 0:
            vi = fa << s * d
        else:
            vi = _value_at(rev, point(fine, base + i), e + fine)
            if vi == 0:
                return grid_root(fine, base + i)
        if (vi > 0) != (vj > 0):
            level, k, s = fine, base + min(i, j), 2 * s
            fa, fb = (vj, vi) if right else (vi, vj)
        else:
            s = max(s // 2, 1)
    return Interval(
        Fraction(point(level, k), 1 << (e + level)),
        Fraction(point(level, k + 1), 1 << (e + level)),
    )
