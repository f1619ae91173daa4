"""Exact real-root counting and isolation via Sturm chains.

All arithmetic is over Z and Q.  A chain is f*, f*' and the primitive
parts of the subresultant remainder sequence of f* and f*', each signed
to be a positive multiple of the rational chain's negated remainder
(intpoly.subresultant_prs), so every sign evaluation agrees with the
rational chain.  f* is intpoly.squarefree_part(f), formed there and
nowhere else; for a squarefree f the one remainder sequence it runs is
the proof that f* = f, the chain, and in a scan also disc(f*).

Every point isolation evaluates is (L, j), the point B j / 2**L of the
dyadic grid of (-B, B), B = _root_bound(f*); every interval is (L, a, b).
A sign check is integer arithmetic: _value_at(rev, B j, L) is
2**(L deg f) f(B j / 2**L), by Horner's rule on the homogenised form.
Isolation only halves widths, so no other point occurs, whatever the
requested width, and a Fraction is built only for the output.

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
    revs = [g.coeffs[::-1] for g in chain]
    bound = _root_bound(chain[0])
    var_cache: dict[tuple[int, int], int] = {}

    def sign(L: int, j: int, rev: tuple[int, ...] = revs[0]) -> int:
        v = _value_at(rev, bound * j, L)
        return (v > 0) - (v < 0)

    def var(L: int, j: int) -> int:
        # one key per point: the factors of 2 of j move into L
        v = (j & -j).bit_length() - 1 if j else L
        key = (L - v, j >> v)
        if key not in var_cache:
            var_cache[key] = _variations([sign(L, j, rev) for rev in revs])
        return var_cache[key]

    def sliver(L: int, j: int, c: int) -> tuple[int, int, int]:
        """(j - c, j + c) at level L around the root (L, j), moved to
        (L + 1, 2j) until it isolates the root, then halved to min_width.
        Once it isolates the root it does so at every finer level, so the
        halving needs no sign checks."""
        while (
            sign(L, j - c) == 0
            or sign(L, j + c) == 0
            or var(L, j - c) - var(L, j + c) != 1
        ):
            L, j = L + 1, 2 * j
        i = _halvings(Fraction(bound * 2 * c, 1 << L), min_width)
        return L + i, (j << i) - c, (j << i) + c

    found: list[tuple[int, int, int]] = []
    stack = [(0, -1, 1)]
    while stack:
        L, a, b = stack.pop()
        n = var(L, a) - var(L, b)
        if n == 0:
            continue
        if n == 1:
            m = _halvings(Fraction(bound * (b - a), 1 << L), min_width)
            found.append(_refine(revs[0], bound, L, a, b, m, sliver))
            continue
        if sign(L + 1, a + b) != 0:
            stack.append((L + 1, 2 * a, a + b))
            stack.append((L + 1, a + b, 2 * b))
            continue
        # the midpoint is itself a root: carve out a verified sliver around it
        S, lo, hi = sliver(L + 2, 2 * (a + b), b - a)
        found.append((S, lo, hi))
        stack.append((S, a << (S - L), lo))
        stack.append((S, hi, b << (S - L)))
    if len(found) != total:
        raise AssertionError(f"isolated {len(found)} roots, the Sturm count is {total}")
    for L, lo, hi in found:
        if sign(L, lo) * sign(L, hi) >= 0:
            raise AssertionError("an isolating interval has no sign change")
    return sorted(
        Interval(Fraction(bound * lo, 1 << L), Fraction(bound * hi, 1 << L))
        for L, lo, hi in found
    )


def _value_at(rev: tuple[int, ...], x: int, sh: int) -> int:
    """2**(sh*d) * f(x / 2**sh), with rev the d + 1 coefficients of f
    leading first: integer Horner on the homogenised form."""
    acc = 0
    for k, c in enumerate(rev):
        acc = acc * x + (c << sh * k)
    return acc


def _refine(
    rev: tuple[int, ...], B: int, L: int, a: int, b: int, m: int, sliver
) -> tuple[int, int, int]:
    """Shrink the interval (L, a, b) of the grid of (-B, B), which holds
    exactly one simple root of f*, rev its coefficients leading first.

    Level l of the dyadic grid of (a, b) has the points
    (L + l, (a << l) + i (b - a)).  The result is the level-m cell
    holding the root, m the first level no wider than min_width, which
    is where bisection ends; a root on the grid gets bisection's sliver
    instead.  Quadratic interval refinement (Abbott 2014) gets there in
    O(log m) steps: the secant through the current cell's end values
    picks one of its 2**s sub-cells, two exact signs at its ends certify
    it, and s doubles on success and halves on failure (s = 1 is a
    bisection step).
    """
    y = b - a
    d = len(rev) - 1

    def point(level: int, idx: int) -> int:
        return (a << level) + idx * y

    def value(level: int, idx: int) -> int:
        return _value_at(rev, B * point(level, idx), L + level)

    def grid_root(level: int, idx: int) -> tuple[int, int, int]:
        # idx has v factors of 2: bisection meets the root as the midpoint of a
        # cell at level `level` - v - 1 and slivers at a quarter of its width
        v = (idx & -idx).bit_length() - 1
        return sliver(L + level + 1, 2 * point(level, idx), y << v)

    level, k, s = 0, 0, 1  # the cell [k, k + 1] of the grid at `level`
    fa, fb = value(0, 0), value(0, 1)
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
        vj = value(fine, base + j)
        if vj == 0:
            return grid_root(fine, base + j)
        right = (vj > 0) == (fa > 0)  # the root lies right of point j
        i = j + 1 if right else j - 1
        if i == n:
            vi = fb << s * d
        elif i == 0:
            vi = fa << s * d
        else:
            vi = value(fine, base + i)
            if vi == 0:
                return grid_root(fine, base + i)
        if (vi > 0) != (vj > 0):
            level, k, s = fine, base + min(i, j), 2 * s
            fa, fb = (vj, vi) if right else (vi, vj)
        else:
            s = max(s // 2, 1)
    return L + level, point(level, k), point(level, k + 1)
