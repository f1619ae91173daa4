"""Factors of degree at most 2 over Z of a squarefree integer polynomial.

A scan counts the roots of such a factor at a good prime p in O(log p),
by Euler's criterion, and leaves only the cofactor to the Frobenius
kernels of `modular`.  small_factors finds the factors once per
polynomial by Hensel lifting (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 15):

- among the first CANDIDATE_PRIMES odd primes dividing neither lc(f) nor
  disc(f), take the one where f has the most roots, all simple there,
  counted by one batched evaluation of f at every residue of every
  candidate (_best_prime);
- Newton-lift those roots to a modulus p^k above twice a Mignotte bound
  on the coefficients of a factor of degree at most 2;
- try lc(f) (x - r) for each lifted root r, then lc(f) (x - r)(x - s) for
  each pair of the roots left, in symmetric residues, as factors of f by
  exact division in Z[x].

A factor that splits mod p is found.  One that stays irreducible mod p is
left in the cofactor, which is still exact, only slower to scan.  A
cofactor of degree at most 2 is itself a factor.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt
from typing import NamedTuple

import numpy as np

from .intpoly import ONE, IntPoly, canonical, derivative, discriminant, exact_div
from .modular import _residues
from .primes import iter_prime_arrays

CANDIDATE_PRIMES = 64
# the candidates are the first good primes below this bound
_CANDIDATE_BOUND = 1 << 12


class SmallFactors(NamedTuple):
    """f* as its linear factors times its quadratic factors times the
    cofactor, which is ONE or of degree at least 3; each is canonical
    (intpoly.canonical)."""

    linear: tuple[IntPoly, ...]
    quadratic: tuple[IntPoly, ...]
    cofactor: IntPoly


def small_factors(f: IntPoly) -> SmallFactors:
    """The factors of degree <= 2 of f that the root search finds, and
    the cofactor; deterministic in f.

    f must be squarefree and canonical, as intpoly.squarefree_part
    returns it.  Every linear factor is found; a quadratic factor, when it
    splits at the chosen prime or is what is left of degree 2.
    """
    if f.degree <= 2:
        return SmallFactors((f,), (), ONE) if f.degree == 1 else SmallFactors((), (f,), ONE)
    p, roots = _best_prime(f, 2 * f.lc * discriminant(f))
    linear: list[IntPoly] = []
    quadratic: list[IntPoly] = []
    rest = f
    if roots:
        # Mignotte: a factor g of degree m <= 2 has lc(f) / lc(g) * g in Z[x]
        # with coefficients at most binomial(m, i) * ||f||_2 <= bound
        bound = 2 * (isqrt(sum(c * c for c in f.coeffs)) + 1)
        mods = [p]
        while mods[-1] <= 2 * bound:
            mods.append(mods[-1] ** 2)
        df = derivative(f)
        lifted = []
        for r in roots:
            for m in mods[1:]:  # Newton: r is a root mod sqrt(m)
                r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
            lifted.append(r)
        lc, m = f.lc, mods[-1]
        left = []
        for r in lifted:
            found = rest.degree > 2 and _divide_out(rest, (-lc * r, lc), m, bound)
            if found:
                linear.append(found[0])
                rest = found[1]
            else:
                left.append(r)
        used: set[int] = set()
        for i, j in combinations(range(len(left)), 2):
            if rest.degree <= 2:
                break
            if i in used or j in used:
                continue
            r, s = left[i], left[j]
            found = _divide_out(rest, (lc * r * s, -lc * (r + s), lc), m, bound)
            if found:
                quadratic.append(found[0])
                rest = found[1]
                used.update((i, j))
    if rest.degree == 1:
        linear.append(rest)
    elif rest.degree == 2:
        quadratic.append(rest)
    if rest.degree <= 2:
        rest = ONE
    return SmallFactors(tuple(linear), tuple(quadratic), rest)


def _divide_out(
    f: IntPoly, h: tuple[int, ...], m: int, bound: int
) -> tuple[IntPoly, IntPoly] | None:
    """(g, f / g) for g the canonical form of h in symmetric residues mod
    m, when every residue is within bound and g divides f."""
    sym = [c % m for c in h]
    sym = [c - m if 2 * c > m else c for c in sym]
    if any(abs(c) > bound for c in sym):
        return None
    g = canonical(IntPoly(sym))
    # cheap necessary conditions before the division
    if f.lc % g.lc or (g.coeffs[0] and f.coeffs[0] % g.coeffs[0]):
        return None
    try:
        return g, exact_div(f, g)
    except ArithmeticError:
        return None


def _eval_mod(f: IntPoly, x: int, m: int) -> int:
    """f(x) mod m by Horner's rule reduced at every step: intpoly.evaluate
    would carry a number of about deg f times the bits of x."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x + c) % m
    return acc


def _best_prime(f: IntPoly, bad: int) -> tuple[int, list[int]]:
    """The candidate prime with the most roots of f, and those roots.

    The candidates are the first CANDIDATE_PRIMES odd primes below
    _CANDIDATE_BOUND not dividing bad.  f is evaluated at every residue of
    every candidate in one (candidates, largest candidate) array, by
    Horner's rule over its coefficients folded by x^j = x^(1 + (j - 1) mod
    (p - 1)) on F_p, so the evaluation runs over at most min(deg f, p)
    coefficients.  Returns (0, []) when no candidate is left.
    """
    p = next(iter_prime_arrays(3, _CANDIDATE_BOUND))
    p = p[_residues(bad, p) != 0][:CANDIDATE_PRIMES]
    if not p.size:
        return 0, []
    n, width, coeffs = p.size, int(p[-1]), f.coeffs
    res = np.array([_residues(c, p) for c in coeffs])
    j = np.arange(len(coeffs))[:, None]
    row = np.where(j > 0, (j - 1) % (p - 1) + 1, 0)
    rows = int(row.max()) + 1
    folded = np.zeros((rows, n), dtype=np.int64)
    np.add.at(folded, (row, np.arange(n)), res)  # sums of at most deg f + 1 residues
    folded %= p
    # lazy reduction: from below width, `lazy` steps of times x < width plus
    # a residue keep entries below width**(lazy + 1) <= 2**63
    lazy = 63 // width.bit_length() - 1
    x = np.arange(width, dtype=np.int64)
    acc = np.zeros((n, width), dtype=np.int64)
    for k, c in enumerate(folded[::-1], 1):
        acc *= x
        acc += c[:, None]
        if k % lazy == 0:
            np.fmod(acc, p[:, None], out=acc)
    np.fmod(acc, p[:, None], out=acc)
    zero = (acc == 0) & (x < p[:, None])
    best = int(zero.sum(axis=1).argmax())
    return int(p[best]), np.flatnonzero(zero[best]).tolist()
