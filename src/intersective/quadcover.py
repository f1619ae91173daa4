"""Covering analysis for integer binary quadratic forms.

A form q(x, y) = a x^2 + b x y + c y^2 covers a prime p when it has a
nontrivial zero mod p.  For odd p not dividing a this happens exactly when
the discriminant b^2 - 4ac is not a nonresidue mod p, so covering behavior
of a finite set of forms is governed by the square classes of their
discriminants, viewed as F_2 vectors over a shared basis: the sign and
the non-square elements of a coprime base of the |disc_i|, found by gcds
alone.  Those elements have independent quadratic characters, so every
+/-1 assignment on the basis is realized by infinitely many primes, which
turns the covering question into exact F_2 linear algebra.  One greedy
elimination serves both the covering decision and the root-count
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

import numpy as np

from .intpoly import IntPoly, multiply
from .modular import _batch_powmod, jacobi
from .primes import iter_prime_arrays

EXAMPLE_PRIME_BOUND = 10**6

# 2**rank outcomes are enumerated explicitly; refuse beyond this.
MAX_ENUMERATION_RANK = 24
# ... and counted in slices of this many, bounding bincount's int64 copy.
_COUNT_SLICE = 1 << 16


@dataclass(frozen=True)
class QuadForm:
    """Binary quadratic form a x^2 + b x y + c y^2 with integer coefficients."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise ValueError("form must have a nonzero coefficient")

    def __str__(self) -> str:
        parts = []
        for coeff, mono in ((self.a, "x^2"), (self.b, "xy"), (self.c, "y^2")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            term = mono if mag == 1 else f"{mag}{mono}"
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(f"+{term}" if coeff > 0 else f"-{term}")
        return "".join(parts)


def form_discriminant(q: QuadForm) -> int:
    return q.b * q.b - 4 * q.a * q.c


def is_positive_definite(q: QuadForm) -> bool:
    """Strictly positive values on every nonzero real point."""
    return q.a > 0 and form_discriminant(q) < 0


def form_covers_p_exhaustive(q: QuadForm, p: int) -> bool:
    """Nontrivial zero mod p by direct projective enumeration."""
    if q.a % p == 0:
        return True  # the point (1, 0)
    return any((q.a * x * x + q.b * x + q.c) % p == 0 for x in range(p))


def form_covers_p(q: QuadForm, p: int) -> bool:
    """Whether q has a nontrivial zero mod the prime p.

    For odd p with p not dividing a this is the residue test
    jacobi(b^2 - 4ac, p) != -1; the remaining cases fall back to
    exhaustive enumeration.
    """
    if p == 2 or q.a % p == 0:
        return form_covers_p_exhaustive(q, p)
    return jacobi(form_discriminant(q), p) != -1


@dataclass(frozen=True)
class SquareClass:
    """Square class of a form discriminant as an F_2 vector.

    bits has bit j set when basis element j occurs to an odd power in the
    discriminant, with basis[0] = -1 standing for the sign; kernel is the
    product of those basis elements, an integer in the same square class
    (1 for squares and for discriminant 0).
    """

    kernel: int
    bits: int

    @property
    def is_trivial(self) -> bool:
        return self.bits == 0


def _coprime_base(values: list[int]) -> list[int]:
    """Pairwise coprime integers > 1, ascending, of which every value > 1
    is a product of powers: split any two elements by their gcd until
    none share a factor (the naive form of Bernstein's coprime base)."""
    base: list[int] = []
    work = [n for n in values if n > 1]
    while work:
        n = work.pop()
        for i, b in enumerate(base):
            g = gcd(n, b)
            if g > 1:
                del base[i]
                work.extend(m for m in (b // g, g, n // g) if m > 1)
                break
        else:
            base.append(n)
    return sorted(base)


def build_square_classes(
    forms: list[QuadForm],
) -> tuple[list[SquareClass], tuple[int, ...]]:
    """Square classes of the form discriminants over a shared basis.

    The basis is (-1, b_1, b_2, ...): the b_j, ascending, are the elements
    of a coprime base of the |disc_i| that are not perfect squares.  Being
    pairwise coprime non-squares, they and -1 have independent quadratic
    characters, so the span of the classes, and with it every rank and
    density, is the same as over the prime factors; no integer is factored.
    """
    if not forms:
        raise ValueError("at least one form is required")
    discs = [form_discriminant(q) for q in forms]
    basis = (-1,) + tuple(
        b for b in _coprime_base([abs(d) for d in discs]) if isqrt(b) ** 2 != b
    )
    classes = []
    for d in discs:
        kernel, bits, m = (-1, 1, -d) if d < 0 else (1, 0, d)
        for j, b in enumerate(basis[1:], 1):
            odd = False
            while m and m % b == 0:
                m //= b
                odd = not odd
            if odd:
                kernel *= b
                bits |= 1 << j
        classes.append(SquareClass(kernel, bits))
    return classes, basis


@dataclass(frozen=True)
class FrobeniusClass:
    """A +/-1 assignment on the square-class basis.

    Realized by every prime p with jacobi(e, p) = signs[j] for each basis
    element e = basis[j]; quadratic reciprocity supplies infinitely many.
    """

    basis: tuple[int, ...]
    signs: tuple[int, ...]

    def value_on_bits(self, bits: int) -> int:
        v = 1
        j = 0
        while bits:
            if bits & 1:
                v *= self.signs[j]
            bits >>= 1
            j += 1
        return v

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.basis, self.signs))


@dataclass(frozen=True)
class Covers:
    """Every sufficiently large prime is covered; witness indices (0-based)
    name an odd subset whose discriminant product is a perfect square."""

    witness: tuple[int, ...]


@dataclass(frozen=True)
class FailsToCover:
    """Uncovered primes have positive density, exactly 2**-rank."""

    density: Fraction
    rank: int
    witness_class: FrobeniusClass
    example_prime: int | None


CoverVerdict = Union[Covers, FailsToCover]


def _verify_covers_witness(discs: list[int], witness: tuple[int, ...]) -> None:
    if len(witness) % 2 != 1:
        raise AssertionError("covering witness subset must have odd size")
    prod = 1
    for i in witness:
        prod *= discs[i]
    # zero only for a single degenerate form, which has a zero mod every p
    if prod < 0 or isqrt(prod) ** 2 != prod:
        raise AssertionError("covering witness product is not a perfect square")


def _eliminate(
    vectors: list[int],
) -> tuple[dict[int, tuple[int, int]], list[int | None]]:
    """Greedy F_2 elimination of bit vectors in input order.

    Each vector is reduced against the pivots of the vectors before it.
    Returns the pivots, {leading bit: (reduced vector, track)}, and per
    input None if it became a pivot, else its track.  A track is a mask
    over input indices whose vectors XOR to the reduced vector; a
    dependent vector's track, itself included, XORs to zero.
    """
    pivots: dict[int, tuple[int, int]] = {}
    dependent: list[int | None] = []
    for i, v in enumerate(vectors):
        track = 1 << i
        while v:
            col = v.bit_length() - 1
            if col not in pivots:
                pivots[col] = (v, track)
                break
            pv, pt = pivots[col]
            v ^= pv
            track ^= pt
        dependent.append(None if v else track)
    return pivots, dependent


def _residues(d: int, p: np.ndarray) -> np.ndarray:
    """d mod p for each prime p < 2**31, exactly for any integer d:
    Horner over the 30-bit limbs of |d|, every step below 2**62."""
    m = abs(d)
    r = np.zeros_like(p)
    for shift in range(30 * ((m.bit_length() - 1) // 30), -1, -30):
        r = ((r << 30) + ((m >> shift) & 0x3FFFFFFF)) % p
    return (-r) % p if d < 0 else r


def _find_uncovered_prime(discs: list[int], bound: int) -> int | None:
    """Smallest odd prime up to bound where every discriminant is a
    nonresidue; such a prime divides no a_i and no disc_i.

    Euler's criterion d^((p-1)/2) = -1 mod p runs over arrays of primes,
    one discriminant at a time on the primes still in play.  The windows
    of primes grow by 16x, so an early example costs one small window.
    """
    if bound >= 1 << 31:
        raise ValueError("example prime bound must be below 2**31")
    lo, hi = 3, 1 << 10
    while lo <= bound:
        for p in iter_prime_arrays(lo, min(hi, bound)):
            for d in discs:
                if not p.size:
                    break
                p = p[_batch_powmod(_residues(d, p), p >> 1, p) == p - 1]
            if p.size:
                return int(p[0])
        lo, hi = hi + 1, hi << 4
    return None


def decide_cover(
    forms: list[QuadForm], example_prime_bound: int = EXAMPLE_PRIME_BOUND
) -> CoverVerdict:
    """Decide whether the forms jointly cover all sufficiently large primes.

    Covers verdicts carry an odd witness subset whose discriminant
    product is a perfect square, checked here by exact arithmetic.
    FailsToCover verdicts carry the exact uncovered density 2**-rank, one
    character assignment realized by a positive density of uncovered
    primes, and the smallest example prime below the search bound (None
    if the bound is too small).
    """
    classes, basis = build_square_classes(forms)
    discs = [form_discriminant(q) for q in forms]
    for i, cl in enumerate(classes):
        if cl.is_trivial:
            # square (or zero) discriminant: a zero exists mod every prime
            # outside finitely many, including a = 0 degenerations
            witness = (i,)
            _verify_covers_witness(discs, witness)
            return Covers(witness)

    # Solve <u, v_i> = 1 over F_2.  A row's right-hand side is the parity
    # of its track, so a dependent row with an odd track names a covering
    # subset.
    pivots, dependent = _eliminate([cl.bits for cl in classes])
    for track in dependent:
        if track is not None and track.bit_count() % 2:
            witness = tuple(j for j in range(len(classes)) if (track >> j) & 1)
            _verify_covers_witness(discs, witness)
            return Covers(witness)

    rank = len(pivots)
    u = 0
    for col in sorted(pivots):
        bits, track = pivots[col]
        rest = bits & ~(1 << col)
        if (track.bit_count() + (rest & u).bit_count()) % 2:
            u |= 1 << col
    signs = tuple(-1 if (u >> j) & 1 else 1 for j in range(len(basis)))
    witness_class = FrobeniusClass(basis, signs)
    for cl in classes:
        assert witness_class.value_on_bits(cl.bits) == -1
    example = _find_uncovered_prime(discs, example_prime_bound)
    return FailsToCover(Fraction(1, 2**rank), rank, witness_class, example)


@dataclass
class RootDistribution:
    """Exact distribution of per-prime root counts of the product polynomial."""

    densities: dict[int, Fraction]
    min_roots: int
    rank: int


def _primitive(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients (leading first) divided by their content, leading one positive."""
    g = gcd(*coeffs)
    if coeffs[0] < 0:
        g = -g
    return tuple(c // g for c in coeffs)


def exact_root_distribution(forms: list[QuadForm]) -> RootDistribution:
    """Distribution of the number of distinct roots of prod_i (a_i t^2 + b_i t + c_i)
    mod p over the Frobenius classes, each class carrying density 2**-rank.

    Each distinct irreducible factor over Q counts once.  A linear factor
    (from a = 0, or from a square discriminant) has one root at every good
    prime; an irreducible quadratic has 2 roots on half of the classes and
    0 on the other half.
    """
    classes, _basis = build_square_classes(forms)
    linear: set[tuple[int, ...]] = set()
    quadratic: dict[tuple[int, ...], int] = {}
    for q, cl in zip(forms, classes):
        if q.a == 0:
            if q.b != 0:  # constants add nothing
                linear.add(_primitive((q.b, q.c)))
        elif cl.is_trivial:
            s = isqrt(form_discriminant(q))  # roots (-b -+ s) / 2a
            linear.add(_primitive((2 * q.a, q.b + s)))
            linear.add(_primitive((2 * q.a, q.b - s)))
        else:
            quadratic[_primitive((q.a, q.b, q.c))] = cl.bits

    # Coordinates of each class over the pivot vectors (input order).
    _, dependent = _eliminate(list(quadratic.values()))
    position: dict[int, int] = {}
    coords = []
    for i, track in enumerate(dependent):
        if track is None:
            position[i] = len(position)
            coords.append(1 << position[i])
        else:
            coords.append(sum(1 << k for j, k in position.items() if (track >> j) & 1))
    rank = len(position)
    if rank > MAX_ENUMERATION_RANK:
        raise ValueError(f"square-class rank {rank} exceeds {MAX_ENUMERATION_RANK}")

    # odd[psi] counts the classes on which the character psi is -1; the
    # parity of <psi, w> over all psi doubles once per bit of psi.
    odd = np.zeros(1 << rank, dtype=np.min_scalar_type(len(coords)))
    for w in coords:
        par = np.zeros(1, dtype=np.uint8)
        for j in range(rank):
            par = np.concatenate((par, par ^ ((w >> j) & 1)))
        odd += par
    counts = np.zeros(len(coords) + 1, dtype=np.int64)
    for start in range(0, odd.size, _COUNT_SLICE):
        counts += np.bincount(odd[start:start + _COUNT_SLICE], minlength=counts.size)
    total_classes = 1 << rank
    densities = {
        len(linear) + 2 * (len(coords) - k): Fraction(int(cnt), total_classes)
        for k, cnt in reversed(list(enumerate(counts)))
        if cnt
    }
    return RootDistribution(densities, min(densities), rank)


def product_polynomial(forms: list[QuadForm]) -> IntPoly:
    """prod_i (a_i t^2 + b_i t + c_i) as an integer polynomial in t."""
    result = IntPoly((1,))
    for q in forms:
        result = multiply(result, IntPoly((q.c, q.b, q.a)))
    return result
