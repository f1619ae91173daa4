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

Everything here is integer code; numpy loads only when a fails-to-cover
verdict searches the primes for an example.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt
from typing import NamedTuple, Union

from .intpoly import ONE, IntPoly, canonical, multiply, signed_terms

EXAMPLE_PRIME_BOUND = 10**6

# Distributions enumerate the 2**k words of the smaller of the class code
# and its dual, k = min(rank, n - rank); refuse beyond this.
MAX_ENUMERATION_RANK = 24
# ... bit-sliced 2**_SLICE_BITS words at a time, one bit per word in each int.
_SLICE_BITS = 16


class _QuadFormFields(NamedTuple):
    a: int
    b: int
    c: int


class QuadForm(_QuadFormFields):
    """Binary quadratic form a x^2 + b x y + c y^2 with integer coefficients."""

    __slots__ = ()

    # validation lives on a subclass: typing.NamedTuple refuses a __new__
    def __new__(cls, a: int, b: int, c: int) -> QuadForm:
        if a == 0 and b == 0 and c == 0:
            raise ValueError("form must have a nonzero coefficient")
        return super().__new__(cls, a, b, c)

    def __str__(self) -> str:
        return signed_terms(((self.a, "x^2"), (self.b, "xy"), (self.c, "y^2")))


def form_discriminant(q: QuadForm) -> int:
    return q.b * q.b - 4 * q.a * q.c


def is_positive_definite(q: QuadForm) -> bool:
    """Strictly positive values on every nonzero real point."""
    return q.a > 0 and form_discriminant(q) < 0


class SquareClass(NamedTuple):
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


class FrobeniusClass(NamedTuple):
    """A +/-1 assignment on the square-class basis.

    Realized by every prime p with (e | p) = signs[j] for each basis
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


class Covers(NamedTuple):
    """Every sufficiently large prime is covered; witness indices (0-based)
    name an odd subset whose discriminant product is a perfect square."""

    witness: tuple[int, ...]


class FailsToCover(NamedTuple):
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
    if not forms:
        raise ValueError("at least one form is required")
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
        if witness_class.value_on_bits(cl.bits) != -1:
            raise AssertionError("witness class makes a discriminant a residue")
    from .modular import _find_uncovered_prime

    example = _find_uncovered_prime(discs, example_prime_bound)
    return FailsToCover(Fraction(1, 2**rank), rank, witness_class, example)


class RootDistribution(NamedTuple):
    """Exact distribution of per-prime root counts of the product polynomial."""

    densities: dict[int, Fraction]
    min_roots: int
    rank: int


class SmallFactors(NamedTuple):
    """f* as its linear factors times its quadratic factors times the
    cofactor, which is ONE or of degree at least 3; each is canonical
    (intpoly.canonical): form_factors or factor.small_factors."""

    linear: tuple[IntPoly, ...]
    quadratic: tuple[IntPoly, ...]
    cofactor: IntPoly


def form_factors(forms: list[QuadForm]) -> SmallFactors:
    """The distinct irreducible factors over Q of prod_i (a_i t^2 + b_i t + c_i),
    in order of first occurrence: a form with a = 0 gives a linear factor
    (a constant none), one of square discriminant two, any other itself."""
    linear, quadratic = [], []
    for q in forms:
        d = form_discriminant(q)
        s = isqrt(max(d, 0))
        if q.a == 0:
            if q.b != 0:  # constants add nothing
                linear.append(IntPoly((q.c, q.b)))
        elif s * s == d:  # roots (-b -+ s) / 2a
            linear += [IntPoly((q.b + s, 2 * q.a)), IntPoly((q.b - s, 2 * q.a))]
        else:
            quadratic.append(IntPoly((q.c, q.b, q.a)))
    distinct = [tuple(dict.fromkeys(map(canonical, g))) for g in (linear, quadratic)]
    return SmallFactors(*distinct, ONE)


def exact_root_distribution(forms: list[QuadForm]) -> RootDistribution:
    """root_distribution of the product of the forms (form_factors)."""
    return root_distribution(form_factors(forms))


def root_distribution(factors: SmallFactors) -> RootDistribution:
    """Distribution of the number of distinct roots mod p of the product of
    factors with cofactor ONE over the Frobenius classes, each of density
    2**-rank: a linear factor has one root at every good prime, and an
    irreducible quadratic 2 on half of the classes and 0 on the other."""
    forms = [QuadForm(*reversed(g.coeffs)) for g in factors.quadratic]
    classes, _basis = build_square_classes(forms)

    # Character psi gives the word (<psi, w_i>)_i of the binary code C of
    # length n, one coordinate per distinct quadratic.  C has dimension
    # rank, a word of weight k means 2 * (n - k) quadratic roots, and the
    # tracks of the dependent classes form a basis of the dual code.
    pivots, dependent = _eliminate([cl.bits for cl in classes])
    n, rank = len(dependent), len(pivots)
    if min(rank, n - rank) > MAX_ENUMERATION_RANK:
        raise ValueError(
            f"square-class rank {rank} of {n} classes: neither the class code "
            f"nor its dual has dimension at most {MAX_ENUMERATION_RANK}"
        )
    if rank <= n - rank:
        # generator columns: coordinates over the pivot classes (input order)
        position: dict[int, int] = {}
        columns = []
        for i, track in enumerate(dependent):
            if track is None:
                position[i] = len(position)
                columns.append(1 << position[i])
            else:
                columns.append(
                    sum(1 << k for j, k in position.items() if (track >> j) & 1)
                )
        weights = _weight_counts(columns, rank)
    else:
        tracks = [t for t in dependent if t is not None]
        columns = [
            sum(((t >> i) & 1) << k for k, t in enumerate(tracks)) for i in range(n)
        ]
        weights = _macwilliams(_weight_counts(columns, n - rank), n - rank)
    total_classes = 1 << rank
    densities = {
        len(factors.linear) + 2 * (n - k): Fraction(cnt, total_classes)
        for k, cnt in reversed(list(enumerate(weights)))
        if cnt
    }
    return RootDistribution(densities, min(densities), rank)


def _weight_counts(columns: list[int], dim: int) -> list[int]:
    """Number of words of each weight 0..n in the binary code of length
    n = len(columns) spanned by the rows of a dim x n generator matrix,
    given by its columns as dim-bit ints.

    Bit-sliced: in a slice of 2**low messages, column i is one 2**low-bit
    int holding coordinate i of every word, and an adder tree sums the
    columns into the binary digits of every word's weight.  A slice fixes
    the high message bits, which complement the columns of odd parity.
    """
    low = min(dim, _SLICE_BITS)
    size = 1 << low
    full = (1 << size) - 1
    units = []  # units[j] has bit x set when bit j of x is set
    for j in range(low):
        unit, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while width < size:
            unit |= unit << width
            width <<= 1
        units.append(unit)
    low_columns = []
    for c in columns:
        col = 0
        for j in range(low):
            if (c >> j) & 1:
                col ^= units[j]
        low_columns.append(col)
    high = [c >> low for c in columns]
    counts = [0] * (len(columns) + 1)
    for h in range(1 << (dim - low)):
        digits = _bit_sum([
            col ^ full if (hc & h).bit_count() & 1 else col
            for col, hc in zip(low_columns, high)
        ])
        # split the slice by the digits, highest first, into sets of equal weight
        sets = {0: full}
        for b in reversed(range(len(digits))):
            split = {}
            for w, m in sets.items():
                on = m & digits[b]
                if on:
                    split[w | 1 << b] = on
                if on != m:
                    split[w] = m ^ on
            sets = split
        for w, m in sets.items():
            counts[w] += m.bit_count()
    return counts


def _bit_sum(bits: list[int]) -> list[int]:
    """Binary digits, lowest first, of the bitwise column sums of the ints
    in bits, by a carry-save tree of full adders (consumes bits)."""
    digits = []
    while bits:
        carries = []
        while len(bits) > 2:
            x, y, z = bits.pop(), bits.pop(), bits.pop()
            t = x ^ y
            bits.append(t ^ z)
            carries.append((x & y) | (t & z))
        if len(bits) == 2:
            x, y = bits
            bits = [x ^ y]
            carries.append(x & y)
        digits.append(bits[0])
        bits = carries
    return digits


def _macwilliams(dual_counts: list[int], dual_dim: int) -> list[int]:
    """Weight counts of a binary code of length n from those of its dual,
    of dimension dual_dim: A_k = 2**-dual_dim sum_w B_w K_k(w), with the
    Krawtchouk numbers K_k(w) the coefficients of (1 - z)**w (1 + z)**(n - w)."""
    n = len(dual_counts) - 1
    sums = [0] * (n + 1)
    row = [comb(n, k) for k in range(n + 1)]  # K_k(0)
    for w, b in enumerate(dual_counts):
        if b:
            sums = [s + b * kr for s, kr in zip(sums, row)]
        if w < n:  # K_k(w + 1): multiply by (1 - z) / (1 + z)
            quotient, q = [], 0
            for c in row:
                q = c - q
                quotient.append(q)
            row = [quotient[0]] + [quotient[k] - quotient[k - 1] for k in range(1, n + 1)]
    counts = []
    for s in sums:
        a, rem = divmod(s, 1 << dual_dim)
        if rem or a < 0:
            raise AssertionError("MacWilliams transform left a remainder")
        counts.append(a)
    return counts


def product_polynomial(forms: list[QuadForm]) -> IntPoly:
    """prod_i (a_i t^2 + b_i t + c_i) as an integer polynomial in t."""
    result = IntPoly((1,))
    for q in forms:
        result = multiply(result, IntPoly((q.c, q.b, q.a)))
    return result
