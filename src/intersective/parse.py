"""Parsers for the polynomial and quadratic-form text formats.

Polynomials come either as ascending coefficient lists like "[1,0,1]" or
as expressions like "x^2+1" and "(x^2+1)(x^2+2)(x^2-2)".  An expression
is built in Z[x] as a numerator over a positive integer denominator,
powers by repeated squaring, with every exponent and every degree at
most MAX_POLY_DEGREE, checked before a power or product is built.  The
result is cleared to an integer polynomial: "1/2 x^2 + 1/2" becomes
x^2 + 1, while "2x^2+4" keeps its content.  Forms are comma triples
"a,b,c".

The limits on scanned ranges and the errors raised when an internal
cross-check fails or a scan worker is lost live here too, with the input
errors: the command line needs them before it loads the numpy-backed
scanner.
"""

from __future__ import annotations

import re
from math import gcd
from os import PathLike

from .intpoly import X, IntPoly, content, multiply, power, primitive_part
from .quadcover import QuadForm


# bound on every exponent and degree in an expression, checked before building
MAX_POLY_DEGREE = 10**6
DEFAULT_SCAN_CAP = 10**6
HARD_SCAN_CAP = 10**8
# density comparisons need a scan of at least this many good primes
MIN_DENSITY_PRIMES = 9000


class PolyParseError(ValueError):
    pass


class FormParseError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    """An internal check failed at some prime: a cycle-type census (the
    scan's or the kernel's, modular._cycle_types), or a root count of an
    exact `check` that no Frobenius class of f*'s factors gives."""


class WorkerLost(RuntimeError):
    """A forked scan worker exited without a result, or could not send one."""


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([xX])|(\*\*)|([()+\-*/^]))")

# An expression is built as (numerator in Z[x], positive denominator).
_Node = tuple[IntPoly, int]


def _scaled(f: IntPoly, k: int) -> IntPoly:
    return f if k == 1 else multiply(IntPoly((k,)), f)


def _check_degree(degree: int) -> None:
    if degree > MAX_POLY_DEGREE:
        raise PolyParseError(f"polynomial degree would exceed {MAX_POLY_DEGREE}")


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise PolyParseError(
                    f"unexpected character {text[pos:].strip()[0]!r} in polynomial"
                )
            tok = next(g for g in m.groups() if g is not None)
            self.tokens.append("x" if tok == "X" else tok)
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("polynomial expression ended unexpectedly")
        self.i += 1
        return tok

    def parse(self) -> IntPoly:
        """The expression times the least positive integer that clears
        its denominators, divided by its content when that integer is
        not 1."""
        num, den = self.expr()
        if self.peek() is not None:
            raise PolyParseError(f"trailing input near {self.peek()!r}")
        g = gcd(den, content(num))
        f = IntPoly([c // g for c in num.coeffs])
        return primitive_part(f) if den > g else f

    def expr(self) -> _Node:
        num, den = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rnum, rden = self.term()
            lcm = den * rden // gcd(den, rden)
            num, rnum = _scaled(num, lcm // den), _scaled(rnum, lcm // rden)
            num, den = (num + rnum if op == "+" else num - rnum), lcm
        return num, den

    def term(self) -> _Node:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.next()
            elif tok is None or not (tok == "(" or tok == "x" or tok.isdigit()):
                return node
            # an explicit or implicit product
            (num, den), (rnum, rden) = node, self.factor()
            _check_degree(len(num.coeffs) + len(rnum.coeffs) - 2)
            node = multiply(num, rnum), den * rden

    def factor(self) -> _Node:
        tok = self.peek()
        if tok == "-":
            self.next()
            num, den = self.factor()
            return -num, den
        if tok == "+":
            self.next()
            return self.factor()
        num, den = self.base()
        if self.peek() in ("^", "**"):
            self.next()
            exp_tok = self.next()
            if not exp_tok.isdigit():
                raise PolyParseError("exponent must be a nonnegative integer")
            k = int(exp_tok)
            if k > MAX_POLY_DEGREE:
                raise PolyParseError(f"exponent {k} exceeds {MAX_POLY_DEGREE}")
            _check_degree(k * (len(num.coeffs) - 1))
            return power(num, k), den**k
        return num, den

    def base(self) -> _Node:
        tok = self.next()
        if tok == "(":
            inner = self.expr()
            if self.next() != ")":
                raise PolyParseError("unbalanced parentheses")
            return inner
        if tok == "x":
            return X, 1
        if tok.isdigit():
            # integer literal, optionally a rational n/d
            if self.peek() == "/":
                self.next()
                den_tok = self.next()
                if not den_tok.isdigit() or int(den_tok) == 0:
                    raise PolyParseError("rational coefficient needs a nonzero denominator")
                return IntPoly((int(tok),)), int(den_tok)
            return IntPoly((int(tok),)), 1
        raise PolyParseError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> IntPoly:
    """Parse the coefficient-list or expression form of a polynomial."""
    t = text.strip()
    if not t:
        raise PolyParseError("empty polynomial")
    if t.startswith("["):
        if not t.endswith("]"):
            raise PolyParseError("unterminated coefficient list")
        inner = t[1:-1].strip()
        if not inner:
            return IntPoly(())
        coeffs = []
        for piece in inner.split(","):
            piece = piece.strip()
            if not re.fullmatch(r"[+-]?\d+", piece):
                raise PolyParseError(f"bad coefficient {piece!r}")
            coeffs.append(int(piece))
        return IntPoly(coeffs)
    return _ExprParser(t).parse()


def parse_form(text: str) -> QuadForm:
    """Parse "a,b,c" into a quadratic form."""
    pieces = [piece.strip() for piece in text.split(",")]
    if len(pieces) != 3:
        raise FormParseError(f"form must be three comma-separated integers, got {text!r}")
    values = []
    for piece in pieces:
        if not re.fullmatch(r"[+-]?\d+", piece):
            raise FormParseError(f"bad form coefficient {piece!r}")
        values.append(int(piece))
    try:
        return QuadForm(*values)
    except ValueError as exc:
        raise FormParseError(str(exc)) from None


def read_forms_file(path: str | PathLike[str]) -> list[QuadForm]:
    """One form per line; blank lines and #-comments are skipped."""
    forms = []
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise FormParseError(f"cannot read forms file {path}: {exc}") from None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        forms.append(parse_form(line))
    if not forms:
        raise FormParseError(f"no forms found in {path}")
    return forms
