"""Parsers for the polynomial and quadratic-form text formats.

Polynomials come either as ascending coefficient lists like "[1,0,1]" or
as expressions like "x^2+1" and "(x^2+1)(x^2+2)(x^2-2)".  Rational
coefficients are accepted and cleared to a primitive integer polynomial.
Forms are comma triples "a,b,c".

The limits on scanned ranges and the errors raised when an internal
cross-check fails or a scan worker is lost live here too, with the input
errors: the command line needs them before it loads the numpy-backed
scanner.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from os import PathLike

from .intpoly import IntPoly
from .quadcover import QuadForm


DEFAULT_SCAN_CAP = 10**6
HARD_SCAN_CAP = 10**8
# density comparisons need a scan reaching at least this far
MIN_DENSITY_RANGE_END = 10**5


class PolyParseError(ValueError):
    pass


class FormParseError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    """An internal check failed at some prime: a cycle-type census (the
    scan's or the kernel's, modular._cycle_types), or a root count of
    `check --form` that no Frobenius class of the forms gives."""


class WorkerLost(RuntimeError):
    """A forked scan worker exited without a result, or could not send one."""


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([xX])|(\*\*)|([()+\-*/^]))")

_FracPoly = list[Fraction]


def _fadd(a: _FracPoly, b: _FracPoly) -> _FracPoly:
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return out


def _fmul(a: _FracPoly, b: _FracPoly) -> _FracPoly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _fneg(a: _FracPoly) -> _FracPoly:
    return [-c for c in a]


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

    def parse(self) -> _FracPoly:
        poly = self.expr()
        if self.peek() is not None:
            raise PolyParseError(f"trailing input near {self.peek()!r}")
        return poly

    def expr(self) -> _FracPoly:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = _fadd(node, rhs if op == "+" else _fneg(rhs))
        return node

    def term(self) -> _FracPoly:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.next()
                node = _fmul(node, self.factor())
            elif tok is not None and (tok == "(" or tok == "x" or tok.isdigit()):
                node = _fmul(node, self.factor())  # implicit product
            else:
                return node

    def factor(self) -> _FracPoly:
        tok = self.peek()
        if tok == "-":
            self.next()
            return _fneg(self.factor())
        if tok == "+":
            self.next()
            return self.factor()
        base = self.base()
        if self.peek() in ("^", "**"):
            self.next()
            exp_tok = self.next()
            if not exp_tok.isdigit():
                raise PolyParseError("exponent must be a nonnegative integer")
            result: _FracPoly = [Fraction(1)]
            for _ in range(int(exp_tok)):
                result = _fmul(result, base)
            return result
        return base

    def base(self) -> _FracPoly:
        tok = self.next()
        if tok == "(":
            inner = self.expr()
            if self.next() != ")":
                raise PolyParseError("unbalanced parentheses")
            return inner
        if tok == "x":
            return [Fraction(0), Fraction(1)]
        if tok.isdigit():
            # integer literal, optionally a rational n/d
            if self.peek() == "/":
                self.next()
                den_tok = self.next()
                if not den_tok.isdigit() or int(den_tok) == 0:
                    raise PolyParseError("rational coefficient needs a nonzero denominator")
                return [Fraction(int(tok), int(den_tok))]
            return [Fraction(int(tok))]
        raise PolyParseError(f"unexpected token {tok!r}")


def _clear_denominators(frac: _FracPoly) -> IntPoly:
    while frac and frac[-1] == 0:
        frac.pop()
    if not frac:
        return IntPoly(())
    lcm = 1
    for c in frac:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in frac]
    if lcm > 1:
        ct = 0
        for c in ints:
            ct = gcd(ct, c)
        ints = [c // ct for c in ints]
    return IntPoly(ints)


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
    return _clear_denominators(_ExprParser(t).parse())


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
