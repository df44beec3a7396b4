"""Parser for multivariate polynomials over declared variable names.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := [integer] ('*'? factor)*
    factor := variable ('^' positive-integer)? | '(' expr ')'

Errors carry the character offset of the offending token.

A power of a polynomial with t > 1 terms to the e is expanded only when
its term bound C(e + t - 1, t - 1), the number of monomials of degree e in
t variables, is at most ``MAX_POWER_TERMS``; past it the parser raises
``TooLarge`` (E_TOO_LARGE).  A power of a monomial is always taken.  A
product of factors with a and b terms is taken only when a*b, the number
of term products it forms, is at most half of ``MAX_POWER_TERMS``
squared; past it the parser raises ``TooLarge`` too.
"""

from __future__ import annotations

from .errors import ParseError, TooLarge
from .exactpoly import Polynomial

# (z0 + z1)^999, the largest power of two terms within the bound, takes
# about a second to expand on a 2-CPU VM; the cost grows faster than the
# square of the term count.  It forms 414,688 term products, about the
# most a product may form, MAX_POWER_TERMS ** 2 // 2.
MAX_POWER_TERMS = 1000


class _Scanner:
    """Tokenizer: INT, NAME, and single-character punctuation."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.advance()

    def advance(self):
        text, i = self.text, self.pos
        while i < len(text) and text[i].isspace():
            i += 1
        self.token_start = i
        if i >= len(text):
            self.kind, self.value = "end", None
        elif text[i].isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                self.kind, self.value = "int", int(text[i:j])
            except ValueError:  # past the interpreter's digit limit
                raise ParseError("integer literal of %d digits is too long"
                                 % (j - i), offset=i) from None
            i = j
        elif text[i].isalpha() or text[i] == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.kind, self.value = "name", text[i:j]
            i = j
        elif text[i] in "+-*^()":
            self.kind, self.value = text[i], text[i]
            i += 1
        else:
            raise ParseError("unexpected character %r" % text[i], offset=i)
        self.pos = i


class PolynomialParser:
    """Recursive-descent parser producing exact polynomials in the
    variables of a ring context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.index = {name: i for i, name in enumerate(ctx.names)}

    def parse(self, text):
        scan = _Scanner(text)
        poly = self._expr(scan)
        if scan.kind != "end":
            raise ParseError("unexpected %r" % scan.value,
                             offset=scan.token_start)
        return poly

    def _expr(self, scan):
        sign = 1
        if scan.kind in "+-":
            sign = -1 if scan.kind == "-" else 1
            scan.advance()
        poly = self._term(scan) * sign
        while scan.kind in "+-":
            sign = -1 if scan.kind == "-" else 1
            scan.advance()
            poly = poly + self._term(scan) * sign
        return poly

    def _term(self, scan):
        poly = None
        if scan.kind == "int":
            poly = Polynomial.constant(self.ctx.nvars, scan.value)
            scan.advance()
            if scan.kind == "*":
                scan.advance()
        while scan.kind in ("name", "("):
            start = scan.token_start
            factor = self._factor(scan)
            if poly is None:
                poly = factor
            else:
                a, b = len(poly.coeffs), len(factor.coeffs)
                limit = MAX_POWER_TERMS ** 2 // 2
                if a * b > limit:
                    raise TooLarge(
                        "a product of %d and %d terms would form more than "
                        "%d term products" % (a, b, limit), offset=start)
                poly = poly * factor
            if scan.kind == "*":
                scan.advance()
                if scan.kind not in ("name", "(", "int"):
                    raise ParseError("expected a factor after '*'",
                                     offset=scan.token_start)
                if scan.kind == "int":
                    raise ParseError(
                        "integer coefficient must come first in a term",
                        offset=scan.token_start)
        if poly is None:
            raise ParseError("expected a term", offset=scan.token_start)
        return poly

    def _factor(self, scan):
        if scan.kind == "(":
            scan.advance()
            poly = self._expr(scan)
            if scan.kind != ")":
                raise ParseError("expected ')'", offset=scan.token_start)
            scan.advance()
        else:
            name = scan.value
            if name not in self.index:
                raise ParseError("unknown variable %r" % name,
                                 offset=scan.token_start)
            poly = Polynomial.variable(self.ctx.nvars, self.index[name])
            scan.advance()
        if scan.kind == "^":
            scan.advance()
            if scan.kind != "int" or scan.value < 1:
                raise ParseError("expected a positive integer exponent",
                                 offset=scan.token_start)
            t = len(poly.coeffs)
            if t > 1 and _power_terms_exceed(t, scan.value, MAX_POWER_TERMS):
                raise TooLarge(
                    "a power of %d terms to the %d would have more than %d "
                    "terms" % (t, scan.value, MAX_POWER_TERMS),
                    offset=scan.token_start)
            poly = poly ** scan.value
            scan.advance()
        return poly


def _power_terms_exceed(t, e, limit):
    """Whether C(e + t - 1, t - 1), the bound on the terms of a t-term
    polynomial to the e, exceeds ``limit``.  C(n, j) grows with j up to
    j = n/2, so the partial products stop within a few steps."""
    n = e + t - 1
    c = 1
    for j in range(1, min(e, t - 1) + 1):
        c = c * (n - j + 1) // j
        if c > limit:
            return True
    return False


def is_name(text):
    """Whether ``text`` is exactly one NAME token: a letter or '_', then
    letters, digits or '_'."""
    try:
        scan = _Scanner(text)
    except ParseError:
        return False
    return scan.kind == "name" and scan.value == text


def parse_polynomial(text, ctx):
    return PolynomialParser(ctx).parse(text)
