"""Parser for multivariate polynomials over declared variable names.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := [integer] ('*'? factor)*
    factor := variable ('^' positive-integer)? | '(' expr ')'

Errors carry the character offset of the offending token.
"""

from __future__ import annotations

from .errors import ParseError
from .exactpoly import Polynomial


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
            factor = self._factor(scan)
            poly = factor if poly is None else poly * factor
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
            poly = poly ** scan.value
            scan.advance()
        return poly


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
