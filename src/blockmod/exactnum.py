"""Exact rational scalars and the token grammar shared by every parser.

Every coefficient in this package is a ``fractions.Fraction``: arbitrary
precision, reduced on construction, positive denominator, zero stored as
0/1.  Canonical form is enforced by the type itself, so equality of
values is structural equality.  ``str`` prints a Fraction as ``a`` or
``a/b``, the inverse of :func:`parse_rational`, and ``**`` gives its
exact integer powers.

It also holds the tokenizer and the parser base class of the expression
grammars (polynomials in :mod:`blockmod.poly`, algebra elements in
:mod:`blockmod.blockalg`), including the one rational-literal rule
``int ['/' int]``; :func:`parse_rational` is that rule on its own, with
an optional sign.  Each integer of a literal is held to
``MAX_LITERAL_BITS``: Python refuses to convert an int of more than
4,300 digits (about 14,284 bits) to or from a string, so a wider literal
would fail with Python's own message instead of one that names a
ceiling.

Only rational instances are supported; irrational or complex parameter
values are out of scope for this toolkit.
"""

from __future__ import annotations

import re
from fractions import Fraction

# cost guard: the widest integer (numerator or denominator) a literal may
# have, about 2,400 digits
MAX_LITERAL_BITS = 8_000

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()/,])")


# the most characters of the input a ParseError echoes around its position
PARSE_ECHO_WIDTH = 40


def excerpt(text: str, position: int = 0, show=repr) -> str:
    """``show`` (repr by default) of at most PARSE_ECHO_WIDTH characters of
    text around position, with ``...`` on each side where text goes on; a
    short text is shown whole.  ``show=str`` clips a number that a message
    echoes, such as an index over a cost ceiling, without quotes."""
    start = max(0, min(position - PARSE_ECHO_WIDTH // 2, len(text) - PARSE_ECHO_WIDTH))
    end = start + PARSE_ECHO_WIDTH
    return ("..." if start else "") + show(text[start:end]) + ("..." if end < len(text) else "")


class ParseError(ValueError):
    """Syntax error in an expression, with a character position.

    The message echoes the input around the position, clipped by
    :func:`excerpt`, so that a long rejected input (a literal over the
    literal ceiling, say) does not come back whole.
    """

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} (at position {position} in {excerpt(text, position)})")
        self.position = position


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        if not self.tokens:
            raise ParseError("empty expression", text, 0)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", len(self.text))

    def take(self):
        token = self.peek()
        if token[0] != "end":
            self.pos += 1
        return token

    def expect(self, value: str):
        kind, text, at = self.take()
        if text != value:
            raise ParseError(f"expected {value!r}", self.text, at)

    def finish(self):
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {excerpt(text)}", self.text, at)

    def sign(self) -> int:
        """An optional leading ``+`` or ``-``, as +1 or -1."""
        if self.peek()[1] in ("+", "-"):
            return -1 if self.take()[1] == "-" else 1
        return 1

    def rational(self) -> Fraction:
        """The rational-literal rule: an integer, optionally ``/`` a positive integer."""
        kind, text, at = self.take()
        if kind != "int":
            raise ParseError("expected an integer or a/b rational literal", self.text, at)
        numerator = self.literal_int(text, at)
        if self.peek()[1] != "/":
            return Fraction(numerator)
        self.take()
        dkind, dtext, dat = self.take()
        if dkind != "int":
            raise ParseError("denominator must be an integer", self.text, dat)
        denominator = self.literal_int(dtext, dat)
        if denominator == 0:
            raise ParseError("zero denominator", self.text, dat)
        return Fraction(numerator, denominator)

    def integer(self) -> int:
        """An optionally signed integer literal, read through :meth:`literal_int`."""
        sign = self.sign()
        kind, text, at = self.take()
        if kind != "int":
            raise ParseError("expected an integer", self.text, at)
        return sign * self.literal_int(text, at)

    def literal_int(self, text: str, at: int) -> int:
        """The digits ``text`` as an int of at most MAX_LITERAL_BITS bits.

        k significant digits make a value of at least 10^(k-1), which
        exceeds 2^MAX_LITERAL_BITS once k - 1 > MAX_LITERAL_BITS/3, so a
        longer text is refused before Python converts it.
        """
        digits = text.lstrip("0") or "0"
        if len(digits) - 1 > MAX_LITERAL_BITS // 3 or \
                (value := int(digits)).bit_length() > MAX_LITERAL_BITS:
            raise ParseError(f"a {len(digits)}-digit literal exceeds the literal ceiling of "
                             f"{MAX_LITERAL_BITS} bits", self.text, at)
        return value


def parse_integer(text: str) -> int:
    """Parse an integer with an optional sign, held to the literal ceiling."""
    parser = _Parser(text)
    value = parser.integer()
    parser.finish()
    return value


def parse_rational(text: str) -> Fraction:
    """Parse ``a`` or ``a/b`` with an optional sign, integer a and positive integer b."""
    parser = _Parser(text)
    sign = parser.sign()
    value = parser.rational()
    parser.finish()
    return sign * value

