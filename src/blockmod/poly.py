"""Sparse exact polynomials: the module carriers.

Two-variable polynomials over the rationals carry the rank-1 modules
(variables printed ``d1``, ``d2``); one-variable polynomials (variable
``t``) carry the Witt-algebra side.  Representation:

    Poly2:  dict mapping (e1, e2) exponent pairs to nonzero Fraction
    Poly1:  dict mapping nonnegative degrees to nonzero Fraction

Zero coefficients are never stored, so equality of the term maps is
polynomial equality.  Monomials are ordered graded-lexicographically
with d1 > d2 (total degree first, then the d1 exponent); printing,
leading terms and pivot selection all use this single order, which
makes printed forms and echelon bases canonical.

Values are immutable: every operation returns a fresh polynomial.  The
shared expression grammar used by the command line lives here as well:
integer and ``a/b`` rational literals, variables, ``+ - * ^`` and
parentheses, whitespace insensitive, nonnegative integer exponents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

Monomial2 = tuple[int, int]


def grlex_key(mono: Monomial2) -> tuple[int, int]:
    """Sort key realizing graded-lex order with d1 > d2."""
    e1, e2 = mono
    return (e1 + e2, e1)


@dataclass(frozen=True)
class IndexPair:
    """Integer lattice index m = (m1, m2)."""

    m1: int
    m2: int

    def __add__(self, other: "IndexPair") -> "IndexPair":
        return IndexPair(self.m1 + other.m1, self.m2 + other.m2)

    def __sub__(self, other: "IndexPair") -> "IndexPair":
        return IndexPair(self.m1 - other.m1, self.m2 - other.m2)

    def __neg__(self) -> "IndexPair":
        return IndexPair(-self.m1, -self.m2)

    def __mul__(self, k: int) -> "IndexPair":
        return IndexPair(self.m1 * k, self.m2 * k)

    __rmul__ = __mul__

    def __iter__(self) -> Iterator[int]:
        yield self.m1
        yield self.m2

    def perp(self) -> "IndexPair":
        """The rotated index (m2, -m1)."""
        return IndexPair(self.m2, -self.m1)

    def dot(self, other: "IndexPair") -> int:
        return self.m1 * other.m1 + self.m2 * other.m2

    def is_zero(self) -> bool:
        return self.m1 == 0 and self.m2 == 0

    def __str__(self) -> str:
        return f"({self.m1},{self.m2})"


def index_box(radius: int) -> list[IndexPair]:
    """All indices of [-radius, radius]^2 in row-major order (m1 outer, m2 inner)."""
    return [IndexPair(a, b)
            for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1)]


def _format_terms(parts: list[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial-text) pairs into a canonical string."""
    if not parts:
        return "0"
    pieces: list[str] = []
    for position, (coeff, mono) in enumerate(parts):
        sign = "-" if coeff < 0 else "+"
        magnitude = -coeff if coeff < 0 else coeff
        if mono == "":
            body = str(magnitude)
        elif magnitude == 1:
            body = mono
        else:
            body = f"{magnitude}*{mono}"
        if position == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


class Poly2:
    """Exact sparse polynomial in two commuting variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Monomial2, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                e1, e2 = mono
                if e1 < 0 or e2 < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                c = Fraction(coeff)
                if c:
                    key = (int(e1), int(e2))
                    acc = data.get(key, _ZERO) + c
                    if acc:
                        data[key] = acc
                    elif key in data:
                        del data[key]
        self._terms = data

    @classmethod
    def const(cls, value) -> "Poly2":
        return cls({(0, 0): Fraction(value)})

    def terms(self) -> dict[Monomial2, Fraction]:
        """Copy of the term map."""
        return dict(self._terms)

    def items_sorted(self) -> list[tuple[Monomial2, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def coefficient(self, e1: int, e2: int) -> Fraction:
        return self._terms.get((e1, e2), _ZERO)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(e1 + e2 for e1, e2 in self._terms)

    def leading_monomial(self) -> Monomial2 | None:
        if not self._terms:
            return None
        return max(self._terms, key=grlex_key)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly2):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Poly2.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Poly2":
        out = Poly2()
        out._terms = {mono: -c for mono, c in self._terms.items()}
        return out

    def __add__(self, other) -> "Poly2":
        other = _coerce2(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for mono, c in other._terms.items():
            acc = data.get(mono, _ZERO) + c
            if acc:
                data[mono] = acc
            elif mono in data:
                del data[mono]
        out = Poly2()
        out._terms = data
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Poly2":
        other = _coerce2(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly2":
        return _coerce2(other) + (-self)

    def __mul__(self, other) -> "Poly2":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = Poly2()
            if c:
                out._terms = {mono: coeff * c for mono, coeff in self._terms.items()}
            return out
        if not isinstance(other, Poly2):
            return NotImplemented
        data: dict[Monomial2, Fraction] = {}
        for (a1, a2), ca in self._terms.items():
            for (b1, b2), cb in other._terms.items():
                key = (a1 + b1, a2 + b2)
                acc = data.get(key, _ZERO) + ca * cb
                if acc:
                    data[key] = acc
                elif key in data:
                    del data[key]
        out = Poly2()
        out._terms = data
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly2":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Poly2.const(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shifted(self, m: IndexPair) -> "Poly2":
        """Substitute d1 -> d1 - m1 and d2 -> d2 - m2."""
        data: dict[Monomial2, Fraction] = {}
        for (a, b), c in self._terms.items():
            for i in range(a + 1):
                ci = c * comb(a, i) * (-m.m1) ** (a - i)
                if not ci:
                    continue
                for j in range(b + 1):
                    cij = ci * comb(b, j) * (-m.m2) ** (b - j)
                    if not cij:
                        continue
                    key = (i, j)
                    acc = data.get(key, _ZERO) + cij
                    if acc:
                        data[key] = acc
                    elif key in data:
                        del data[key]
        out = Poly2()
        out._terms = data
        return out

    def eval_at(self, x1, x2) -> Fraction:
        x1 = Fraction(x1)
        x2 = Fraction(x2)
        total = _ZERO
        for (a, b), c in self._terms.items():
            total += c * x1**a * x2**b
        return total

    def format(self, names: tuple[str, str] = ("d1", "d2")) -> str:
        parts = []
        for (a, b), c in self.items_sorted():
            mono_pieces = []
            if a:
                mono_pieces.append(names[0] if a == 1 else f"{names[0]}^{a}")
            if b:
                mono_pieces.append(names[1] if b == 1 else f"{names[1]}^{b}")
            parts.append((c, "*".join(mono_pieces)))
        return _format_terms(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly2({self.format()})"


class Poly1:
    """Exact sparse polynomial in a single variable."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[int, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for degree, coeff in items:
                if degree < 0:
                    raise ValueError(f"negative exponent {degree}")
                c = Fraction(coeff)
                if c:
                    key = int(degree)
                    acc = data.get(key, _ZERO) + c
                    if acc:
                        data[key] = acc
                    elif key in data:
                        del data[key]
        self._terms = data

    @classmethod
    def const(cls, value) -> "Poly1":
        return cls({0: Fraction(value)})

    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def coefficient(self, degree: int) -> Fraction:
        return self._terms.get(degree, _ZERO)

    def degree(self) -> int:
        if not self._terms:
            return -1
        return max(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly1):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Poly1.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Poly1":
        out = Poly1()
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __add__(self, other) -> "Poly1":
        other = _coerce1(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for k, c in other._terms.items():
            acc = data.get(k, _ZERO) + c
            if acc:
                data[k] = acc
            elif k in data:
                del data[k]
        out = Poly1()
        out._terms = data
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Poly1":
        other = _coerce1(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly1":
        return _coerce1(other) + (-self)

    def __mul__(self, other) -> "Poly1":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            out = Poly1()
            if c:
                out._terms = {k: coeff * c for k, coeff in self._terms.items()}
            return out
        if not isinstance(other, Poly1):
            return NotImplemented
        data: dict[int, Fraction] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key = ka + kb
                acc = data.get(key, _ZERO) + ca * cb
                if acc:
                    data[key] = acc
                elif key in data:
                    del data[key]
        out = Poly1()
        out._terms = data
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly1":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Poly1.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def shifted(self, c) -> "Poly1":
        """Substitute t -> t - c; c may be any rational."""
        c = Fraction(c)
        data: dict[int, Fraction] = {}
        for k, coeff in self._terms.items():
            for i in range(k + 1):
                ci = coeff * comb(k, i) * (-c) ** (k - i)
                if not ci:
                    continue
                acc = data.get(i, _ZERO) + ci
                if acc:
                    data[i] = acc
                elif i in data:
                    del data[i]
        out = Poly1()
        out._terms = data
        return out

    def eval_at(self, x) -> Fraction:
        x = Fraction(x)
        total = _ZERO
        for k, c in self._terms.items():
            total += c * x**k
        return total

    def format(self, name: str = "t") -> str:
        parts = []
        for k, c in sorted(self._terms.items(), reverse=True):
            mono = "" if k == 0 else (name if k == 1 else f"{name}^{k}")
            parts.append((c, mono))
        return _format_terms(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly1({self.format()})"


_ZERO = Fraction(0)

D1 = Poly2({(1, 0): 1})
D2 = Poly2({(0, 1): 1})
T = Poly1({1: 1})


def _coerce2(value):
    if isinstance(value, Poly2):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly2.const(value)
    return NotImplemented


def _coerce1(value):
    if isinstance(value, Poly1):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly1.const(value)
    return NotImplemented


def compose2(f: Poly2, first: Poly2, second: Poly2) -> Poly2:
    """Substitute polynomials for the two slots of f: returns f(first, second)."""
    pow1: dict[int, Poly2] = {0: Poly2.const(1)}
    pow2: dict[int, Poly2] = {0: Poly2.const(1)}

    def power(cache, base, k):
        while k not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * base
        return cache[k]

    out = Poly2()
    for (a, b), c in f.items_sorted():
        out = out + c * (power(pow1, first, a) * power(pow2, second, b))
    return out


def to_single_variable(f: Poly2, keep: int) -> Poly1:
    """Collapse a Poly2 that only uses one slot into a Poly1.

    ``keep`` is 0 or 1, the slot whose exponents survive.  Raises if the
    other slot actually occurs.
    """
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    other = 1 - keep
    data = {}
    for mono, c in f.terms().items():
        if mono[other] != 0:
            raise ValueError(f"polynomial depends on slot {other}: {f}")
        data[mono[keep]] = c
    return Poly1(data)


def from_single_variable(f: Poly1, slot: int) -> Poly2:
    """Embed a Poly1 into slot 0 or slot 1 of a Poly2."""
    if slot not in (0, 1):
        raise ValueError("slot must be 0 or 1")
    if slot == 0:
        return Poly2({(k, 0): c for k, c in f.terms().items()})
    return Poly2({(0, k): c for k, c in f.terms().items()})


def rewrite_in_xm(f: Poly2, m: IndexPair) -> Poly2:
    """Rewrite f(d1, d2) in the coordinates (X, d1), X = m2*d1 - m1*d2.

    Output slots: first = X exponent, second = d1 exponent.  Requires
    m1 != 0, otherwise (X, d1) is not a coordinate system.  The change
    of variables divides by m1, so coefficients stay rational and the
    back substitution X -> m2*d1 - m1*d2 recovers f exactly.
    """
    if m.m1 == 0:
        raise ValueError("degenerate change of variables: m1 = 0")
    d1_out = Poly2({(0, 1): 1})
    d2_out = Poly2({(0, 1): Fraction(m.m2, m.m1), (1, 0): Fraction(-1, m.m1)})
    return compose2(f, d1_out, d2_out)


# --- expression grammar (shared with the CLI) -------------------------------

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()/,])")


class ParseError(ValueError):
    """Syntax error in an expression, with a character position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} (at position {position} in {text!r})")
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

    def fail(self, message: str):
        raise ParseError(message, self.text, self.peek()[2])


class _PolyParser(_Parser):
    """Polynomial grammar over a fixed variable -> slot map."""

    def __init__(self, text: str, variables: dict[str, Monomial2]):
        super().__init__(text)
        self.variables = variables
        self.used: set[str] = set()

    def parse(self) -> Poly2:
        if not self.tokens:
            raise ParseError("empty expression", self.text, 0)
        value = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", self.text, at)
        return value

    def expr(self) -> Poly2:
        value = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly2:
        value = self.unary()
        while self.peek()[1] == "*":
            self.take()
            value = value * self.unary()
        return value

    def unary(self) -> Poly2:
        if self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            value = self.unary()
            return value if op == "+" else -value
        return self.power()

    def power(self) -> Poly2:
        base = self.atom()
        if self.peek()[1] == "^":
            self.take()
            kind, text, at = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", self.text, at)
            base = base ** int(text)
        return base

    def atom(self) -> Poly2:
        kind, text, at = self.take()
        if kind == "int":
            value = Fraction(int(text))
            if self.peek()[1] == "/":
                self.take()
                dkind, dtext, dat = self.take()
                if dkind != "int":
                    raise ParseError("denominator must be an integer", self.text, dat)
                if int(dtext) == 0:
                    raise ParseError("zero denominator", self.text, dat)
                value = Fraction(int(text), int(dtext))
            return Poly2.const(value)
        if kind == "name":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", self.text, at)
            self.used.add(text)
            return Poly2({self.variables[text]: 1})
        if text == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected {text!r}" if kind != "end" else "unexpected end of input", self.text, at)


def parse_poly2(text: str) -> Poly2:
    """Parse an expression in the variables d1, d2."""
    return _PolyParser(text, {"d1": (1, 0), "d2": (0, 1)}).parse()


def parse_poly1(text: str) -> Poly1:
    """Parse an expression in the single variable t."""
    parsed = _PolyParser(text, {"t": (1, 0)}).parse()
    return to_single_variable(parsed, keep=0)


def parse_poly(text: str) -> Poly2 | Poly1:
    """Parse an expression, deciding the carrier from the variables used.

    Expressions in t give a Poly1, expressions in d1/d2 (or constants)
    give a Poly2; mixing t with d1/d2 is an error.
    """
    probe = _PolyParser(text, {"d1": (1, 0), "d2": (0, 1), "t": (0, 0)})
    probe.parse()
    if "t" in probe.used and (probe.used & {"d1", "d2"}):
        raise ParseError("cannot mix t with d1/d2", text, 0)
    if "t" in probe.used:
        return parse_poly1(text)
    return parse_poly2(text)
