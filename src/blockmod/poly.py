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
substitution d -> d - m behind every generator action is one binomial
expansion on term maps, :func:`shift_terms`.

The polynomial expression grammar used by the command line lives here as
well: rational literals (the one literal rule of :mod:`blockmod.exactnum`),
variables, ``+ - * ^`` and parentheses, whitespace insensitive,
nonnegative integer exponents.  A product or power whose total degree
would exceed ``MAX_EXPRESSION_DEGREE``, and any exponent above it, is a
parse error: expanding a product costs the product of the term counts,
so ``d1^1000000000`` would never return.  A power whose coefficients
could outgrow ``MAX_POWER_BITS`` is a parse error too: each nesting
level of a constant power such as ``((2^32)^32)^32`` multiplies the
coefficient size by its exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .exactnum import ParseError, _Parser

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


def origin_first_key(m: IndexPair) -> tuple[int, int, int, int]:
    """Sort key: indices closest to the origin first, positive side preferred."""
    return (abs(m.m1) + abs(m.m2), abs(m.m1), -m.m1, -m.m2)


def index_box(radius: int) -> list[IndexPair]:
    """All indices of [-radius, radius]^2 in row-major order (m1 outer, m2 inner)."""
    if radius < 0:
        raise ValueError(f"index box radius must be at least 0, got {radius}")
    return [IndexPair(a, b)
            for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1)]


def shift_terms(terms: dict, m1, m2) -> dict:
    """Term map of f(d1 - m1, d2 - m2) from the term map of f.

    Keys are (e1, e2) exponent pairs.  Coefficients may be ints or
    Fractions, and so may m1 and m2.  The binomial factors of each
    exponent are formed once per call, so each output contribution costs
    one multiplication by a coefficient.  Zero coefficients are dropped.
    """
    rows1 = {a: _binomial_row(a, m1) for a in {a for a, _ in terms}}
    rows2 = {b: _binomial_row(b, m2) for b in {b for _, b in terms}}
    data: dict = {}
    for (a, b), c in terms.items():
        row2 = rows2[b]
        for i, f1 in rows1[a]:
            for j, f2 in row2:
                key = (i, j)
                data[key] = data.get(key, 0) + c * (f1 * f2)
    return {key: c for key, c in data.items() if c}


def _binomial_row(e: int, m) -> list:
    """Nonzero terms (i, comb(e, i) * (-m)^(e - i)) of the expansion of (x - m)^e."""
    return [(i, f) for i in range(e + 1) if (f := comb(e, i) * (-m) ** (e - i))]


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
            k >>= 1
            if k:
                base = base * base
        return result

    def shifted(self, m: IndexPair) -> "Poly2":
        """Substitute d1 -> d1 - m1 and d2 -> d2 - m2."""
        out = Poly2()
        out._terms = shift_terms(self._terms, m.m1, m.m2)
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
        shifted = shift_terms({(k, 0): v for k, v in self._terms.items()}, c, 0)
        out = Poly1()
        out._terms = {i: v for (i, _), v in shifted.items()}
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

# cost guard: the largest total degree and exponent the grammar accepts
MAX_EXPRESSION_DEGREE = 32

# cost guard: the largest exponent times coefficient bit length (numerator
# or denominator) a power may reach; a power of a constant then stays under
# the 4,300-digit (about 14,284-bit) limit Python puts on printing an int
MAX_POWER_BITS = 14_000


class _PolyParser(_Parser):
    """Polynomial grammar over a fixed variable -> slot map."""

    def __init__(self, text: str, variables: dict[str, Monomial2]):
        super().__init__(text)
        self.variables = variables

    def parse(self) -> Poly2:
        value = self.expr()
        self.finish()
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
            at = self.take()[2]
            rhs = self.unary()
            self.check_degree(value.total_degree() + rhs.total_degree(), at)
            value = value * rhs
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
            exponent = int(text)
            if exponent > MAX_EXPRESSION_DEGREE:
                raise ParseError(f"exponent {exponent} exceeds the expression degree "
                                 f"ceiling {MAX_EXPRESSION_DEGREE}", self.text, at)
            self.check_degree(base.total_degree() * exponent, at)
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in base._terms.values()), default=0)
            if bits * exponent > MAX_POWER_BITS:
                raise ParseError(f"power {exponent} of a {bits}-bit coefficient exceeds the "
                                 f"coefficient ceiling of {MAX_POWER_BITS} bits", self.text, at)
            base = base ** exponent
        return base

    def check_degree(self, degree: int, at: int) -> None:
        if degree > MAX_EXPRESSION_DEGREE:
            raise ParseError(f"degree {degree} exceeds the expression degree ceiling "
                             f"{MAX_EXPRESSION_DEGREE}", self.text, at)

    def atom(self) -> Poly2:
        kind, text, at = self.peek()
        if kind == "int":
            return Poly2.const(self.rational())
        self.take()
        if kind == "name":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", self.text, at)
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
