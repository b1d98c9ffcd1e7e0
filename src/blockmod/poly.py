"""Sparse exact polynomials: the module carriers.

Two-variable polynomials over the rationals carry the rank-1 modules
(variables printed ``d1``, ``d2``); one-variable polynomials (variable
``t``) carry the Witt-algebra side.  Both are one representation, a dict
mapping (e1, e2) exponent pairs to nonzero Fractions, and one body of
arithmetic on it (:class:`_TermMap`); a ``Poly1`` of degree k stores its
terms under (k, 0) and speaks of plain degrees in its own interface.

Zero coefficients are never stored (:func:`add_terms`), so equality of
the term maps is polynomial equality.  Monomials are ordered
graded-lexicographically with d1 > d2 (total degree first, then the d1
exponent); printing, leading terms and pivot selection all use this
single order, which makes printed forms and echelon bases canonical.

Values are immutable: every operation returns a fresh polynomial.  The
substitution d -> d - m behind every generator action is one binomial
expansion on term maps, :func:`shift_terms`.

The shift and the product add up integers, not Fractions, and are exact.
A term map with coefficients n_k/e_k equals N_k/L, where L is the lcm of
the e_k and N_k = n_k*(L/e_k) is an integer (:func:`integer_terms`).  A
product of two maps is then the sums of the N_a*N_b over one fixed
denominator L_a*L_b.  For a shift by m = u/v, the expansion
v^a*(x - m)^a = sum_i comb(a, i)*(-u)^(a-i)*v^i*x^i has integer
coefficients; scaling the numerator of a term with exponent a by
v^(A-a), where A is the largest exponent of that variable, puts every
contribution over the one denominator L*v1^A1*v2^A2.  Integer sums are
exact, so dividing each total once by the common denominator
(``Fraction`` reduces it) gives the rational sum term by term; a total
of zero is a term that cancels and is dropped.  The stored term maps
still hold Fractions.

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

from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .exactnum import ParseError, _Parser

Monomial2 = tuple[int, int]


def grlex_key(mono: Monomial2) -> tuple[int, int]:
    """Sort key realizing graded-lex order with d1 > d2."""
    e1, e2 = mono
    return (e1 + e2, e1)


class IndexPair(NamedTuple):
    """Integer lattice index m = (m1, m2).

    A tuple, so hashing and equality run in C: ``hash(m) == hash((m1, m2))``,
    and an index equals the plain pair of its coordinates.  Term maps keep
    IndexPair keys and (e1, e2) monomial keys apart.
    """

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


def integer_terms(terms: dict) -> tuple[dict, int]:
    """``(numerators, den)``: the term map as integers over den, the lcm of
    its coefficients' denominators (1 for an empty map), folded one
    denominator at a time."""
    den = 1
    for c in terms.values():
        if den % c.denominator:
            den = lcm(den, c.denominator)
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den


def shift_terms(terms: dict, m1, m2) -> dict:
    """Term map of f(d1 - m1, d2 - m2) from the term map of f.

    Keys are (e1, e2) exponent pairs.  Coefficients may be ints or
    Fractions, and so may m1 and m2; an all-int input gives int
    coefficients back (the closure's action table sums them as ints),
    anything else Fractions.  The sums run over integers (see the module
    docstring), and each output coefficient is one division at the end.
    Zero coefficients are dropped.
    """
    rows1 = {a: _binomial_row(a, m1) for a in {a for a, _ in terms}}
    rows2 = {b: _binomial_row(b, m2) for b in {b for _, b in terms}}
    whole = type(m1) is int and type(m2) is int and all(type(c) is int for c in terms.values())
    if whole:
        nums = terms
    else:
        nums, den = integer_terms(terms)
        v1, v2 = m1.denominator, m2.denominator
        top1, top2 = max(rows1, default=0), max(rows2, default=0)
        nums = {(a, b): n * v1 ** (top1 - a) * v2 ** (top2 - b) for (a, b), n in nums.items()}
        den *= v1 ** top1 * v2 ** top2
    data: dict = {}
    for (a, b), n in nums.items():
        row2 = rows2[b]
        for i, f1 in rows1[a]:
            c = n * f1
            for j, f2 in row2:
                key = (i, j)
                data[key] = data.get(key, 0) + c * f2
    if whole:
        return {key: c for key, c in data.items() if c}
    return {key: Fraction(c, den) for key, c in data.items() if c}


def _binomial_row(e: int, m) -> list:
    """Nonzero terms (i, comb(e, i) * (-u)^(e - i) * v^i) of v^e * (x - m)^e, m = u/v."""
    u, v = m.numerator, m.denominator
    row = [(i, f) for i in range(e + 1) if (f := comb(e, i) * (-u) ** (e - i))]
    return row if v == 1 else [(i, f * v ** i) for i, f in row]


def add_terms(data: dict, items) -> dict:
    """Add (key, coefficient) pairs into the term map ``data`` and return it.

    A key whose coefficients sum to zero is removed, so a term map never
    stores a zero coefficient and equal maps mean equal values.
    """
    for key, c in items:
        acc = data.get(key)
        acc = c if acc is None else acc + c
        if acc:
            data[key] = acc
        elif key in data:
            del data[key]
    return data


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


class _TermMap:
    """Arithmetic on a map from (e1, e2) exponent pairs to nonzero Fractions.

    :class:`Poly2` is this map; :class:`Poly1` is its one-variable view,
    whose terms all have e2 = 0.  Values of different classes never mix:
    only the same class and plain rationals are coerced.  Addition,
    multiplication and the shift are reached through ``__add__``,
    ``__mul__`` and ``shifted`` defined in each class's own body, so that
    each class binds its own function object under those names.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms
        self._terms = add_terms({}, ((self._exponents(key), Fraction(coeff))
                                     for key, coeff in items)) if terms else {}

    @classmethod
    def _exponents(cls, key) -> Monomial2:
        e1, e2 = cls._monomial(key)
        if e1 < 0 or e2 < 0:
            raise ValueError(f"negative exponent in monomial {key}")
        return (int(e1), int(e2))

    @classmethod
    def _of(cls, data: dict):
        """Wrap an already normalized term map without copying it."""
        out = object.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def const(cls, value):
        c = Fraction(value)
        return cls._of({(0, 0): c} if c else {})

    def _coerce(self, value):
        if type(value) is type(self):
            return value
        if isinstance(value, (int, Fraction)):
            return self.const(value)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return self._of({mono: -c for mono, c in self._terms.items()})

    def _sum(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._of(add_terms(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def _product(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            c = Fraction(other)
            return self._of({mono: coeff * c for mono, coeff in self._terms.items()}
                            if c else {})
        if type(other) is not type(self):
            return NotImplemented
        left, left_den = integer_terms(self._terms)
        right, right_den = integer_terms(other._terms)
        data: dict = {}
        for (a1, a2), ca in left.items():
            for (b1, b2), cb in right.items():
                key = (a1 + b1, a2 + b2)
                data[key] = data.get(key, 0) + ca * cb
        den = left_den * right_den
        return self._of({key: Fraction(c, den) for key, c in data.items() if c})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = self.const(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _sorted_terms(self) -> list[tuple[Monomial2, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def _eval(self, x1, x2) -> Fraction:
        x1 = Fraction(x1)
        x2 = Fraction(x2)
        total = _ZERO
        for (a, b), c in self._terms.items():
            total += c * x1**a * x2**b
        return total

    def _format(self, names: tuple[str, str]) -> str:
        parts = []
        for (a, b), c in self._sorted_terms():
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
        return f"{type(self).__name__}({self.format()})"


class Poly2(_TermMap):
    """Exact sparse polynomial in two commuting variables."""

    __slots__ = ()

    _monomial = staticmethod(tuple)

    def __add__(self, other) -> "Poly2":
        return self._sum(other)

    __radd__ = __add__

    def __mul__(self, other) -> "Poly2":
        return self._product(other)

    __rmul__ = __mul__

    def shifted(self, m: IndexPair) -> "Poly2":
        """Substitute d1 -> d1 - m1 and d2 -> d2 - m2."""
        return Poly2._of(shift_terms(self._terms, m.m1, m.m2))

    def terms(self) -> dict[Monomial2, Fraction]:
        """Copy of the term map."""
        return dict(self._terms)

    def items_sorted(self) -> list[tuple[Monomial2, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return self._sorted_terms()

    def coefficient(self, e1: int, e2: int) -> Fraction:
        return self._terms.get((e1, e2), _ZERO)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((e1 + e2 for e1, e2 in self._terms), default=-1)

    def leading_monomial(self) -> Monomial2 | None:
        if not self._terms:
            return None
        return max(self._terms, key=grlex_key)

    def eval_at(self, x1, x2) -> Fraction:
        return self._eval(x1, x2)

    def format(self, names: tuple[str, str] = ("d1", "d2")) -> str:
        return self._format(names)


class Poly1(_TermMap):
    """Exact sparse polynomial in a single variable.

    The constructor and :meth:`terms` speak of degrees k; the term map
    stores them as exponent pairs (k, 0).
    """

    __slots__ = ()

    @staticmethod
    def _monomial(degree: int) -> Monomial2:
        return (degree, 0)

    def __add__(self, other) -> "Poly1":
        return self._sum(other)

    __radd__ = __add__

    def __mul__(self, other) -> "Poly1":
        return self._product(other)

    __rmul__ = __mul__

    def shifted(self, c) -> "Poly1":
        """Substitute t -> t - c; c may be any rational."""
        return Poly1._of(shift_terms(self._terms, c, 0))

    def terms(self) -> dict[int, Fraction]:
        return {k: c for (k, _), c in self._terms.items()}

    def coefficient(self, degree: int) -> Fraction:
        return self._terms.get((degree, 0), _ZERO)

    def degree(self) -> int:
        return max((k for k, _ in self._terms), default=-1)

    def eval_at(self, x) -> Fraction:
        return self._eval(x, 0)

    def format(self, name: str = "t") -> str:
        return self._format((name, name))


_ZERO = Fraction(0)

D1 = Poly2({(1, 0): 1})
D2 = Poly2({(0, 1): 1})
T = Poly1({1: 1})


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
    if any(mono[1 - keep] for mono in f._terms):
        raise ValueError(f"polynomial depends on slot {1 - keep}: {f}")
    return Poly1._of({mono[::-1] if keep else mono: c for mono, c in f._terms.items()})


def from_single_variable(f: Poly1, slot: int) -> Poly2:
    """Embed a Poly1 into slot 0 or slot 1 of a Poly2."""
    if slot not in (0, 1):
        raise ValueError("slot must be 0 or 1")
    return Poly2._of({mono[::-1] if slot else mono: c for mono, c in f._terms.items()})


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


def coefficient_bits(c: Fraction) -> int:
    """The larger bit length of c's numerator and denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


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
            bits = max(map(coefficient_bits, base._terms.values()), default=0)
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
