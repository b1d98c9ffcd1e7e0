"""Sparse exact polynomials: the module carriers.

Two-variable polynomials over the rationals carry the rank-1 modules
(variables printed ``d1``, ``d2``); one-variable polynomials (variable
``t``) carry the Witt-algebra side.  Both are one representation and one
body of arithmetic on it (:class:`_TermMap`); a ``Poly1`` of degree k
stores its terms under (k, 0) and speaks of plain degrees in its own
interface.  The same body, keyed by generators instead of exponent
pairs, carries the algebra elements of :mod:`blockmod.blockalg`.

The representation is one integer carrier: a dict of nonzero integer
numerators N_k and one positive integer denominator D, for the value
sum_k (N_k/D) * key_k, always in lowest terms: gcd(all N_k, D) = 1, and
zero is ({}, 1).  Lowest terms make the pair unique, so equality is
equality of the pairs.  Proof: let N/D = N'/D', both in lowest terms,
so N*D' = N'*D term by term.  The contents (gcds of the entries) agree
too: c*D' = c'*D with c = content(N), c' = content(N').  As gcd(c, D)
= 1, D divides D'; symmetrically D' divides D, so D = D' and N = N'.
``terms()`` and ``coefficient`` build the Fraction N_k/D on demand.

Every operation below runs on integers and ends in at most one gcd
pass, which puts the result in lowest terms: dividing a numerator dict
and its denominator by g = gcd(D, all N_k) leaves entries whose gcd is
1.  The pass folds ``math.gcd`` over the numerators and stops as soon
as it reaches 1.

* Sum and difference: with L = lcm(D, D'), N/D +- N'/D' is exactly
  (N*(L/D) +- N'*(L/D'))/L, summed key by key in one pass (a key
  whose total is zero is dropped), then the gcd pass.
* Product: the numerator dicts multiply as integer polynomials over
  D*D', then the gcd pass.
* Scaling by u/v: (u*N)/(v*D), then the gcd pass.
* Construction from rational coefficients n_k/e_k (each reduced): D is
  the lcm of the e_k and N_k = n_k*(D/e_k).  This is already in lowest
  terms: for a prime p dividing D, the term whose e_k holds the highest
  power of p has p dividing neither D/e_k nor n_k.
* Shift by an integer index, f(d) -> f(d - m) (:func:`shift_terms`, one
  binomial expansion and the one substitution here; general substitution
  is a test oracle): keeps D and needs no gcd pass.  The substitution is
  a Z-linear bijection of Z[d1, d2], its inverse being the shift by -m.
  So every coefficient of N(d - m) is an integer combination of the
  coefficients of N, and content(N) divides content(N(d - m)); the
  inverse shift gives the converse.  The content is kept, and
  gcd(content, D) = 1 still holds.
* Shift by a rational m = u/v: v^a*(x - m)^a = sum_i comb(a, i) *
  (-u)^(a-i) * v^i * x^i has integer coefficients; scaling the
  numerator of a term with exponent a by v^(A-a), where A is the
  largest exponent of that variable, puts every contribution over the
  one denominator D*v1^A1*v2^A2, and the gcd pass follows.
* Evaluation at x1 = a1/b1 and x2 = a2/b2: with E1 and E2 the largest
  exponents of the two variables, N*x1^e1*x2^e2/D is
  N*a1^e1*b1^(E1-e1)*a2^e2*b2^(E2-e2) over D*b1^E1*b2^E2, so the value
  is one integer sum over one denominator, made a Fraction once.

Monomials are ordered graded-lexicographically with d1 > d2 (total
degree first, then the d1 exponent), by :func:`monomial_rank`; printing
and the closure echelon's columns both use this single order, which
makes printed forms and echelon bases canonical.  Values are
immutable: every operation returns a fresh value (scaling by 1 and adding
zero return the value itself).

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
from math import comb, gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .exactnum import ParseError, _Parser, excerpt

Monomial2 = tuple[int, int]


def monomial_rank(mono: Monomial2) -> int:
    """0-based graded-lex position: the d(d+1)/2 monomials of degree below d = e1 + e2 lead."""
    e1, e2 = mono
    d = e1 + e2
    return d * (d + 1) // 2 + e1


def monomials_upto(degree: int) -> list[Monomial2]:
    """All monomials of total degree <= degree, in ascending :func:`monomial_rank`."""
    return [(e1, d - e1) for d in range(degree + 1) for e1 in range(d + 1)]


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


def shift_terms(nums: dict, m1, m2) -> tuple[dict, int]:
    """Integer numerators of f(d1 - m1, d2 - m2) from those of f, and the
    factor the denominator of f is multiplied by.

    Keys are (e1, e2) exponent pairs and ``nums`` holds integers; m1 and
    m2 may be ints or Fractions.  For integer m1 and m2 the factor is 1:
    the numerators keep f's denominator and their content (see the
    module docstring).  For m = u/v the factor is v1^A1 * v2^A2, with A1
    and A2 the largest exponents of the two variables.  Zero totals are
    dropped.
    """
    rows1 = {a: _binomial_row(a, m1) for a in {a for a, _ in nums}}
    rows2 = {b: _binomial_row(b, m2) for b in {b for _, b in nums}}
    v1, v2 = m1.denominator, m2.denominator
    scale = 1
    if v1 != 1 or v2 != 1:
        top1, top2 = max(rows1, default=0), max(rows2, default=0)
        nums = {(a, b): n * v1 ** (top1 - a) * v2 ** (top2 - b) for (a, b), n in nums.items()}
        scale = v1 ** top1 * v2 ** top2
    data: dict = {}
    for (a, b), n in nums.items():
        row2 = rows2[b]
        for i, f1 in rows1[a]:
            c = n * f1
            for j, f2 in row2:
                key = (i, j)
                data[key] = data.get(key, 0) + c * f2
    return {key: c for key, c in data.items() if c}, scale


def _binomial_row(e: int, m) -> list:
    """Nonzero terms (i, comb(e, i) * (-u)^(e - i) * v^i) of v^e * (x - m)^e, m = u/v."""
    u, v = m.numerator, m.denominator
    row = [(i, f) for i in range(e + 1) if (f := comb(e, i) * (-u) ** (e - i))]
    return row if v == 1 else [(i, f * v ** i) for i, f in row]


def _ratio_powers(x, top: int) -> list[int]:
    """a^e * b^(top-e) for e = 0..top, where x = a/b in lowest terms, b > 0."""
    a, b = x.as_integer_ratio()
    return [a ** e * b ** (top - e) for e in range(top + 1)]


def add_terms(data: dict, items) -> dict:
    """Add (key, coefficient) pairs into the term map ``data`` and return it.

    A key whose coefficients sum to zero is removed, so a term map never
    stores a zero coefficient.
    """
    for key, c in items:
        acc = data.get(key)
        acc = c if acc is None else acc + c
        if acc:
            data[key] = acc
        elif key in data:
            del data[key]
    return data


# cost guard: the largest bit length (numerator or denominator) of a
# printed coefficient, and of exponent times coefficient bit length in a
# power; both stay under the 4,300-digit (about 14,284-bit) limit Python
# puts on printing an int
MAX_POWER_BITS = 14_000


def coefficient_bits(c: Fraction) -> int:
    """The larger bit length of c's numerator and denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def printable(c: Fraction) -> Fraction:
    """c itself, once checked to print within MAX_POWER_BITS bits.

    A wider value would fail with Python's 4,300-digit message; this
    raises a ValueError that names the ceiling instead.
    """
    bits = coefficient_bits(c)
    if bits > MAX_POWER_BITS:
        raise ValueError(f"printing a {bits}-bit coefficient exceeds the coefficient "
                         f"ceiling of {MAX_POWER_BITS} bits")
    return c


def _format_terms(parts: list[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial-text) pairs into a canonical string."""
    if not parts:
        return "0"
    pieces: list[str] = []
    for position, (coeff, mono) in enumerate(parts):
        magnitude = abs(printable(coeff))
        sign = "-" if coeff < 0 else "+"
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
    """Arithmetic on integer numerators over one denominator, in lowest terms.

    ``_nums`` maps keys to nonzero ints and ``_den`` is a positive int
    with gcd(all numerators, den) = 1 (see the module docstring).
    :class:`Poly2` keys the numerators by (e1, e2) exponent pairs;
    :class:`Poly1` is its one-variable view, whose terms all have e2 = 0;
    and :class:`blockmod.blockalg.AlgebraElement` keys them by
    generators.  The constructor passes every key through the hook
    ``_key`` (exponent validation for polynomials, none for generators).
    Values of different classes never mix: only the same class and the
    rationals that ``const`` accepts are coerced.  Addition,
    multiplication and the shift are reached through ``__add__``,
    ``__mul__`` and ``shifted`` defined in each class's own body, so that
    each class binds its own function object under those names.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms
        coeffs = add_terms({}, ((self._key(key), Fraction(coeff))
                                for key, coeff in items)) if terms else {}
        self._den = den = lcm(*(c.denominator for c in coeffs.values()))
        self._nums = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}

    @classmethod
    def _key(cls, key) -> Monomial2:
        """The stored form of a constructor key: its exponent pair, checked
        nonnegative.  A term map keyed by generators overrides this."""
        e1, e2 = cls._monomial(key)
        if e1 < 0 or e2 < 0:
            raise ValueError(f"negative exponent in monomial {key}")
        return (int(e1), int(e2))

    @classmethod
    def _of(cls, nums: dict, den: int):
        """Wrap numerators and a denominator already in lowest terms, without copying."""
        out = object.__new__(cls)
        out._nums = nums
        out._den = den
        return out

    @classmethod
    def _reduced(cls, nums: dict, den: int):
        """Wrap nonzero numerators over a positive den after one gcd pass.

        The pass folds gcd pairwise and stops once it reaches 1; the
        one-call ``gcd(den, *nums.values())`` would build an argument
        tuple per call, which CPython keeps on a free list afterwards
        (about 0.3 MB more peak memory on the module-axiom grid).
        """
        g = den
        for n in nums.values():
            g = gcd(g, n)
            if g == 1:
                return cls._of(nums, den)
        return cls._of({key: n // g for key, n in nums.items()}, den // g)

    @classmethod
    def const(cls, value):
        c = Fraction(value)
        return cls._of({(0, 0): c.numerator} if c else {}, c.denominator)

    def _coerce(self, value):
        if type(value) is type(self):
            return value
        if isinstance(value, (int, Fraction)):
            return self.const(value)
        return NotImplemented

    def _fraction_items(self):
        """(key, Fraction coefficient) pairs, built on demand."""
        den = self._den
        return ((key, Fraction(n, den)) for key, n in self._nums.items())

    def terms(self) -> dict:
        """The term map with Fraction coefficients."""
        return dict(self._fraction_items())

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        if self._nums.keys() <= {(0, 0)}:  # zero or a constant equals a rational
            return hash(Fraction(self._nums.get((0, 0), 0), self._den))
        return hash(frozenset(self._fraction_items()))

    def __neg__(self):
        return self._of({key: -n for key, n in self._nums.items()}, self._den)

    @classmethod
    def _combination(cls, parts):
        """The sum of sign * value over (sign, value) pairs, sign 1 or -1: one
        pass over the lcm of the denominators, then one gcd pass.

        Zero values are skipped (their denominator is 1, so the lcm does
        not see them either), a key whose total reaches zero is dropped as
        the pass goes, and the zero value comes back without a gcd pass
        when nothing is left.  The pass sums into a fresh dict, so no
        operand's numerators are touched.
        """
        den = 1
        for _, value in parts:
            den = lcm(den, value._den)
        data: dict = {}
        get = data.get
        for sign, value in parts:
            nums = value._nums
            if nums:
                scale = sign * (den // value._den)
                for key, n in nums.items():
                    acc = get(key, 0) + n * scale
                    if acc:
                        data[key] = acc
                    else:
                        del data[key]
        return cls._reduced(data, den) if data else cls._of(data, 1)

    def _sum(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        return self._combination(((1, self), (1, other)))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            return self
        return self._combination(((1, self), (-1, other)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def _scale(self, c):
        """c times this value for a rational c; NotImplemented for anything else."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        if c == 1:
            return self
        if not c:
            return self._of({}, 1)
        u, v = c.numerator, c.denominator
        return self._reduced({key: n * u for key, n in self._nums.items()}, self._den * v)

    def _product(self, other):
        if type(other) is not type(self):
            return self._scale(other)
        data: dict = {}
        right = other._nums.items()
        for (a1, a2), ca in self._nums.items():
            for (b1, b2), cb in right:
                key = (a1 + b1, a2 + b2)
                data[key] = data.get(key, 0) + ca * cb
        return self._reduced({key: c for key, c in data.items() if c}, self._den * other._den)

    def _shift(self, m1, m2):
        """f(d1 - m1, d2 - m2) for rational m1, m2 (see :func:`shift_terms`)."""
        nums, scale = shift_terms(self._nums, m1, m2)
        if scale == 1:
            return self._of(nums, self._den)
        return self._reduced(nums, self._den * scale)

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

    def _eval(self, x1, x2) -> Fraction:
        """The value at rationals x1 and x2, summed in ints (see the module docstring)."""
        nums = self._nums
        if not nums:
            return Fraction(0)
        scale1 = _ratio_powers(x1, max(nums)[0])
        scale2 = _ratio_powers(x2, max(map(itemgetter(1), nums)))
        total = sum([n * scale1[e1] * scale2[e2] for (e1, e2), n in nums.items()])
        return Fraction(total, self._den * scale1[0] * scale2[0])

    def _format(self, names: tuple[str, str]) -> str:
        parts = []
        for (a, b), c in sorted(self._fraction_items(), key=lambda kv: monomial_rank(kv[0]),
                                reverse=True):
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
        return self._shift(m.m1, m.m2)

    def coefficient(self, e1: int, e2: int) -> Fraction:
        return Fraction(self._nums.get((e1, e2), 0), self._den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((e1 + e2 for e1, e2 in self._nums), default=-1)

    def eval_at(self, x1, x2) -> Fraction:
        return self._eval(x1, x2)

    def format(self) -> str:
        return self._format(("d1", "d2"))


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
        return self._shift(c, 0)

    def terms(self) -> dict[int, Fraction]:
        return {k: c for (k, _), c in self._fraction_items()}

    def coefficient(self, degree: int) -> Fraction:
        return Fraction(self._nums.get((degree, 0), 0), self._den)

    def degree(self) -> int:
        return max((k for k, _ in self._nums), default=-1)

    def eval_at(self, x) -> Fraction:
        return self._eval(x, 0)

    def format(self) -> str:
        return self._format(("t", "t"))


D1 = Poly2({(1, 0): 1})
D2 = Poly2({(0, 1): 1})


# --- expression grammar (shared with the CLI) -------------------------------

# cost guard: the largest total degree and exponent the grammar accepts
MAX_EXPRESSION_DEGREE = 32

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
            exponent = self.literal_int(text, at)
            if exponent > MAX_EXPRESSION_DEGREE:
                raise ParseError(f"exponent {excerpt(str(exponent), show=str)} exceeds the "
                                 f"expression degree ceiling {MAX_EXPRESSION_DEGREE}",
                                 self.text, at)
            self.check_degree(base.total_degree() * exponent, at)
            bits = max(map(coefficient_bits, base.terms().values()), default=0)
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
                raise ParseError(f"unknown variable {excerpt(text)}", self.text, at)
            return Poly2({self.variables[text]: 1})
        if text == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected {excerpt(text)}" if kind != "end" else "unexpected end of input",
                         self.text, at)


def parse_poly2(text: str) -> Poly2:
    """Parse an expression in the variables d1, d2."""
    return _PolyParser(text, {"d1": (1, 0), "d2": (0, 1)}).parse()

