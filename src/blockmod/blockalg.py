"""The Block Lie algebra and its degree extension.

Basis vectors L(m) are indexed by m in Z^2; the bracket of basis vectors
is

    [L(m), L(n)] = (n1*(m2 + q) - m1*(n2 + q)) * L(m + n)

for a fixed nonzero rational parameter q.  The extended algebra adds the
degree derivation D2 with [D2, L(m)] = m2 * L(m).  The other degree
derivation is redundant when q != 0 because ad L(0,0) acts as q times
it, so it is not a stored generator; the element syntax accepts "D1" and
normalizes it to (1/q) * L(0,0).

An element is a term map from generators (:class:`BasisL` and the
singleton :data:`D2`) to nonzero integer numerators over one positive
denominator, in lowest terms, on the one term-map body of
:mod:`blockmod.poly`, which also carries the polynomials: constructor,
sum, difference, negation, equality and hashing are shared.  Elements
add among themselves and scale by rationals; they never mix with
polynomials, and the only rational they equal or absorb is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .exactnum import ParseError, _Parser, excerpt
from .poly import IndexPair, _format_terms, _TermMap, add_terms, origin_first_key


@dataclass(frozen=True)
class AlgebraContext:
    """Fixes the structure parameter q; q = 0 is rejected."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q == 0:
            raise ValueError("q must be nonzero")


class BasisL(NamedTuple):
    """The generator L(m); a tuple, so ``hash(BasisL(m)) == hash((m,))``."""

    m: IndexPair

    def __str__(self) -> str:
        return f"L{self.m}"


class _Derivation:
    """The degree derivation generator, a singleton."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "D2"

    def __str__(self) -> str:
        return "D2"


D2 = _Derivation()


def _generator_sort_key(gen):
    # L terms in origin-first index order; D2 last
    return (1,) if gen is D2 else (0, *origin_first_key(gen.m))


class AlgebraElement(_TermMap):
    """Finite rational linear combination of L(m) generators and D2, as a
    :class:`blockmod.poly._TermMap` keyed by generators."""

    __slots__ = ()

    @staticmethod
    def _key(gen):
        """Generators are stored as given; there is no exponent to check."""
        return gen

    @classmethod
    def const(cls, value):
        """The zero element for the rational 0; no other rational is an element."""
        return cls._of({}, 1) if value == 0 else NotImplemented

    @classmethod
    def basis(cls, m: IndexPair) -> "AlgebraElement":
        return cls({BasisL(m): 1})

    @classmethod
    def derivation(cls) -> "AlgebraElement":
        return cls({D2: 1})

    def items_sorted(self):
        return sorted(self._fraction_items(), key=lambda kv: _generator_sort_key(kv[0]))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._sum(other)

    __radd__ = __add__

    def __mul__(self, scalar) -> "AlgebraElement":
        return self._scale(scalar)

    __rmul__ = __mul__

    def format(self) -> str:
        return _format_terms([(coeff, str(gen)) for gen, coeff in self.items_sorted()])


def structure_constant(m: IndexPair, n: IndexPair, a: int, b: int) -> int:
    """b * c(m, n) for q = a/b, where [L(m), L(n)] = c(m, n) * L(m + n).

    c(m, n) = n1*(m2 + q) - m1*(n2 + q) = (n1*m2 - m1*n2) + q*(n1 - m1),
    so b * c(m, n) = b*(n1*m2 - m1*n2) + a*(n1 - m1) is an integer for
    integer indices; c(m, n) itself is this value over b.
    """
    return b * (n.m1 * m.m2 - m.m1 * n.m2) + a * (n.m1 - m.m1)


def _bracket_term(gx, nx: int, gy, ny: int, a: int, b: int):
    """[nx*gx, ny*gy] times b for generators gx, gy and q = a/b, as one
    (generator, integer) pair, or None when it is zero.

    For L(m), L(n) the integer is nx*ny*b*c(m, n), with b*c(m, n) from
    :func:`structure_constant`; [D2, L(m)] = m2 * L(m) = -[L(m), D2] and
    [D2, D2] = 0.  The numerators nx, ny are nonzero, so a pair never
    carries 0.
    """
    if type(gx) is BasisL:
        m = gx.m
        if type(gy) is BasisL:
            n = gy.m
            c = structure_constant(m, n, a, b)
            if c:
                return BasisL(IndexPair(m.m1 + n.m1, m.m2 + n.m2)), nx * ny * c
        elif m.m2:
            return gx, -nx * ny * m.m2 * b
    elif type(gy) is BasisL and gy.m.m2:
        return gy, nx * ny * gy.m.m2 * b
    return None


def bracket(x: AlgebraElement, y: AlgebraElement, ctx: AlgebraContext) -> AlgebraElement:
    """Bilinear bracket on the extended algebra.

    With x = X/dx and y = Y/dy in integer numerators, [x, y] is the sum
    of the pairs of :func:`_bracket_term` over the denominator dx*dy*b.
    When both operands have one term, that pair is the whole result and
    one gcd puts it in lowest terms; otherwise the pairs are summed by
    ``add_terms`` and reduced by one gcd pass.
    """
    a, b = ctx.q.as_integer_ratio()
    xs, ys = x._nums, y._nums
    den = x._den * y._den * b
    if len(xs) == 1 == len(ys):
        (gx, nx), = xs.items()
        (gy, ny), = ys.items()
        term = _bracket_term(gx, nx, gy, ny, a, b)
        if term is None:
            return AlgebraElement._of({}, 1)
        g = gcd(term[1], den)
        return AlgebraElement._of({term[0]: term[1] // g}, den // g)
    return AlgebraElement._reduced(add_terms({}, filter(None, (
        _bracket_term(gx, nx, gy, ny, a, b)
        for gx, nx in xs.items() for gy, ny in ys.items()))), den)


def jacobi_defect(x: AlgebraElement, y: AlgebraElement, z: AlgebraElement,
                  ctx: AlgebraContext) -> AlgebraElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; must vanish for a Lie algebra.

    Each of the six brackets is one call of the module-level
    :func:`bracket` (``perfbench/test_fidelity.py`` counts them there), and
    the three outer results are summed in one pass over the lcm of their
    denominators.
    """
    first = bracket(x, bracket(y, z, ctx), ctx)
    second = bracket(y, bracket(z, x, ctx), ctx)
    third = bracket(z, bracket(x, y, ctx), ctx)
    return AlgebraElement._combination(((1, first), (1, second), (1, third)))


# --- element syntax ----------------------------------------------------------

class _ElementParser(_Parser):
    """Grammar: sum of rational multiples of L(m1,m2), D1 or D2."""

    def __init__(self, text: str, ctx: AlgebraContext):
        super().__init__(text)
        self.ctx = ctx

    def parse(self) -> AlgebraElement:
        total = self.term(self.sign())
        while self.peek()[1] in ("+", "-"):
            total = total + self.term(self.sign())
        self.finish()
        return total

    def term(self, sign: int) -> AlgebraElement:
        coeff = Fraction(sign)
        if self.peek()[0] == "int":
            coeff *= self.rational()
            self.expect("*")
        return coeff * self.generator()

    def generator(self) -> AlgebraElement:
        kind, text, at = self.take()
        if kind != "name":
            raise ParseError("expected a generator (L, D1 or D2)", self.text, at)
        if text == "D2":
            return AlgebraElement.derivation()
        if text == "D1":
            # ad L(0,0) = q * D1, so D1 normalizes to (1/q) L(0,0)
            return (1 / self.ctx.q) * AlgebraElement.basis(IndexPair(0, 0))
        if text == "L":
            self.expect("(")
            m1 = self.integer()
            self.expect(",")
            m2 = self.integer()
            self.expect(")")
            return AlgebraElement.basis(IndexPair(m1, m2))
        raise ParseError(f"unknown generator {excerpt(text)}", self.text, at)

    def integer(self) -> int:
        sign = self.sign()
        kind, text, at = self.take()
        if kind != "int":
            raise ParseError("expected an integer", self.text, at)
        return sign * self.literal_int(text, at)


def parse_element(text: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse element syntax such as ``3/2*L(1,0) - D2``."""
    return _ElementParser(text, ctx).parse()
