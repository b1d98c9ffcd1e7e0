"""The Block Lie algebra and its degree extension.

Basis vectors L(m) are indexed by m in Z^2; the bracket of basis vectors
is

    [L(m), L(n)] = (n1*(m2 + q) - m1*(n2 + q)) * L(m + n)

for a fixed nonzero rational parameter q.  The extended algebra adds the
degree derivation D2 with [D2, L(m)] = m2 * L(m).  The other degree
derivation is redundant when q != 0 because ad L(0,0) acts as q times
it, so it is not a stored generator; the element syntax accepts "D1" and
normalizes it to (1/q) * L(0,0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import ParseError, _Parser
from .poly import IndexPair, _format_terms, add_terms, origin_first_key


@dataclass(frozen=True)
class AlgebraContext:
    """Fixes the structure parameter q; q = 0 is rejected."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q == 0:
            raise ValueError("q must be nonzero")


@dataclass(frozen=True)
class BasisL:
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


class AlgebraElement:
    """Finite rational linear combination of L(m) generators and D2."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms
        self._terms = (add_terms({}, ((gen, Fraction(coeff)) for gen, coeff in items))
                       if terms else {})

    @classmethod
    def basis(cls, m: IndexPair) -> "AlgebraElement":
        return cls({BasisL(m): 1})

    @classmethod
    def derivation(cls) -> "AlgebraElement":
        return cls({D2: 1})

    def terms(self) -> dict:
        return dict(self._terms)

    def items_sorted(self):
        return sorted(self._terms.items(), key=lambda kv: _generator_sort_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgebraElement):
            return self._terms == other._terms
        if other == 0:
            return not self._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "AlgebraElement":
        out = AlgebraElement()
        out._terms = {g: -c for g, c in self._terms.items()}
        return out

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = AlgebraElement()
        out._terms = add_terms(dict(self._terms), other._terms.items())
        return out

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __rmul__(self, scalar) -> "AlgebraElement":
        c = Fraction(scalar)
        out = AlgebraElement()
        if c:
            out._terms = {g: coeff * c for g, coeff in self._terms.items()}
        return out

    __mul__ = __rmul__

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"AlgebraElement({format_element(self)})"


def format_element(x: AlgebraElement) -> str:
    return _format_terms([(coeff, str(gen)) for gen, coeff in x.items_sorted()])


def structure_constant(m: IndexPair, n: IndexPair, a: int, b: int) -> int:
    """b * c(m, n) for q = a/b, where [L(m), L(n)] = c(m, n) * L(m + n).

    c(m, n) = n1*(m2 + q) - m1*(n2 + q) = (n1*m2 - m1*n2) + q*(n1 - m1),
    so b * c(m, n) = b*(n1*m2 - m1*n2) + a*(n1 - m1) is an integer for
    integer indices; c(m, n) itself is this value over b.
    """
    return b * (n.m1 * m.m2 - m.m1 * n.m2) + a * (n.m1 - m.m1)


def bracket(x: AlgebraElement, y: AlgebraElement, ctx: AlgebraContext) -> AlgebraElement:
    """Bilinear bracket on the extended algebra.

    Each pair of terms gives one (generator, coefficient) pair.  For
    L(m), L(n) with coefficients cx, cy the coefficient of L(m + n) is
    cx*cy*c(m, n), built as one Fraction from the integers of
    :func:`structure_constant`; [D2, L(m)] = m2 * L(m) and [D2, D2] = 0.
    """
    a, b = ctx.q.numerator, ctx.q.denominator

    def pairs():
        for gx, cx in x._terms.items():
            for gy, cy in y._terms.items():
                if type(gx) is BasisL:
                    if type(gy) is BasisL:
                        c = structure_constant(gx.m, gy.m, a, b)
                        if c:
                            yield (BasisL(gx.m + gy.m),
                                   Fraction(cx.numerator * cy.numerator * c,
                                            cx.denominator * cy.denominator * b))
                    elif gx.m.m2:
                        yield gx, -cx * cy * gx.m.m2
                elif type(gy) is BasisL and gy.m.m2:
                    yield gy, cx * cy * gy.m.m2

    out = AlgebraElement()
    out._terms = add_terms({}, pairs())
    return out


def jacobi_defect(x: AlgebraElement, y: AlgebraElement, z: AlgebraElement,
                  ctx: AlgebraContext) -> AlgebraElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; must vanish for a Lie algebra."""
    return (bracket(x, bracket(y, z, ctx), ctx)
            + bracket(y, bracket(z, x, ctx), ctx)
            + bracket(z, bracket(x, y, ctx), ctx))


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
        raise ParseError(f"unknown generator {text!r}", self.text, at)

    def integer(self) -> int:
        sign = self.sign()
        kind, text, at = self.take()
        if kind != "int":
            raise ParseError("expected an integer", self.text, at)
        return sign * int(text)


def parse_element(text: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse element syntax such as ``3/2*L(1,0) - D2``."""
    return _ElementParser(text, ctx).parse()
