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

The Jacobi defect is trilinear, so it is checked on generators: the
defect of three generators is one closed form in the structure
constants (:func:`jacobi_defect`), and it builds no bracket.  A sweep
over the radius-R box reads every constant it needs from one
:class:`ConstantTable` per q, b*c(u, v) for u in the radius-R box and v
in the radius-2R box, built by calling :func:`structure_constant`
through this module's global, so a patched constant enters the table.
Its flat index is linear in v (:func:`box_columns`), which is why the
index of n + k is the sum of two per-generator columns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactnum import ParseError, _Parser, excerpt
from .poly import IndexPair, _format_terms, _TermMap, add_terms, index_box, origin_first_key


class _FrozenSlots:
    """An immutable record on ``__slots__``, whose fields are ``_fields``.

    ``==``, ``hash``, the repr ``Name(field=value, ...)`` and pickling
    read ``_fields`` alone, so another slot (a value derived from the
    fields) takes no part in them; only an instance of the same class is
    ever equal.  ``__init__`` fills the slots with ``object.__setattr__``;
    any later assignment or deletion raises AttributeError, so a derived
    slot cannot go stale.  A field read is a plain slot read.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class AlgebraContext(_FrozenSlots):
    """Fixes the structure parameter q; q = 0 is rejected.

    ``ratio`` is q's integer pair (a, b), b > 0, read once here for every
    bracket; it is a slot but no field, so it takes no part in equality,
    hashing or the repr.
    """

    _fields = ("q",)
    __slots__ = ("q", "ratio")

    def __init__(self, q):
        q = Fraction(q)
        if q == 0:
            raise ValueError("q must be nonzero")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ratio", q.as_integer_ratio())


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
                return BasisL(m + n), nx * ny * c
        elif m.m2:
            return gx, -nx * ny * m.m2 * b
    elif type(gy) is BasisL and gy.m.m2:
        return gy, nx * ny * gy.m.m2 * b
    return None


def bracket(x: AlgebraElement, y: AlgebraElement, ctx: AlgebraContext) -> AlgebraElement:
    """Bilinear bracket on the extended algebra.

    With x = X/dx and y = Y/dy in integer numerators and q = a/b
    (``ctx.ratio``), [x, y] is the sum of the pairs of
    :func:`_bracket_term` over the denominator dx*dy*b, summed by
    ``add_terms`` and reduced by one gcd pass.
    """
    a, b = ctx.ratio
    return AlgebraElement._reduced(add_terms({}, filter(None, (
        _bracket_term(gx, nx, gy, ny, a, b)
        for gx, nx in x._nums.items() for gy, ny in y._nums.items()))), x._den * y._den * b)


_ZERO = AlgebraElement._of({}, 1)


def box_generators(radius: int) -> list:
    """Every L(m) of the radius-R index box, in box order, then D2."""
    return [BasisL(m) for m in index_box(radius)] + [D2]


def box_columns(radius: int) -> tuple[list[int], int]:
    """The linear column col(m) = m1*(4R+1) + m2 of every m of the
    radius-R box, in box order, and the position o of the origin in the
    radius-2R box; the tables of the Jacobi and module-axiom sweeps index
    the radius-2R box through them.

    Index proof.  Row-major order (:func:`poly.index_box`) puts v of the
    radius-2R box at lin(v) = (v1 + 2R)*(4R+1) + (v2 + 2R) = col(v) + o,
    with o = lin(0) = 2R*(4R+1) + 2R.  col is linear in v, so
    col(n + k) = col(n) + col(k) and lin(n + k) = lin(n) + lin(k) - lin(0).
    That is a true position whenever n + k lies in the radius-2R box,
    which holds when n and k lie in the radius-R box.
    """
    width = 4 * radius + 1
    return [m1 * width + m2 for m1, m2 in index_box(radius)], 2 * radius * (width + 1)


class ConstantTable:
    """The scaled structure constants of one q that the Jacobi sweep of the
    radius-R box reads, built once per q and then only read.

    ``generators`` is ``box_generators(R)``: the L(m) of the box in box
    order, then D2.  ``constants`` holds b*c(u, v)
    (:func:`structure_constant`, q = a/b) for every u in the radius-R box
    and every v in the radius-2R box, in one flat list of ints:
    (2R+1)^2 * (4R+1)^2 entries, each read through this module's global,
    so a patched constant enters the table.  Both orders are read; the
    table assumes no antisymmetry.

    Index.  Row i holds the radius-2R box in row-major order, so with
    ``cols[i]`` the linear column col(m) of the i-th index m of the
    radius-R box and ``rows[i]`` = i*(4R+1)^2 + o (:func:`box_columns`),
    b*c(m, v) is ``constants[rows[i] + col(v)]``, and the column of a sum
    is the sum of the columns: col(n + k) = col(n) + col(k), a true
    position for v = k and for v = n + k.

    D2 slot.  ``rows`` and ``cols`` hold None at D2's position, the last,
    so all three lists line up: position p names ``generators[p]``, and
    ``rows[p] is None`` exactly when that generator is D2, for every p
    that a list accepts as an index, negative ones included.
    """

    __slots__ = ("generators", "den", "constants", "rows", "cols")

    def __init__(self, ctx: AlgebraContext, radius: int):
        a, b = ctx.ratio
        box, wide = index_box(radius), index_box(2 * radius)
        cols, origin = box_columns(radius)
        self.generators = box_generators(radius)
        self.den = b
        self.constants = [structure_constant(u, v, a, b) for u in box for v in wide]
        self.rows = [i * len(wide) + origin for i in range(len(box))] + [None]
        self.cols = cols + [None]


def jacobi_defect(i: int, j: int, k: int, table: ConstantTable) -> AlgebraElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] for the generators x, y, z at
    positions i, j, k of ``table.generators``; must vanish.

    The defect is trilinear, so on sums of generators it is the sum of
    the generator defects weighted by the products of the coefficients:
    the identity holds on all of B(q) and D2 once it holds on every
    generator triple.  No bracket is built, and no constant is computed
    here: every one is read from ``table`` (see :func:`box_columns` for
    the index proof and :class:`ConstantTable` for the D2 slot).

    Write c for b times the true constant, q = a/b.  The three terms are:

    * for L(m), L(n), L(k), times b^2: c(n,k)*c(m,n+k), c(k,m)*c(n,k+m)
      and c(m,n)*c(k,m+n), all on L(m+n+k): six table reads;
    * for D2, L(n), L(k), times b: [D2,[L(n),L(k)]] = c(n,k)*(n2+k2),
      [L(n),[L(k),D2]] = -k2*c(n,k) and [L(k),[D2,L(n)]] = n2*c(k,n),
      all on L(n+k), which sum to n2*(c(n,k) + c(k,n)): two reads.  The
      defect is cyclic, so D2 in another place is the rotation that puts
      it first;
    * for two or three D2, terms that read no constant and cancel, as
      [D2,[D2,L(k)]] = k2^2*L(k) = -[D2,[L(k),D2]] and [L(k),[D2,D2]] = 0.

    No sum is taken as zero without reading it, so a patched constant
    enters every defect it should.  Position p means
    ``table.generators[p]`` for every index a list accepts, negative ones
    included: the kernel tells D2 from L(m) by ``rows[p] is None``.  A
    position that is no index (a float, a generator) raises ``TypeError``
    from the first row read, and one out of range ``IndexError``.  An
    element is built only for a nonzero defect; a zero defect is the one
    shared zero element, which no operation mutates.
    """
    rows, cols, c = table.rows, table.cols, table.constants
    ri, rj, rk = rows[i], rows[j], rows[k]
    if ri is not None and rj is not None and rk is not None:
        ci, cj, ck = cols[i], cols[j], cols[k]
        d = (c[rj + ck] * c[ri + cj + ck] + c[rk + ci] * c[rj + ck + ci]
             + c[ri + cj] * c[rk + ci + cj])
        if not d:
            return _ZERO
        gens = table.generators
        return AlgebraElement._reduced({BasisL(gens[i].m + gens[j].m + gens[k].m): d},
                                       table.den ** 2)
    if ri is None:
        if rj is None or rk is None:
            return _ZERO
        n, k = j, k
    elif rj is None:
        if rk is None:
            return _ZERO
        n, k = k, i         # (L(m), D2, L(k)) rotates to (D2, L(k), L(m))
    else:
        n, k = i, j         # (L(m), L(n), D2) rotates to (D2, L(m), L(n))
    gens = table.generators
    d = gens[n].m.m2 * (c[rows[n] + cols[k]] + c[rows[k] + cols[n]])
    return AlgebraElement._reduced({BasisL(gens[n].m + gens[k].m): d}, table.den) if d else _ZERO


# --- element syntax ----------------------------------------------------------

class _ElementParser(_Parser):
    """Grammar: sum of rational multiples of L(m1,m2), D1 or D2, and of
    bare 0 terms, each the zero element."""

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
            if not coeff and self.peek()[1] != "*":
                return _ZERO        # a bare 0, as the zero element prints
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


def parse_element(text: str, ctx: AlgebraContext) -> AlgebraElement:
    """Parse element syntax such as ``3/2*L(1,0) - D2``."""
    return _ElementParser(text, ctx).parse()
