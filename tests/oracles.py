"""Test oracles that the package itself never calls.

* The one-variable Witt module action, with its variable t, which the
  Witt-line restriction of :mod:`blockmod.omega` is checked against.
* The cross form X_m of a Witt line.
* The one-variable polynomial grammar over t, and the re-keying of a
  two-variable polynomial that uses one slot only, which it needs.
* The embedding of a one-variable polynomial into either slot, and the
  general substitution f(first, second), which the shift, the
  difference lemma and the Witt-line reduction are checked against.
* The module action under any generator image, which the module-axiom
  defect is checked against, composed, for both placements of the image.
* The module-axiom defect of two generators at any indices, the closed
  form -f(d-m-n) * Delta(m, n) with no image table, which the table scan
  of :func:`omega.module_axiom_defect` is checked against.
* The Jacobi defect of three generators as one closed form in the
  structure constants, read per triple, which the table scan of
  :func:`blockalg.jacobi_defect` is checked against.
* The three coefficient identities in the paper's witness notation
  (lambda_m, alpha_m, a_m, b_m), which the coefficient replay of
  :mod:`blockmod.identities` is checked against.
* The per-index generator action on closure workspace rows, which the
  closure's Taylor-coefficient rows are checked against.
* Rational elimination against a reduced monic echelon basis, which the
  closure's integer echelon and :func:`closure.span_insert` are checked
  against, with the leading monomial of a polynomial that it reads.
* Fraction-free elimination on integer rows, the closure's echelon as it
  was before it was kept reduced, and :class:`CheckedEchelon`, which
  compares the closure's echelon with it on every insert, and the
  weights it keeps across additions with freshly compacted ones.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from math import gcd, lcm

from blockmod import blockalg
from blockmod.blockalg import D2, AlgebraContext, AlgebraElement, BasisL
from blockmod.closure import SubspaceBasis, _IntEchelon
from blockmod.omega import ParamSet, WittParams, action_on_one, commutator_defect, generator_image
from blockmod.poly import (IndexPair, Monomial2, Poly1, Poly2, _PolyParser, monomial_rank,
                           monomials_upto, shift_terms)

T = Poly1({1: 1})


def witt_act(i: int, f: Poly1, w: WittParams) -> Poly1:
    """One-variable Witt module action: lambda^i * (t - i*alpha) * f(t - i)."""
    return w.lam ** i * (T - i * w.alpha) * f.shifted(i)


def cross_form(m: IndexPair) -> Poly2:
    """The linear form X_m = m2*d1 - m1*d2, vanishing on the line through m."""
    return Poly2({(1, 0): m.m2, (0, 1): -m.m1})


def to_single_variable(f: Poly2, keep: int) -> Poly1:
    """Collapse a Poly2 that only uses one slot into a Poly1.

    ``keep`` is 0 or 1, the slot whose exponents survive.  Raises if the
    other slot actually occurs.
    """
    if keep not in (0, 1):
        raise ValueError("keep must be 0 or 1")
    if any(mono[1 - keep] for mono in f._nums):
        raise ValueError(f"polynomial depends on slot {1 - keep}: {f}")
    return Poly1._of({mono[::-1] if keep else mono: n for mono, n in f._nums.items()}, f._den)


def from_single_variable(f: Poly1, slot: int) -> Poly2:
    """Embed a Poly1 into slot 0 or slot 1 of a Poly2; inverse of :func:`to_single_variable`."""
    if slot not in (0, 1):
        raise ValueError("slot must be 0 or 1")
    return Poly2._of({mono[::-1] if slot else mono: n for mono, n in f._nums.items()}, f._den)


def compose2(f: Poly2, first: Poly2, second: Poly2) -> Poly2:
    """Substitute polynomials for the two slots of f: returns f(first, second)."""
    out = Poly2()
    for (a, b), c in f.terms().items():
        out = out + c * first ** a * second ** b
    return out


def parse_poly1(text: str) -> Poly1:
    """Parse an expression in the single variable t."""
    return to_single_variable(_PolyParser(text, {"t": (1, 0)}).parse(), keep=0)


def generator_jacobi_defect(gx, gy, gz, ctx: AlgebraContext) -> AlgebraElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] for generators x = gx, y = gy,
    z = gz, each a :class:`BasisL` or :data:`D2`, at any indices.

    The closed form of :func:`blockalg.jacobi_defect`, with every constant
    computed per triple through ``blockalg.structure_constant`` (so a
    patched constant enters): for L(m), L(n), L(k), over b^2,
    c(n,k)*c(m,n+k) + c(k,m)*c(n,k+m) + c(m,n)*c(k,m+n) on L(m+n+k); for
    one D2, rotated first, n2*(c(n,k) + c(k,n)) on L(n+k) over b; for two
    or three D2, zero.  An argument that is neither a :class:`BasisL` nor
    :data:`D2` raises ``TypeError``.
    """
    a, b = ctx.ratio
    c = blockalg.structure_constant
    for g in (gx, gy, gz):
        if g is not D2 and type(g) is not BasisL:
            raise TypeError(f"jacobi_defect takes BasisL or D2, not {type(g).__name__}")
    if D2 not in (gx, gy, gz):
        m, n, k = gx.m, gy.m, gz.m
        j = (c(n, k, a, b) * c(m, n + k, a, b) + c(k, m, a, b) * c(n, k + m, a, b)
             + c(m, n, a, b) * c(k, m + n, a, b))
        return AlgebraElement({BasisL(m + n + k): Fraction(j, b * b)})
    if [gx, gy, gz].count(D2) > 1:
        return AlgebraElement()
    # the defect is cyclic: rotate D2 to the front
    n, k = (gy, gz) if gx is D2 else (gz, gx) if gy is D2 else (gx, gy)
    n, k = n.m, k.m
    j = n.m2 * (c(n, k, a, b) + c(k, n, a, b))
    return AlgebraElement({BasisL(n + k): Fraction(j, b)})


def image_act(x: AlgebraElement, f: Poly2, p: ParamSet, image) -> Poly2:
    """The module action of x on f with the generator image ``image(m, p)``:
    L(m) sends f to f(d - m) * image(m, p), and D2 multiplies f by d2.
    With ``omega.action_on_one`` it is ``omega.act``."""
    out = Poly2()
    for gen, c in x.terms().items():
        if gen is D2:
            out = out + c * (Poly2({(0, 1): 1}) * f)
        else:
            out = out + c * (f.shifted(gen.m) * image(gen.m, p))
    return out


def generator_axiom_defect(gx, gy, f: Poly2, p: ParamSet, image=action_on_one) -> Poly2:
    """act([x,y], f) - act(x, act(y, f)) + act(y, act(x, f)) for generators
    x = gx, y = gy, each a :class:`BasisL` or :data:`D2`, at any indices.

    The closed form of :func:`omega.module_axiom_defect`, with the images
    built per case: zero when either generator is D2, else
    -f(d - m - n) * ``omega.commutator_defect(m, n, p, image)``.
    """
    if gx is D2 or gy is D2:
        return Poly2()
    return -(f.shifted(gx.m + gy.m) * commutator_defect(gx.m, gy.m, p, image))


def witness_coefficient_defects(m: IndexPair, n: IndexPair,
                                p: ParamSet) -> tuple[Fraction, Fraction, Fraction]:
    """The d1, d2 and constant defects of the commutator identity, in the
    paper's witness notation, divided by lambda^(m+n).

    Each index k carries the witness (lambda_k, alpha_k, a_k, b_k) of the
    canonical modules: lambda_k = lambda^k, alpha_k = alpha, a_k = 1 and
    b_k = 0.  (x | y-perp) is the pairing of x with y rotated to
    (y2, -y1).  c(m, n) is read from ``blockalg.structure_constant`` at
    call time, so a patched constant reaches this formula too.
    """
    def witness(k: IndexPair):
        return p.lam_pow(k), p.alpha, Fraction(1), Fraction(0)

    lam_m, alpha_m, a_m, b_m = witness(m)
    lam_n, alpha_n, a_n, b_n = witness(n)
    lam_mn, alpha_mn, a_mn, b_mn = witness(m + n)
    q = p.q
    gamma_nm = n.m1 * m.m2 - n.m2 * m.m1        # (n | m-perp)
    gamma_mn = m.m1 * n.m2 - m.m2 * n.m1        # (m | n-perp) = -gamma_nm
    beta = Fraction(blockalg.structure_constant(m, n, q.numerator, q.denominator),
                    q.denominator)
    lam_ratio = lam_mn / (lam_m * lam_n)

    d1_defect = ((q + a_n * n.m2) * (q * n.m1 + a_m * gamma_nm)
                 - (q + a_m * m.m2) * (q * m.m1 + a_n * gamma_mn)
                 - lam_ratio * beta * (q + a_mn * (m.m2 + n.m2)))
    d2_defect = (a_n * n.m1 * (q * n.m1 + a_m * gamma_nm)
                 - a_m * m.m1 * (q * m.m1 + a_n * gamma_mn)
                 - lam_ratio * beta * (m.m1 + n.m1) * a_mn)
    const_defect = ((q * n.m1 + a_m * gamma_nm) * (q * n.m1 * alpha_n - b_n)
                    - (q * m.m1 + a_n * gamma_mn) * (q * m.m1 * alpha_m - b_m)
                    - lam_ratio * beta * (q * (m.m1 + n.m1) * alpha_mn - b_mn))
    return (d1_defect, d2_defect, const_defect)


class BoxActTable:
    """Per-index generator action on closure workspace monomials, integer scaled.

    For each index m the image of a monomial under L(m) is the monomial
    shifted by m (:func:`poly.shift_terms`) times the integer numerators
    of lambda^-m * g_m (:func:`omega.generator_image` at the parameters
    (q, 1, 1, alpha)), that is lambda^-m * g_m rescaled by its positive
    denominator.  The columns of every (m, monomial) pair are cached.
    """

    def __init__(self, D: int, p: ParamSet):
        self.unit = ParamSet(p.q, 1, 1, p.alpha)
        self.workspace = monomials_upto(D + 1)
        self.dim = len(self.workspace)
        self._columns: dict[tuple[IndexPair, Monomial2], list[tuple[int, int]]] = {}

    def column(self, m: IndexPair, mono: Monomial2) -> list[tuple[int, int]]:
        """Image of a single monomial as (rank, coefficient) pairs."""
        key = (m, mono)
        column = self._columns.get(key)
        if column is None:
            accum: dict[int, int] = {}
            g = generator_image(m, self.unit)._nums.items()
            for (i, j), c in shift_terms({mono: 1}, m.m1, m.m2)[0].items():
                for (g1, g2), gc in g:
                    r = monomial_rank((i + g1, j + g2))
                    accum[r] = accum.get(r, 0) + c * gc
            column = [(r, c) for r, c in sorted(accum.items()) if c]
            self._columns[key] = column
        return column

    def image(self, nonzero: list[tuple[int, int]], m: IndexPair) -> list[int]:
        """Image of a row given as (rank, coefficient) pairs."""
        out = [0] * self.dim
        for rank, coeff in nonzero:
            for r, c in self.column(m, self.workspace[rank]):
                out[r] += coeff * c
        return out


def leading_monomial(f: Poly2) -> Monomial2 | None:
    """The largest monomial of f in :func:`poly.monomial_rank` order; None for 0."""
    return max(f._nums, key=monomial_rank, default=None)


def rational_reduce(basis: SubspaceBasis, f: Poly2) -> Poly2:
    """Remainder of f after rational elimination against every pivot of a
    reduced monic echelon basis."""
    for vector in basis.vectors:
        pivot = leading_monomial(vector)
        c = f.coefficient(*pivot)
        if c:
            f = f - c * vector
    return f


def rational_contains(basis: SubspaceBasis, f: Poly2) -> bool:
    return not rational_reduce(basis, f)


def rational_span_insert(basis: SubspaceBasis, v: Poly2) -> SubspaceBasis:
    """Reduced echelon basis of span(basis + {v}) by rational elimination;
    ``basis`` itself if v is in the span.  ``basis`` must be reduced and monic."""
    if v.total_degree() > basis.degree_cap:
        raise ValueError(
            f"vector of degree {v.total_degree()} exceeds the cap {basis.degree_cap}")
    remainder = rational_reduce(basis, v)
    if not remainder:
        return basis
    pivot = leading_monomial(remainder)
    monic = (1 / remainder.coefficient(*pivot)) * remainder
    updated = []
    for vector in basis.vectors:
        c = vector.coefficient(*pivot)
        updated.append(vector - c * monic if c else vector)
    updated.append(monic)
    updated.sort(key=lambda w: monomial_rank(leading_monomial(w)), reverse=True)
    return SubspaceBasis(tuple(updated), basis.degree_cap)


def rational_basis(vectors, degree_cap: int) -> SubspaceBasis:
    """The reduced echelon basis of span(vectors), one rational insert at a time."""
    basis = SubspaceBasis((), degree_cap)
    for v in vectors:
        basis = rational_span_insert(basis, v)
    return basis


def _row_gcd_normalize(row: list[int], pivot: int) -> None:
    g = 0
    for value in row:
        if value:
            g = gcd(g, abs(value))
            if g == 1:
                break
    if g > 1:
        for index in range(len(row)):
            if row[index]:
                row[index] //= g
    if row[pivot] < 0:
        for index in range(len(row)):
            if row[index]:
                row[index] = -row[index]


class FractionFreeEchelon:
    """Fraction-free echelon over the workspace monomial basis."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[int, list[int]]] = []   # (pivot rank, row), pivot descending

    def insert(self, row: list[int]) -> tuple[int, list[int]] | None:
        """Reduce row against the echelon; store and return it if independent."""
        for pivot, existing in self.rows:
            c = row[pivot]
            if c:
                p = existing[pivot]
                row = [p * x - c * y for x, y in zip(row, existing)]
        pivot = -1
        for index in range(self.dim - 1, -1, -1):
            if row[index]:
                pivot = index
                break
        if pivot < 0:
            return None
        _row_gcd_normalize(row, pivot)
        entry = (pivot, row)
        position = 0
        while position < len(self.rows) and self.rows[position][0] > pivot:
            position += 1
        self.rows.insert(position, entry)
        return entry


def assert_reduced(echelon):
    pivots = [pivot for pivot, _ in echelon.rows]
    assert pivots == sorted(set(pivots), reverse=True), pivots
    for position, (pivot, row) in enumerate(echelon.rows):
        at_pivots = [row[other] for other in pivots]
        assert at_pivots[position] > 0 and at_pivots.count(0) == len(pivots) - 1, (pivot, row)
        assert len(row) == echelon.dim and not any(row[pivot + 1:]), (pivot, row)
        assert gcd(*row) == 1, (pivot, row)


def probe_rows(echelon) -> list[list[int]]:
    """Rows whose entries lie within the echelon's capacity c >= 1: all ones,
    so nonzero at every free column; +-c alternating; -c at the pivot
    columns only; and a spread of values in [-c, c]."""
    c, dim = echelon._capacity, echelon.dim
    pivots = {p for p, _ in echelon.rows}
    return [[1] * dim,
            [c if j % 2 else -c for j in range(dim)],
            [-c if j in pivots else 0 for j in range(dim)],
            [(7 * j + 3) % (2 * c + 1) - c for j in range(dim)]]


def decode(echelon, row):
    """The (pivot, residual digits) that the echelon's weights give for row,
    or None when the packed value is zero."""
    packed = sum(x * y for x, y in zip(echelon._weights, row))
    return echelon._residual(packed) if packed else None


def compacted(echelon):
    """A copy of the echelon over the same rows whose weights are rebuilt
    from scratch, at the minimal width and with no empty slot."""
    fresh = copy.copy(echelon)
    fresh._weigh()
    return fresh


class CheckedEchelon(_IntEchelon):
    """The engine's echelon, compared with the oracle on every insert.

    The invariants are checked in full after every addition; an insert
    that adds nothing must leave the rows equal to the last checked ones.
    Every row returned so far must still hold the values it was returned
    with, because the closure goes on acting with it.  After every
    addition den, the bound K and the width are checked against their
    definitions, and each of :func:`probe_rows` decodes to the same
    residual digits with the weights kept across additions as with a
    compacted copy of the echelon.
    """

    def __init__(self, dim):
        super().__init__(dim)
        self.oracle = FractionFreeEchelon(dim)
        self.calls = self.added = 0
        self.checked_rows = []
        self.returned = []

    def insert(self, row):
        expected = self.oracle.insert(list(row))
        stored = super().insert(row)
        assert stored == expected, (self.calls, stored, expected)
        self.calls += 1
        if stored is None:
            assert self.rows == self.checked_rows
        else:
            self.added += 1
            self.returned.append((stored[1], list(stored[1])))
            assert all(row == copy for row, copy in self.returned)
            assert_reduced(self)
            den = lcm(*(r[pivot] for pivot, r in self.rows))
            bound = den + sum(den // r[pivot] * max(map(abs, r)) for pivot, r in self.rows)
            assert (self._den, self._bound) == (den, bound)
            assert self._width > (self._capacity * bound).bit_length()
            fresh = compacted(self)
            for probe in probe_rows(self):
                assert decode(self, probe) == decode(fresh, probe), (self.calls, probe)
            self.checked_rows = [(pivot, list(r)) for pivot, r in self.rows]
        return stored
