"""Test oracles that the package itself never calls.

* The one-variable Witt module action, with its variable t, which the
  Witt-line restriction of :mod:`blockmod.omega` is checked against.
* The cross form X_m of a Witt line.
* The one-variable polynomial grammar over t, and the re-keying of a
  two-variable polynomial that uses one slot only, which it needs.
* The per-index generator action on closure workspace rows, which the
  closure's Taylor-coefficient rows are checked against.
* Rational elimination against a reduced monic echelon basis, which the
  closure's integer echelon and :func:`closure.span_insert` are checked
  against.
"""

from __future__ import annotations

from blockmod.closure import SubspaceBasis, _monomials_upto, _rank
from blockmod.omega import ParamSet, WittParams, generator_image
from blockmod.poly import IndexPair, Monomial2, Poly1, Poly2, _PolyParser, grlex_key, shift_terms

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


def parse_poly1(text: str) -> Poly1:
    """Parse an expression in the single variable t."""
    return to_single_variable(_PolyParser(text, {"t": (1, 0)}).parse(), keep=0)


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
        self.workspace = _monomials_upto(D + 1)
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
                    r = _rank((i + g1, j + g2))
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


def rational_reduce(basis: SubspaceBasis, f: Poly2) -> Poly2:
    """Remainder of f after rational elimination against every pivot of a
    reduced monic echelon basis."""
    for vector in basis.vectors:
        pivot = vector.leading_monomial()
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
    pivot = remainder.leading_monomial()
    monic = (1 / remainder.coefficient(*pivot)) * remainder
    updated = []
    for vector in basis.vectors:
        c = vector.coefficient(*pivot)
        updated.append(vector - c * monic if c else vector)
    updated.append(monic)
    updated.sort(key=lambda w: grlex_key(w.leading_monomial()), reverse=True)
    return SubspaceBasis(tuple(updated), basis.degree_cap)


def rational_basis(vectors, degree_cap: int) -> SubspaceBasis:
    """The reduced echelon basis of span(vectors), one rational insert at a time."""
    basis = SubspaceBasis((), degree_cap)
    for v in vectors:
        basis = rational_span_insert(basis, v)
    return basis
