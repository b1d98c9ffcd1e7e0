"""Exact submodule-closure engine over a degree filtration.

Given seed polynomials of total degree at most D, the engine computes
the smallest subspace S of the degree-D filtration level that contains
the seeds and is stable under the generator action within the
filtration:  iterate

    S  <-  span( S  union  { L(m) . v  :  v in S,  m in [-B, B]^2 } )
           intersected with the degree-<=D subspace,

working inside a degree-(D+1) workspace, until a fixpoint.  The action
raises degree by exactly one, so images of S stay inside the workspace;
degree lowering happens only through cancellation across varying m, and
keeping the degree-(D+1) shell inside the workspace is what preserves
those cancellations.

The box actually swept has radius r = min(B, (D+2)//2), and the result
is the same as sweeping [-B, B]^2.  Proof: drop the scalar lambda^m
(it does not change a span).  For a row v of degree <= D the image
L(m).v = v(d - m) * g_m(d), with g_m = (m2+q)*d1 - m1*(d2+q*alpha), is a
workspace-vector-valued polynomial in (m1, m2) of degree <= D+1 in each
variable: v(d - m) has degree <= D in m and g_m degree 1.  Write it as
sum over a, b <= D+1 of m1^a * m2^b * C_ab.  A tensor grid with at
least D+2 points per axis is unisolvent for such polynomials, so the
coefficient vectors C_ab are rational combinations of the images at the
grid points, and every image at any m is a combination of the C_ab.
Hence the images of v over any such grid span exactly span{C_ab}.  The
grid [-r, r]^2 has 2r+1 >= D+2 points per axis when r = (D+2)//2, and
it is the whole box when B < (D+2)//2.  So each row contributes the
same span at radius r as at radius B; since every pass inserts the
images of a snapshot whose span depends only on the span at pass start,
the span after each pass, the pass count, the additions per pass and
the final reduced basis are all independent of B >= r.

The intersection step is free: under a degree-graded monomial order an
echelonized spanning set splits by leading-monomial degree, so the
degree-<=D part of the span is exactly the span of the rows whose pivot
has degree <= D.

Row reduction runs fraction-free over the integers (each image may be
scaled by any nonzero rational without changing its span, so generator
images are normalized to integer vectors first); the returned basis is
re-canonicalized over the rationals into reduced, monic echelon form.

Classification of the fixpoint is by dimension plus one exact
evaluation: the full filtration level has dimension (D+1)(D+2)/2, and
the proper-submodule level is the hyperplane of polynomials vanishing
at (0, -q*alpha).  Any other outcome is reported as OTHER, never
retried silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, lcm

from .omega import ParamSet, action_on_one, in_proper_submodule
from .poly import IndexPair, Monomial2, Poly2, grlex_key, index_box, shift_terms


class ClosureTag(Enum):
    ZERO = "ZERO"
    OMEGA_PRIME = "OMEGA_PRIME"
    FULL = "FULL"
    OTHER = "OTHER"


@dataclass(frozen=True)
class ClosureResult:
    tag: ClosureTag
    dimension: int
    diagnostics: str


def filtration_dimension(degree: int) -> int:
    """Number of monomials of total degree <= degree in two variables."""
    return (degree + 1) * (degree + 2) // 2


class SubspaceBasis:
    """Reduced echelon basis of a polynomial subspace.

    Vectors are monic, ordered by strictly decreasing graded-lex pivot,
    and each pivot monomial occurs in no other vector.
    """

    __slots__ = ("vectors", "degree_cap")

    def __init__(self, vectors: tuple[Poly2, ...] = (), degree_cap: int = 0):
        self.vectors = tuple(vectors)
        self.degree_cap = degree_cap

    @property
    def pivots(self) -> tuple[Monomial2, ...]:
        return tuple(v.leading_monomial() for v in self.vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def reduce(self, f: Poly2) -> Poly2:
        """Remainder of f after elimination against every pivot."""
        for vector in self.vectors:
            pivot = vector.leading_monomial()
            c = f.coefficient(*pivot)
            if c:
                f = f - c * vector
        return f

    def contains(self, f: Poly2) -> bool:
        return not self.reduce(f)


def span_insert(basis: SubspaceBasis, v: Poly2) -> SubspaceBasis:
    """Reduced echelon basis of span(basis + {v}); unchanged if v is in the span."""
    if v.total_degree() > basis.degree_cap:
        raise ValueError(
            f"vector of degree {v.total_degree()} exceeds the cap {basis.degree_cap}")
    remainder = basis.reduce(v)
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


# --- integer workspace engine -------------------------------------------------

def _monomials_upto(degree: int) -> list[Monomial2]:
    """All monomials of total degree <= degree, rank (ascending graded-lex) order."""
    out = []
    for d in range(degree + 1):
        for e1 in range(d + 1):
            out.append((e1, d - e1))
    return out


def _rank(mono: Monomial2) -> int:
    e1, e2 = mono
    d = e1 + e2
    return d * (d + 1) // 2 + e1


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


class _IntEchelon:
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


class _ActTable:
    """Per-index generator action on workspace monomials, integer scaled.

    For each box index m the image of a monomial under L(m) is the
    monomial shifted by m (:func:`poly.shift_terms`, the same expansion
    as ``Poly2.shifted``) times g_m, the image of 1 under L(m)
    (:func:`omega.action_on_one`).  The scalar lambda^m is divided out
    of g_m and the rest is scaled by the lcm of its denominators: a
    fixed positive rational rescaling per index keeps every image
    integral without changing its span.
    """

    def __init__(self, D: int, p: ParamSet):
        self.D = D
        self.p = p
        self.workspace = _monomials_upto(D + 1)
        self.dim = len(self.workspace)
        self._g_terms: dict[IndexPair, list[tuple[Monomial2, int]]] = {}
        self._columns: dict[tuple[IndexPair, Monomial2], list[tuple[int, int]]] = {}

    def _generator_terms(self, m: IndexPair) -> list[tuple[Monomial2, int]]:
        terms = self._g_terms.get(m)
        if terms is None:
            g = (1 / self.p.lam_pow(m)) * action_on_one(m, self.p)
            terms = list(_integer_terms(g).items())
            self._g_terms[m] = terms
        return terms

    def column(self, m: IndexPair, mono: Monomial2) -> list[tuple[int, int]]:
        """Image of a single monomial as (rank, coefficient) pairs."""
        key = (m, mono)
        column = self._columns.get(key)
        if column is None:
            accum: dict[int, int] = {}
            for (i, j), c in shift_terms({mono: 1}, m.m1, m.m2).items():
                for (g1, g2), gc in self._generator_terms(m):
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


def _integer_terms(f: Poly2) -> dict[Monomial2, int]:
    """f scaled by the lcm of its denominators: integral, and spanning the same line."""
    terms = f.terms()
    scale = lcm(*(c.denominator for c in terms.values()))
    return {mono: int(c * scale) for mono, c in terms.items()}


def _poly_to_int_row(f: Poly2, dim: int) -> list[int]:
    row = [0] * dim
    for mono, c in _integer_terms(f).items():
        row[_rank(mono)] = c
    return row


def _row_to_poly(row: list[int], workspace: list[Monomial2]) -> Poly2:
    return Poly2({workspace[r]: c for r, c in enumerate(row) if c})


def closure(seeds: list[Poly2], D: int, B: int,
            p: ParamSet) -> tuple[SubspaceBasis, ClosureResult]:
    """Smallest action-stable subspace of the degree-D level containing the seeds.

    Deterministic: seeds in the given order, box in row-major order,
    batch passes with the spanning set snapshotted at each pass start.
    The box swept is [-r, r]^2 with r = min(B, (D+2)//2), which spans
    the same images as [-B, B]^2 (see the module docstring).  The
    terminating pass doubles as an invariance certificate: it verifies
    that every single-step image of the final basis reduces to zero
    inside the workspace.
    """
    if D < 1:
        raise ValueError("degree bound D must be at least 1")
    if B < 1:
        raise ValueError("box radius B must be at least 1")
    for seed in seeds:
        if seed.total_degree() > D:
            raise ValueError(f"seed degree {seed.total_degree()} exceeds D={D}")

    table = _ActTable(D, p)
    echelon = _IntEchelon(table.dim)
    degree_rank_cap = filtration_dimension(D)       # ranks below this have degree <= D
    active: list[list[int]] = []

    for seed in seeds:
        if not seed:
            continue
        stored = echelon.insert(_poly_to_int_row(seed, table.dim))
        if stored is not None and stored[0] < degree_rank_cap:
            active.append(stored[1])

    radius = min(B, (D + 2) // 2)     # interpolation bound; see the module docstring
    box = index_box(radius)

    passes = 0
    growth: list[int] = []
    while True:
        passes += 1
        snapshot = list(active)
        added = 0
        for row in snapshot:
            nonzero = [(r, c) for r, c in enumerate(row) if c]
            for m in box:
                stored = echelon.insert(table.image(nonzero, m))
                if stored is not None:
                    added += 1
                    if stored[0] < degree_rank_cap:
                        active.append(stored[1])
        growth.append(added)
        if added == 0:
            break

    basis = SubspaceBasis((), D)
    for pivot, row in sorted(echelon.rows, key=lambda e: e[0]):
        if pivot < degree_rank_cap:
            basis = span_insert(basis, _row_to_poly(row, table.workspace))
    result = classify_span(basis, D, p)
    diagnostics = (
        f"{result.diagnostics}; passes={passes}, workspace additions per pass="
        f"{growth}; fixpoint certificate: all single-step images of the final "
        f"basis over the box [-{radius},{radius}]^2 reduce to zero in the degree-{D + 1} "
        f"workspace, and by the degree-{D + 1} interpolation bound they span the same "
        f"space as the images over [-{B},{B}]^2")
    return basis, ClosureResult(result.tag, result.dimension, diagnostics)


def classify_span(basis: SubspaceBasis, D: int, p: ParamSet) -> ClosureResult:
    """Name the subspace: ZERO, FULL level, the proper-submodule level, or OTHER."""
    if basis.degree_cap != D:
        raise ValueError("basis degree cap does not match D")
    full = filtration_dimension(D)
    n = basis.dimension
    if n == 0:
        return ClosureResult(ClosureTag.ZERO, 0, "empty span")
    if n == full:
        return ClosureResult(ClosureTag.FULL, n,
                             f"spans the whole degree-{D} level (dim {full})")
    x2 = p.vanishing_point()[1]
    vanishing = all(in_proper_submodule(v, p) for v in basis.vectors)
    if n == full - 1 and vanishing:
        return ClosureResult(
            ClosureTag.OMEGA_PRIME, n,
            f"spans the evaluation kernel at (0,{x2}) inside the degree-{D} level "
            f"(dim {n})")
    if vanishing:
        detail = (f"proper subspace of the evaluation kernel (dim {n} < {full - 1}): "
                  f"either a truncation artifact (rerun with larger B or D) or, if "
                  f"stable under enlargement, a counterexample candidate")
    elif n == full - 1:
        detail = (f"hyperplane distinct from the evaluation kernel (dim {n}): "
                  f"counterexample candidate")
    else:
        detail = (f"dim {n} < {full} with a vector not vanishing at (0,{x2}): "
                  f"either a truncation artifact (rerun with larger B or D) or, if "
                  f"stable under enlargement, a counterexample candidate")
    return ClosureResult(ClosureTag.OTHER, n, detail)
