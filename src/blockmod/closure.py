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
same span at radius r as at radius B.  After a pass the span is the
span at its start plus the images of every row of degree <= D added
before the pass (see the worklist paragraph below), and those rows span
the degree-<=D part of the span at the pass start; so the span after each pass, the
pass count, the additions per pass and the final reduced basis are all
independent of B >= r.

The passes form a worklist (semi-naive evaluation): the first pass acts
with the seeds' rows of degree <= D, each later pass only with the rows
of degree <= D that the pass before it added.  Acting again with an
older row would change nothing.  Its images depend only on the row and
m, the pass that first acted with it inserted them all, and the span
only grows, so each lies in the span at every later insert; an insert
of a vector of the span returns None and leaves the echelon as it was.
Dropping those inserts leaves every stored row, every addition, the
pass count, the additions per pass and the returned basis as they are
in a loop that acts with every row in every pass.  The rows acted on
span the degree-<=D part of the span: an elimination subtracts from a
stored row a multiple of a row with a lower pivot, so each stored row
of degree <= D is a combination of rows of degree <= D that were
returned.  The certificate follows by induction over the passes: every
row acted on had all its images over the box inserted once, and they
lie in the final span.  The terminating pass, which added nothing,
acted with the last rows added, so no row is left out.

The intersection step is free: under a degree-graded monomial order an
echelonized spanning set splits by leading-monomial degree, so the
degree-<=D part of the span is exactly the span of the rows whose pivot
has degree <= D.

The echelon is kept reduced over the integers: each stored row is
primitive (its entries have gcd 1), positive at its pivot (its highest
nonzero rank) and zero at every other pivot column.  Let den be the lcm
of the pivot entries and W_i = (den / row_i[p_i]) * row_i, so that W_i
holds den at its own pivot and zero at the others.  A vector of the
span S is fixed by its pivot coordinates, so v lies in S iff
den*v = sum_i v[p_i]*W_i; both sides agree at every pivot column, and
membership is the integer check den*v[j] == sum_i v[p_i]*W_i[j] at the
free (non-pivot) columns j alone.  Nearly every generator image passes
it, with no elimination and no coefficient growth.  An image v that
fails it leaves the nonzero residual den*v - sum_i v[p_i]*W_i, which
vanishes at every pivot column; the residual is divided by the gcd of
its entries, signed positive at its pivot and stored, and its pivot is
then eliminated from the other rows, each made primitive again.

The rows added are exactly those of fraction-free elimination.  Within
the coset v + S exactly one vector vanishes at every pivot column: two
such differ by a vector of S that vanishes at every pivot, which is
zero.  Fraction-free elimination in descending pivot order scales v by
a nonzero integer and subtracts rows, so its residual is a nonzero
multiple of that vector, and so is the residual above.  Both therefore
have the same pivot and the same primitive row positive at that pivot.
By induction over the inserts, the (pivot, row) pairs returned, the
rows the closure goes on acting with, the images it inserts, the
additions per pass, the pass count and the diagnostics are those of
the fraction-free engine.  A returned row is never modified: a later
elimination replaces a stored row with a new list.

The returned basis is read off the echelon.  The rows whose pivot has
degree <= D span the degree-<=D part of the span (see above) and are
zero at each other's pivots, so dividing each by its pivot entry gives
the reduced monic echelon basis of that part, which is unique.

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
from operator import mul

from .omega import ParamSet, generator_image, in_proper_submodule
from .poly import IndexPair, Monomial2, Poly2, grlex_key, index_box, printable, shift_terms


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
    and each pivot monomial occurs in no other vector.  :func:`closure`
    returns one, read off its integer echelon; :func:`span_insert` builds
    one a vector at a time.
    """

    __slots__ = ("vectors", "degree_cap")

    def __init__(self, vectors: tuple[Poly2, ...] = (), degree_cap: int = 0):
        self.vectors = tuple(vectors)
        self.degree_cap = degree_cap

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
    """Reduced echelon basis of span(basis + {v}); unchanged if v is in the span.

    The rational reference for the integer echelon of :func:`closure`,
    which does not call it: tests build bases and compare spans with it.
    """
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


def _primitive(row: list[int], pivot: int) -> list[int]:
    """row divided by the gcd of its entries and signed positive at pivot."""
    g = gcd(*row)
    if row[pivot] < 0:
        g = -g
    return [x // g for x in row] if g != 1 else row


class _IntEchelon:
    """Reduced integer echelon over the workspace monomial basis.

    rows holds (pivot rank, row) pairs in descending pivot order; each
    row is primitive, positive at its pivot and zero at every other
    pivot column.  Membership is checked at the free columns only (see
    the module docstring).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._index([])

    def insert(self, row: list[int]) -> tuple[int, list[int]] | None:
        """Store and return the primitive residual of row, or None if row is in the span."""
        coeffs = [row[p] for p in self._pivots]
        den = self._den
        for j, weights in self._free:
            if den * row[j] != sum(map(mul, coeffs, weights)):
                break
        else:
            return None
        residual = [0] * self.dim
        for j, weights in self._free:
            residual[j] = den * row[j] - sum(map(mul, coeffs, weights))
        pivot = max(j for j, _ in self._free if residual[j])
        residual = _primitive(residual, pivot)
        lead = residual[pivot]
        rows = []
        for p, existing in self.rows:
            c = existing[pivot]
            if c:
                existing = _primitive([lead * x - c * y for x, y in zip(existing, residual)], p)
            rows.append((p, existing))
        entry = (pivot, residual)
        position = 0
        while position < len(rows) and rows[position][0] > pivot:
            position += 1
        rows.insert(position, entry)
        self._index(rows)
        return entry

    def _index(self, rows: list[tuple[int, list[int]]]) -> None:
        """Store rows with their pivots, den (the lcm of the pivot entries)
        and, for each free column j, the entries W_i[j] in row order."""
        self.rows = rows
        self._pivots = [p for p, _ in rows]
        self._den = lcm(*(row[p] for p, row in rows))
        scales = [self._den // row[p] for p, row in rows]
        pivots = set(self._pivots)
        self._free = [(j, [s * row[j] for s, (_, row) in zip(scales, rows)])
                      for j in range(self.dim) if j not in pivots]


class _ActTable:
    """Per-index generator action on workspace monomials, integer scaled.

    For each box index m the image of a monomial under L(m) is the
    monomial shifted by m (:func:`poly.shift_terms`, the same expansion
    as ``Poly2.shifted``) times g_m, the image of 1 under L(m).  The
    scalar lambda^m is left out: the table multiplies by the integer
    numerators N of lambda^-m * g_m = N / den, in lowest terms
    (:func:`omega.generator_image` without ``scaled``), that is by
    lambda^-m * g_m rescaled by the positive integer den.  A fixed
    nonzero rational rescaling per index keeps every image integral
    without changing its span.
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
            terms = list(generator_image(m, self.p, scaled=False)._nums.items())
            self._g_terms[m] = terms
        return terms

    def column(self, m: IndexPair, mono: Monomial2) -> list[tuple[int, int]]:
        """Image of a single monomial as (rank, coefficient) pairs."""
        key = (m, mono)
        column = self._columns.get(key)
        if column is None:
            accum: dict[int, int] = {}
            for (i, j), c in shift_terms({mono: 1}, m.m1, m.m2)[0].items():
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


def _poly_to_int_row(f: Poly2, dim: int) -> list[int]:
    """The integer numerators of f, as a row over the workspace ranks."""
    row = [0] * dim
    for mono, n in f._nums.items():
        row[_rank(mono)] = n
    return row


def _monic_poly(pivot: int, row: list[int], workspace: list[Monomial2]) -> Poly2:
    """row / row[pivot]: a primitive row over its positive pivot entry, in lowest terms."""
    return Poly2._of({workspace[r]: c for r, c in enumerate(row) if c}, row[pivot])


def closure(seeds: list[Poly2], D: int, B: int,
            p: ParamSet) -> tuple[SubspaceBasis, ClosureResult]:
    """Smallest action-stable subspace of the degree-D level containing the seeds.

    Deterministic: seeds in the given order, box in row-major order,
    batch passes, each acting only with the rows the pass before it
    added (the first with the seeds' rows): acting again with an older
    row would add nothing (see the module docstring).  The box swept is
    [-r, r]^2 with r = min(B, (D+2)//2), which spans the same images as
    [-B, B]^2.  The fixpoint certificate holds by induction: every row
    of degree <= D was acted on once, by the pass after the one that
    added it, and its images lie in the final span; the terminating pass
    added nothing, so every single-step image of the final basis lies in
    the final span inside the workspace.
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
    done = 0        # active[:done] have been acted on; see the module docstring
    while True:
        passes += 1
        fresh, done = active[done:], len(active)
        added = 0
        for row in fresh:
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

    basis = SubspaceBasis(tuple(_monic_poly(pivot, row, table.workspace)
                                for pivot, row in echelon.rows if pivot < degree_rank_cap), D)
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
    x2 = printable(p.vanishing_point()[1])
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
