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

Each row's images enter the echelon through their Taylor coefficients
in m.  Drop the scalar lambda^m (it does not change a span).  For a row
v of degree <= D the image is L(m).v = v(d - m) * g_m(d), and
g_m = (m2+q)*d1 - m1*(d2+q*alpha) is affine in m: with q = qn/qd,
alpha = an/ad and s = qd*ad, s*g_m = P0 + m1*P1 + m2*P2 with the
integral P0 = s*q*d1, P1 = -s*(d2 + q*alpha) and P2 = s*d1.  By
Taylor's formula v(d - m) = sum over beta of m^beta * w_beta, with
w_beta = (-1)^|beta| * (partial^beta v) / beta!; its entries are entries
of v times binomial coefficients, so w_beta is integral.  Hence

    s * L(m).v  =  sum over |gamma| <= D+1 of  m^gamma * C_gamma,
    C_gamma     =  P0*w_gamma + P1*w_(gamma-e1) + P2*w_(gamma-e2),

a term whose index is negative being absent; every C_gamma is integral
and lies in the degree-(D+1) workspace.

The engine inserts, for each row, vectors that span exactly its images
over the box G = [-r, r]^2 with r = min(B, (D+2)//2).  On the integers
of [-r, r], x^k equals its remainder modulo z(x) = prod over t in
[-r, r] of (x - t), and z is monic and integral, so on G every m^gamma
is an integer combination of the m^delta with delta1, delta2 <= 2r, and
s * L(m).v = sum over delta of m^delta * C'_delta with integral C'_delta.
These m^delta are linearly independent as functions on G (a tensor
Vandermonde matrix on 2r+1 distinct points per axis is invertible), so
each C'_delta is a rational combination of the images over G, and each
image over G is a combination of the C'_delta: the images of v over G
span exactly span{C'_delta}, and the engine inserts the nonzero
C'_delta.  When r = (D+2)//2, 2r >= D+1, no exponent is reduced, the
C'_delta are the C_gamma themselves, and the image at any m in Z^2 is a
combination of them: the images over G, over [-B, B]^2 for any B >= r
and over all of Z^2 span the same space.  When B < (D+2)//2, G is the
whole box [-B, B]^2.  So each row contributes the same span at radius r
as at radius B.  After a pass the span is the span at its start plus
the images of every row of degree <= D added before the pass (see the
worklist paragraph below), and those rows span the degree-<=D part of
the span at the pass start; so the span after each pass, the pass
count, the additions per pass and the final reduced basis are all
independent of B >= r, and equal to those of a loop that inserts every
image over G one index at a time.  The vectors inserted differ from
those images, so the inserts made and the rows stored on the way do
not.

The passes form a worklist (semi-naive evaluation): the first pass acts
with the seeds' rows of degree <= D, each later pass only with the rows
of degree <= D that the pass before it added.  Acting again with an
older row would change nothing.  The vectors inserted for it depend
only on the row and G, the pass that first acted with it inserted them
all, and the span only grows, so each lies in the span at every later
insert; an insert of a vector of the span returns None and leaves the
echelon as it was.
Dropping those inserts leaves every stored row, every addition, the
pass count, the additions per pass and the returned basis as they are
in a loop that acts with every row in every pass.  The rows acted on
span the degree-<=D part of the span: an elimination subtracts from a
stored row a multiple of a row with a lower pivot, so each stored row
of degree <= D is a combination of rows of degree <= D that were
returned.  The certificate follows by induction over the passes: every
row acted on had vectors spanning all its images over the box inserted
once, and they lie in the final span.  The terminating pass, which
added nothing, acted with the last rows added, so no row is left out.

The intersection step is free: under the degree-graded order of the
workspace columns (:func:`poly.monomial_rank`) an echelonized spanning
set splits by leading-monomial degree, so the degree-<=D part of the
span is exactly the span of the rows whose pivot has degree <= D.

The echelon is kept reduced over the integers: each stored row is
primitive (its entries have gcd 1), positive at its pivot (its highest
nonzero rank) and zero at every other pivot column.  Let den be the lcm
of the pivot entries and W_i = (den / row_i[p_i]) * row_i, so that W_i
holds den at its own pivot and zero at the others.  A vector of the
span S is fixed by its pivot coordinates, so v lies in S iff
den*v = sum_i v[p_i]*W_i; both sides agree at every pivot column, and
membership is the vanishing of d_t = den*v[j_t] - sum_i v[p_i]*W_i[j_t]
at the free (non-pivot) columns j_0 < j_1 < ... alone.

The echelon tests all the d_t with one integer dot product (Kronecker
substitution).  It keeps a slot width w, a slot u_t for each free
column j_t, with u_0 < u_1 < ..., and one weight per column:
den * 2^(w*u_t) at j_t and -sum_t W_i[j_t] * 2^(w*u_t) at p_i, so that
the dot product of the weights with v is P = sum_t d_t * 2^(w*u_t).
The width keeps every |d_t| below 2^(w-1).  Let c bound the entries of
v, |v[j]| <= c, and M_i the entries of row i, |row_i[j]| <= M_i; then

    |d_t|  <=  c * (den + sum_i (den / row_i[p_i]) * M_i)  =  c*K,

and any w >= bitlen(c*K) + 1 gives |d_t| <= c*K < 2^(w-1).  The
echelon keeps c as a capacity: an insert with a larger entry raises c
to 2^b - 1, b that entry's bit length.  A slot that holds no free
column holds digit 0, so P is a base-2^w expansion with the digit d_t
at u_t and 0 at every other slot, all in [-2^(w-1), 2^(w-1)).  Such
digits are unique: two expansions of one integer differ by digits e_t
with sum_t e_t * 2^(w*t) = 0 and every |e_t| < 2^w, so 2^w divides
e_0, e_0 = 0, and so on up.  Hence P = 0 exactly when every
d_t is zero, that is when v lies in S; nearly every generator image
does, with no elimination and no coefficient growth.  Otherwise the
d_t are P's balanced digits, read lowest first: the low w bits, less
2^w when they are 2^(w-1) or more, the borrowed 2^w going to the rest,
the zero digit of an empty slot skipped.
They make the nonzero residual den*v - sum_i v[p_i]*W_i, which holds
d_t at j_t and vanishes at every pivot column; the residual is divided
by the gcd of its entries, signed positive at its pivot and stored, and
its pivot is then eliminated from the other rows, each made primitive
again.

The weights are kept across inserts.  A compaction sets
w = bitlen(c*K) + 1 and u_t = t and builds every weight.  An addition
whose pivot is the free column j_k updates them instead:

* a row the addition does not eliminate from has a 0 at j_k, so its
  weight, whose terms are its entries at the free columns, is the same
  over the free columns that remain; the new row and each row the
  addition eliminates from are packed again over those columns;
* the slot u_k is left empty: no weight has a term there, so it holds
  digit 0 in every packed value, and the uniqueness argument and the
  read-off above stand unchanged;
* when den grows to den' = f*den for an integer f, every weight is
  multiplied by f, since den'/row_i[p_i] = f * (den/row_i[p_i]);
* the width stays: a width above the minimum reads the same digits.

A compaction runs only when c*K, after a capacity raise or an addition,
no longer fits the width, when den' is not a multiple of den, or when
the empty slots outnumber the free ones, which keeps every weight
within twice its compacted length.

The rows added are exactly those of fraction-free elimination.  Within
the coset v + S exactly one vector vanishes at every pivot column: two
such differ by a vector of S that vanishes at every pivot, which is
zero.  Fraction-free elimination in descending pivot order scales v by
a nonzero integer and subtracts rows, so its residual is a nonzero
multiple of that vector, and so is the residual above.  Both therefore
have the same pivot and the same primitive row positive at that pivot.
By induction over the inserts, the (pivot, row) pairs returned, the
rows the closure goes on acting with, the vectors it inserts, the
additions per pass, the pass count and the diagnostics are those of
the fraction-free engine.  A returned row is never modified: a later
elimination replaces a stored row with a new list.

The returned basis is read off the echelon (:func:`_reduced_basis`).
The rows whose pivot has degree <= D span the degree-<=D part of the
span (see above) and are zero at each other's pivots, so dividing each
by its pivot entry gives the reduced monic echelon basis of that part,
which is unique.  :func:`span_insert` fills an echelon of its own over
the monomials of degree <= its cap and reads its result off the same
way.

Classification of the fixpoint is by dimension plus one exact
evaluation: the full filtration level has dimension (D+1)(D+2)/2, and
the proper-submodule level is the hyperplane of polynomials vanishing
at (0, -q*alpha).  Any other outcome is reported as OTHER, never
retried silently.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import compress
from math import gcd, lcm
from operator import lshift, mul
from typing import NamedTuple

from .omega import ParamSet, generator_image, in_proper_submodule
from .poly import (IndexPair, Monomial2, Poly2, _binomial_row, monomial_rank, monomials_upto,
                   printable)


class ClosureTag(Enum):
    ZERO = "ZERO"
    OMEGA_PRIME = "OMEGA_PRIME"
    FULL = "FULL"
    OTHER = "OTHER"


class ClosureResult(NamedTuple):
    tag: ClosureTag
    dimension: int
    diagnostics: str


def filtration_dimension(degree: int) -> int:
    """Number of monomials of total degree <= degree in two variables."""
    return (degree + 1) * (degree + 2) // 2


class SubspaceBasis(namedtuple("SubspaceBasis", "vectors degree_cap")):
    """Reduced echelon basis of a polynomial subspace of degree <= degree_cap.

    Vectors are monic, ordered by strictly decreasing graded-lex pivot,
    and each pivot monomial occurs in no other vector.  :func:`closure`
    and :func:`span_insert` read theirs off an integer echelon
    (:func:`_reduced_basis`).
    """

    __slots__ = ()

    def __new__(cls, vectors: tuple[Poly2, ...] = (), degree_cap: int = 0):
        return super().__new__(cls, tuple(vectors), degree_cap)

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def span_insert(basis: SubspaceBasis, v: Poly2) -> SubspaceBasis:
    """Reduced echelon basis of span(basis.vectors + [v]); ``basis`` itself if v is in that span.

    The vectors of ``basis`` and then v are inserted into an integer
    echelon over the monomials of degree <= basis.degree_cap.  The
    reduced monic basis of a span is unique, so the result is the one
    of rational elimination as well, whether or not ``basis`` is reduced.
    """
    for f in (*basis.vectors, v):
        if f.total_degree() > basis.degree_cap:
            raise ValueError(
                f"vector of degree {f.total_degree()} exceeds the cap {basis.degree_cap}")
    workspace = monomials_upto(basis.degree_cap)
    echelon = _IntEchelon(len(workspace))
    for f in basis.vectors:
        echelon.insert(_poly_to_int_row(f, echelon.dim))
    if echelon.insert(_poly_to_int_row(v, echelon.dim)) is None:
        return basis
    return _reduced_basis(echelon, workspace, basis.degree_cap)


# --- integer workspace engine -------------------------------------------------

def _primitive(row: list[int], pivot: int) -> list[int]:
    """row divided by the gcd of its entries and signed positive at pivot."""
    g = gcd(*row)
    if row[pivot] < 0:
        g = -g
    return [x // g for x in row] if g != 1 else row


def _magnitude(row: list[int]) -> int:
    """The largest absolute value of an entry of a nonempty row."""
    return max(max(row), -min(row))


class _IntEchelon:
    """Reduced integer echelon over the workspace monomial basis.

    rows holds (pivot rank, row) pairs in descending pivot order; each
    row is primitive, positive at its pivot and zero at every other
    pivot column.  Membership is one dot product of the row with packed
    integer weights, one slot of w bits per free column, sized for rows
    whose entries are at most the capacity in absolute value (see the
    module docstring).  An addition packs again only the new row and the
    rows it eliminates from, and empties the slot of its pivot; the
    weights are compacted (:meth:`_weigh`) only when the slots must
    widen, when the new lcm of the pivot entries is not a multiple of
    the old one, or when empty slots outnumber free ones.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[tuple[int, list[int]]] = []
        self._den = 1                           # the lcm of the pivot entries
        self._free = list(range(dim))           # the free columns, ascending
        self._free_mask = [True] * dim
        self._capacity = 0
        self._magnitudes: dict[int, int] = {}   # pivot -> largest |entry| of its row
        self._bound = 1                         # K = den + sum_i (den / row_i[p_i]) * M_i
        self._weigh()

    def insert(self, row: list[int]) -> tuple[int, list[int]] | None:
        """Store and return the primitive residual of row, or None if row is in the span."""
        nonzero = list(compress(row, row))      # the entries v[j] != 0, in column order
        if not nonzero:
            return None
        top = max(max(nonzero), -min(nonzero))
        if top > self._capacity:
            self._capacity = (1 << top.bit_length()) - 1
            if (self._capacity * self._bound).bit_length() >= self._width:
                self._weigh()
        packed = sum(map(mul, compress(self._weights, row), nonzero))
        if not packed:
            return None
        pivot, residual = self._residual(packed)
        residual = _primitive(residual, pivot)
        lead = residual[pivot]
        magnitudes = self._magnitudes
        entry = (pivot, residual)
        repack = [entry]
        rows = []
        for p, existing in self.rows:
            c = existing[pivot]
            if c:
                existing = _primitive([lead * x - c * y for x, y in zip(existing, residual)], p)
                magnitudes[p] = _magnitude(existing)
                repack.append((p, existing))
            rows.append((p, existing))
        magnitudes[pivot] = _magnitude(residual)
        position = 0
        while position < len(rows) and rows[position][0] > pivot:
            position += 1
        rows.insert(position, entry)
        self.rows = rows
        den = lcm(*(row[p] for p, row in rows))
        self._bound = den + sum((den // row[p]) * magnitudes[p] for p, row in rows)
        free = self._free
        at = free.index(pivot)
        self._slots[self._shifts[at] // self._width] = None
        del free[at], self._shifts[at]
        self._free_mask[pivot] = False
        scale, rest = divmod(den, self._den)
        self._den = den
        if (rest or (self._capacity * self._bound).bit_length() >= self._width
                or len(self._slots) > 2 * len(free)):
            self._weigh()
        else:
            if scale != 1:
                self._weights = [scale * x for x in self._weights]
            self._pack(repack)
        return entry

    def _residual(self, packed: int) -> tuple[int, list[int]]:
        """The pivot and the residual d_t at j_t of a nonzero packed value:
        its balanced base-2^w digits, lowest first, an empty slot's digit
        (always 0) skipped; the pivot is the column of the highest nonzero one."""
        width = self._width
        mask, half, carry = (1 << width) - 1, 1 << (width - 1), 1 << width
        residual = [0] * self.dim
        for pivot in self._slots:
            digit = packed & mask
            packed >>= width
            if digit & half:
                digit -= carry
                packed += 1
            if pivot is not None:
                residual[pivot] = digit
            if not packed:              # the highest nonzero digit: the pivot
                break
        return pivot, residual

    def _pack(self, rows: list[tuple[int, list[int]]]) -> None:
        """Write the weight of each stored (p, row) at its pivot p:
        -(den // row[p]) * sum over the free columns j_t of row[j_t] << w*u_t."""
        den, mask, shifts, weights = self._den, self._free_mask, self._shifts, self._weights
        for p, row in rows:
            weights[p] = -(den // row[p]) * sum(map(lshift, compress(row, mask), shifts))

    def _weigh(self) -> None:
        """Compact: the slot width w = bitlen(capacity * K) + 1, the slot u_t = t
        of the t-th free column j_t, and the weight of every column: den << w*t
        at j_t, and the packed row (:meth:`_pack`) at each pivot."""
        width = self._width = (self._capacity * self._bound).bit_length() + 1
        free, den = self._free, self._den
        self._slots: list[int | None] = list(free)      # column per slot, None if empty
        shifts = self._shifts = list(range(0, width * len(free), width))     # w*u_t
        weights = self._weights = [0] * self.dim
        for j, shift in zip(free, shifts):
            weights[j] = den << shift
        self._pack(self.rows)


class _ActTable:
    """Taylor coefficients in m of the generator action on one row, integer scaled.

    With q = qn/qd and alpha = an/ad, s = qd*ad clears the denominators
    of g_m / lambda^m = (m2 + q)*d1 - m1*(d2 + q*alpha), which is affine
    in m: s * g_m / lambda^m = P0 + m1*P1 + m2*P2, with ``parts`` holding
    P0, P1 and P2 as (monomial, integer) terms, read off
    :func:`omega.generator_image` at m = (0,0), (1,0) and (0,1) for the
    parameters (q, 1, 1, alpha), whose images are the lambda-free ones.
    The scalar lambda^m is left out (see the module docstring).  The
    class keeps the name of the per-index action table it replaced,
    which ``perfbench/layers.py`` binds as the ``closure.act_image``
    layer.
    """

    def __init__(self, D: int, p: ParamSet):
        self.workspace = monomials_upto(D + 1)
        self.dim = len(self.workspace)
        s = p.q.denominator * p.alpha.denominator
        unit = ParamSet(p.q, 1, 1, p.alpha)
        g0, g1, g2 = (generator_image(IndexPair(*m), unit) for m in ((0, 0), (1, 0), (0, 1)))
        self.parts = tuple([(mono, n * s // g._den) for mono, n in g._nums.items()]
                           for g in (g0, g1 - g0, g2 - g0))
        self._binomial = [_binomial_row(e, 1) for e in range(D + 1)]

    def image(self, nonzero: list[tuple[int, int]]) -> list[tuple[Monomial2, list[int]]]:
        """The nonzero C_gamma of a row of degree <= D given as (rank, coefficient)
        pairs, as (gamma, row) pairs: s * L(m).v / lambda^m = sum m^gamma * C_gamma.

        v(d - m) = sum m^beta * w_beta, where w_beta holds the entry of v at
        (i + beta1, j + beta2) times comb(i + beta1, i) * comb(j + beta2, j)
        * (-1)^|beta| at (i, j), the terms of :func:`poly._binomial_row` at
        m = 1; so C_gamma = P0*w_gamma + P1*w_(gamma-e1) + P2*w_(gamma-e2).
        """
        w: dict[Monomial2, list[tuple[int, int, int]]] = {}
        binomial = self._binomial
        for rank, c in nonzero:
            a, b = self.workspace[rank]
            for i, f1 in binomial[a]:
                for j, f2 in binomial[b]:
                    w.setdefault((a - i, b - j), []).append((i, j, c * f1 * f2))
        p0, p1, p2 = self.parts
        coefficients: dict[Monomial2, list[int]] = {}
        for (b1, b2), terms in w.items():
            for gamma, part in (((b1, b2), p0), ((b1 + 1, b2), p1), ((b1, b2 + 1), p2)):
                row = coefficients.get(gamma)
                if row is None:
                    row = coefficients[gamma] = [0] * self.dim
                for i, j, c in terms:
                    for (g1, g2), gc in part:
                        row[monomial_rank((i + g1, j + g2))] += c * gc
        return [(gamma, row) for gamma, row in coefficients.items() if any(row)]


def _grid_reduction(radius: int, top: int) -> list[list[tuple[int, int]]]:
    """For k = 0..top, the nonzero terms (j, c) of x^k mod z(x), where
    z(x) = prod over t in [-radius, radius] of (x - t).

    z is monic with integer coefficients, so every remainder is integral,
    and x^k agrees with its remainder at every integer of [-radius, radius].
    For k <= 2*radius the remainder is x^k itself.
    """
    z = [1]                                 # coefficients of z, lowest degree first
    for t in range(-radius, radius + 1):    # z <- x*z - t*z
        z = [a - t * b for a, b in zip([0] + z, z + [0])]
    power = [1] + [0] * (2 * radius)        # x^0, as a remainder of degree <= 2*radius
    out = []
    for _ in range(top + 1):
        out.append([(j, c) for j, c in enumerate(power) if c])
        lead, power = power[-1], [0] + power[:-1]
        if lead:
            power = [c - lead * zc for c, zc in zip(power, z)]
    return out


def _on_grid(coefficients: list[tuple[Monomial2, list[int]]],
             reduction: list[list[tuple[int, int]]]) -> list[tuple[Monomial2, list[int]]]:
    """The nonzero C'_delta, as (delta, row) pairs, with sum m^gamma * C_gamma =
    sum m^delta * C'_delta at every m of the box: each m^gamma replaced by
    (m1^gamma1 mod z) * (m2^gamma2 mod z) (:func:`_grid_reduction`).  With
    no exponent above 2*radius these are the C_gamma themselves, in order.
    """
    folded: dict[Monomial2, list[int]] = {}
    for (g1, g2), row in coefficients:
        for d1, c1 in reduction[g1]:
            for d2, c2 in reduction[g2]:
                c = c1 * c2
                acc = folded.get((d1, d2))
                if acc is None:
                    folded[(d1, d2)] = row if c == 1 else [c * y for y in row]
                else:
                    folded[(d1, d2)] = [x + c * y for x, y in zip(acc, row)]
    return [(delta, row) for delta, row in folded.items() if any(row)]


def _poly_to_int_row(f: Poly2, dim: int) -> list[int]:
    """The integer numerators of f, as a row over the workspace ranks."""
    row = [0] * dim
    for mono, n in f._nums.items():
        row[monomial_rank(mono)] = n
    return row


def _reduced_basis(echelon: _IntEchelon, workspace: list[Monomial2], D: int) -> SubspaceBasis:
    """The reduced monic basis of the degree-<=D part of the echelon's span: the
    rows whose pivot has degree <= D, each over its positive pivot entry (see
    the module docstring); a primitive row over that entry is in lowest terms."""
    cap = filtration_dimension(D)
    return SubspaceBasis(
        tuple(Poly2._of({workspace[r]: c for r, c in enumerate(row) if c}, row[pivot])
              for pivot, row in echelon.rows if pivot < cap), D)


def closure(seeds: list[Poly2], D: int, B: int,
            p: ParamSet) -> tuple[SubspaceBasis, ClosureResult]:
    """Smallest action-stable subspace of the degree-D level containing the seeds.

    Deterministic: seeds in the given order, batch passes, each acting
    only with the rows the pass before it added (the first with the
    seeds' rows): acting again with an older row would add nothing (see
    the module docstring).  Each row acted on contributes its Taylor
    coefficients C_gamma in m (:meth:`_ActTable.image`), folded onto the
    box [-r, r]^2 with r = min(B, (D+2)//2) (:func:`_on_grid`); they span
    exactly its images over that box, which span the same space as its
    images over [-B, B]^2.  At r = (D+2)//2, where 2r >= D+1, no exponent
    is reduced: the fold is skipped and the C_gamma themselves are
    inserted.  The fixpoint certificate holds by induction: every row of
    degree <= D was acted on once, by the pass after the one that added
    it, and the vectors it gave, of which each of its images over the
    box is a combination, lie in the final span; the terminating pass
    added nothing, so every single-step image of the final basis over
    the box lies in the final span inside the workspace.
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
    # at 2r >= D+1 no exponent is reduced: the C_gamma are inserted as they are
    reduction = _grid_reduction(radius, D + 1) if 2 * radius < D + 1 else None

    passes = 0
    growth: list[int] = []
    done = 0        # active[:done] have been acted on; see the module docstring
    while True:
        passes += 1
        fresh, done = active[done:], len(active)
        added = 0
        for row in fresh:
            coefficients = table.image([(r, c) for r, c in enumerate(row) if c])
            if reduction is not None:
                coefficients = _on_grid(coefficients, reduction)
            for _, vector in coefficients:
                stored = echelon.insert(vector)
                if stored is not None:
                    added += 1
                    if stored[0] < degree_rank_cap:
                        active.append(stored[1])
        growth.append(added)
        if added == 0:
            break

    basis = _reduced_basis(echelon, table.workspace, D)
    result = classify_span(basis, p)
    diagnostics = (
        f"{result.diagnostics}; passes={passes}, workspace additions per pass="
        f"{growth}; fixpoint certificate: all single-step images of the final "
        f"basis over the box [-{radius},{radius}]^2 reduce to zero in the degree-{D + 1} "
        f"workspace, and by the degree-{D + 1} interpolation bound they span the same "
        f"space as the images over [-{B},{B}]^2")
    return basis, ClosureResult(result.tag, result.dimension, diagnostics)


def classify_span(basis: SubspaceBasis, p: ParamSet) -> ClosureResult:
    """Name the subspace: ZERO, FULL level, the proper-submodule level, or OTHER."""
    D = basis.degree_cap        # the level the span is classified in
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
