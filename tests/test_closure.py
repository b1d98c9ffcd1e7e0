import itertools
import re
from fractions import Fraction
from math import gcd

import pytest

from blockmod import closure as engine
from blockmod import poly
from blockmod.blockalg import AlgebraElement
from blockmod.closure import (ClosureTag, SubspaceBasis, classify_span, closure,
                              filtration_dimension, span_insert)
from blockmod.omega import ParamSet, act, generator_image
from blockmod.poly import IndexPair, Poly2, grlex_key
from blockmod.prng import SplitMix64
from blockmod.suites import sample_poly2

from oracles import BoxActTable, rational_basis, rational_contains, rational_span_insert


# --- an independent fixpoint oracle ------------------------------------------
# Straightforward dense row reduction over Fractions: gather the current
# spanning set plus every one-step image, reduce the whole batch from
# scratch, intersect with the low-degree part, and repeat until the
# dimension stops growing.  Shares no code with the engine.

def _monomials(degree):
    return [(a, d - a) for d in range(degree + 1) for a in range(d + 1)]


def _rref(rows):
    rows = [dict(r) for r in rows if r]
    basis = []
    for row in rows:
        for pivot, vec in basis:
            c = row.get(pivot)
            if c:
                for mono, coeff in vec.items():
                    acc = row.get(mono, Fraction(0)) - c * coeff
                    if acc:
                        row[mono] = acc
                    elif mono in row:
                        del row[mono]
        if not row:
            continue
        pivot = max(row, key=grlex_key)
        inv = 1 / row[pivot]
        basis.append((pivot, {mono: c * inv for mono, c in row.items()}))
    basis.sort(key=lambda pv: grlex_key(pv[0]), reverse=True)
    return basis


def oracle_closure(seeds, D, B, p, growth=None):
    """Reference fixpoint: returns the low-degree basis as {pivot: dict} rows.

    If a list is given as growth, the workspace dimension gained in each
    pass is appended to it.
    """
    spanning = [seed.terms() for seed in seeds if seed]
    while True:
        basis = _rref(spanning)
        low = [vec for pivot, vec in basis if sum(pivot) <= D]
        images = []
        for vec in low:
            f = Poly2(vec)
            for a in range(-B, B + 1):
                for b in range(-B, B + 1):
                    image = act(AlgebraElement.basis(IndexPair(a, b)), f, p)
                    if image:
                        images.append(image.terms())
        new_basis = _rref([vec for _, vec in basis] + images)
        if growth is not None:
            growth.append(len(new_basis) - len(basis))
        new_low = [vec for pivot, vec in new_basis if sum(pivot) <= D]
        if len(new_low) == len(low):
            return new_low
        spanning = [vec for _, vec in new_basis]


def spans_agree(basis: SubspaceBasis, oracle_rows):
    if basis.dimension != len(oracle_rows):
        return False
    oracle_basis = rational_basis((Poly2(row) for row in oracle_rows), basis.degree_cap)
    return all(rational_contains(oracle_basis, v) for v in basis.vectors)


# --- span_insert ---------------------------------------------------------------

def leading_monomials(basis):
    return [v.leading_monomial() for v in basis.vectors]


def test_span_insert_examples():
    empty = SubspaceBasis((), degree_cap=3)
    one = span_insert(empty, poly.D1)
    assert one.dimension == 1 and leading_monomials(one) == [(1, 0)]
    # linear dependence leaves the basis untouched
    again = span_insert(one, 2 * poly.D1)
    assert again is one
    mixed = span_insert(one, poly.D1 + poly.D2)
    assert mixed.dimension == 2
    assert set(leading_monomials(mixed)) == {(1, 0), (0, 1)}
    # reduced echelon: the d1 vector lost its d2 component
    assert mixed.vectors == (poly.D1, poly.D2) or mixed.vectors == (poly.D2, poly.D1)


def test_span_insert_order_independent_span():
    a = span_insert(span_insert(SubspaceBasis((), 3), poly.D1 + poly.D2), poly.D1)
    assert a.dimension == 2
    assert rational_contains(a, poly.D2) and rational_contains(a, poly.D1 - 7 * poly.D2)
    assert not rational_contains(a, Poly2.const(1))


def test_span_insert_degree_cap():
    with pytest.raises(ValueError, match="exceeds"):
        span_insert(SubspaceBasis((), 2), poly.D1**3)


def test_span_insert_invariants_randomized():
    rng = SplitMix64(41)
    basis = SubspaceBasis((), 4)
    for _ in range(25):
        terms = [((rng.int_between(0, 2), rng.int_between(0, 2)),
                  rng.fraction(nonzero=True)) for _ in range(3)]
        basis = span_insert(basis, Poly2(terms))
    pivots = leading_monomials(basis)
    assert pivots == sorted(pivots, key=grlex_key, reverse=True)
    for i, v in enumerate(basis.vectors):
        assert v.coefficient(*pivots[i]) == 1
        for j, other in enumerate(basis.vectors):
            if i != j:
                assert other.coefficient(*pivots[i]) == 0


def _random_poly(rng, degree, terms):
    monomials = _monomials(degree)
    return Poly2([(rng.choice(monomials), rng.fraction(nonzero=True)) for _ in range(terms)])


def test_span_insert_matches_rational_oracle_randomized():
    # the integer echelon of span_insert against rational elimination, on
    # reduced bases: a vector of the span returns the basis itself, any
    # other vector the oracle's basis, vector for vector
    rng = SplitMix64(48)
    inside = outside = 0
    for _ in range(60):
        cap = rng.int_between(0, 3)
        basis = rational_basis([_random_poly(rng, cap, rng.int_between(1, 3))
                                for _ in range(rng.int_between(0, 6))], cap)
        combination = sum((rng.fraction() * v for v in basis.vectors), Poly2())
        assert span_insert(basis, combination) is basis
        inside += 1
        v = _random_poly(rng, cap, rng.int_between(1, 4))
        expected = rational_span_insert(basis, v)
        got = span_insert(basis, v)
        assert got == expected, (basis, v)
        assert (got is basis) == (expected is basis)
        outside += expected is not basis
        too_high = v * poly.D1 ** (cap + 1 - max(v.total_degree(), 0))
        for insert in (span_insert, rational_span_insert):
            with pytest.raises(ValueError, match=f"degree {cap + 1} exceeds the cap {cap}"):
                insert(basis, too_high)
    assert inside == 60 and 20 < outside < 60


def test_span_insert_accepts_a_basis_that_is_not_reduced():
    # hand-built bases: not monic, not reduced, with dependent, repeated and
    # zero vectors; span_insert returns the basis itself for a vector of its
    # span and otherwise the reduced basis of the whole span
    rng = SplitMix64(49)
    examples = [((2 * poly.D1 + poly.D2, poly.D1 + poly.D2), poly.D2 - poly.D1),
                ((2 * poly.D1 + poly.D2, poly.D1 + poly.D2), Poly2.const(1)),
                ((poly.D1, Poly2(), 3 * poly.D1), poly.D1 * poly.D2),
                ((), Poly2())]
    for _ in range(40):
        cap = rng.int_between(1, 3)
        vectors = [_random_poly(rng, cap, rng.int_between(1, 3))
                   for _ in range(rng.int_between(1, 5))]
        vectors.append(rng.fraction(nonzero=True) * rng.choice(vectors) + rng.choice(vectors))
        examples.append((tuple(vectors), _random_poly(rng, cap, 2)))
    outside = 0
    for vectors, v in examples:
        cap = max(2, *(f.total_degree() for f in vectors + (v,)))
        handmade = SubspaceBasis(vectors, cap)
        got = span_insert(handmade, v)
        if rational_contains(rational_basis(vectors, cap), v):
            assert got is handmade, (vectors, v)
        else:
            assert got == rational_basis(vectors + (v,), cap), (vectors, v)
            outside += 1
    assert 10 < outside < len(examples)
    with pytest.raises(ValueError, match="degree 3 exceeds the cap 2"):
        span_insert(SubspaceBasis((poly.D1 ** 3,), 2), poly.D1)


# --- the reduced echelon against the fraction-free oracle --------------------
# The engine's echelon as it was before it was kept reduced: every insert
# runs a full fraction-free elimination.  The module docstring proves that
# both return the same (pivot, row) on every insert; these tests check it
# call by call.

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


class CheckedEchelon(engine._IntEchelon):
    """The engine's echelon, compared with the oracle on every insert.

    The invariants are checked in full after every addition; an insert
    that adds nothing must leave the rows equal to the last checked ones.
    Every row returned so far must still hold the values it was returned
    with, because the closure goes on acting with it.
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
            self.checked_rows = [(pivot, list(r)) for pivot, r in self.rows]
        return stored


def rational_low_basis(oracle, D):
    """The rational oracle's reduced basis of the oracle rows of degree <= D."""
    workspace = engine._monomials_upto(D + 1)
    return rational_basis((Poly2({workspace[r]: c for r, c in enumerate(row) if c})
                           for pivot, row in sorted(oracle.rows)
                           if pivot < filtration_dimension(D)), D)


def test_reduced_echelon_matches_fraction_free_on_closure_streams(monkeypatch):
    echelons = []

    def checked(dim):
        echelons.append(CheckedEchelon(dim))
        return echelons[-1]

    monkeypatch.setattr(engine, "_IntEchelon", checked)
    params = (ParamSet(1, 1, 1, 0), ParamSet(1, 1, 1, Fraction(1, 2)),
              ParamSet(Fraction(5, 7), Fraction(2, 3), 3, Fraction(1, 2)),
              ParamSet(-2, 1, 1, Fraction(1, 3)))
    for p in params:
        x1, x2 = p.vanishing_point()
        for D in range(1, 6):
            raw = poly.D1 - 2 * poly.D2 if D == 1 else poly.D1 * poly.D2 - 2 * poly.D2 + poly.D1
            inside = raw - raw.eval_at(x1, x2)
            # B above (D+2)//2 sweeps the box of radius (D+2)//2, the same insert stream
            for B in range(1, (D + 2) // 2 + 1):
                for seed in (inside, inside + 1):
                    basis, result = closure([seed], D, B, p)
                    echelon = echelons[-1]
                    assert echelon.calls > echelon.added > 0
                    assert basis.vectors == rational_low_basis(echelon.oracle, D).vectors
                    if B == (D + 2) // 2:
                        expected = ClosureTag.FULL if seed != inside else ClosureTag.OMEGA_PRIME
                        assert result.tag is expected, (p, D, seed)
    assert len(echelons) == len(params) * 2 * sum((D + 2) // 2 for D in range(1, 6))


def test_reduced_echelon_matches_fraction_free_on_random_rows():
    rng = SplitMix64(43)
    for dim in (1, 2, 5, 9):
        echelon = CheckedEchelon(dim)
        stored = []
        for _ in range(60):
            if stored and rng.below(2):
                # an integer combination of rows already stored: always dependent
                row = [0] * dim
                for _ in range(rng.int_between(1, 3)):
                    c, base = rng.int_between(-4, 4), rng.choice(stored)
                    row = [x + c * y for x, y in zip(row, base)]
            else:
                row = [rng.int_between(-6, 6) if rng.below(3) else 0 for _ in range(dim)]
            result = echelon.insert(row)
            if result is not None:
                stored.append(list(result[1]))
        assert echelon.calls == 60 and echelon.added == len(echelon.rows) <= dim
    assert echelon.added == dim     # the last run fills its whole space


# --- closure -------------------------------------------------------------------

def test_closure_zero_seed():
    basis, result = closure([Poly2()], 3, 5, ParamSet(1, 1, 1, 0))
    assert result.tag is ClosureTag.ZERO and result.dimension == 0
    assert basis.dimension == 0


def test_closure_full_example():
    p = ParamSet(1, 1, 1, 0)
    basis, result = closure([Poly2.const(1)], 3, 5, p)
    assert result.tag is ClosureTag.FULL
    assert result.dimension == 10 == filtration_dimension(3)
    assert spans_agree(basis, oracle_closure([Poly2.const(1)], 3, 5, p))


def test_closure_submodule_example():
    p = ParamSet(1, 1, 1, 0)
    basis, result = closure([poly.D1], 3, 5, p)
    assert result.tag is ClosureTag.OMEGA_PRIME
    assert result.dimension == 9
    assert spans_agree(basis, oracle_closure([poly.D1], 3, 5, p))
    x1, x2 = p.vanishing_point()
    assert all(v.eval_at(x1, x2) == 0 for v in basis.vectors)
    assert "certificate" in result.diagnostics


def test_closure_matches_oracle_randomized():
    rng = SplitMix64(42)
    p = ParamSet(1, 1, 1, Fraction(1, 2))
    for _ in range(3):
        terms = [((rng.int_between(0, 1), rng.int_between(0, 1)),
                  rng.fraction(nonzero=True)) for _ in range(2)]
        seed = Poly2(terms)
        if not seed:
            continue
        basis, result = closure([seed], 3, 5, p)
        assert spans_agree(basis, oracle_closure([seed], 3, 5, p))


def test_closure_matches_oracle_with_lambda_scaling():
    # the engine drops the lambda^m scalars from each image; the span must
    # still agree with the reference computation that keeps them
    p = ParamSet(Fraction(5, 7), 2, Fraction(1, 3), Fraction(3, 4))
    for seed in (Poly2.const(1), poly.D1 * poly.D2, poly.D2 + Fraction(21, 20)):
        basis, _ = closure([seed], 2, 4, p)
        assert spans_agree(basis, oracle_closure([seed], 2, 4, p))


def test_closure_monotone_and_fixpoint():
    p = ParamSet(1, 1, 1, 0)
    seed = poly.D1 + 2 * poly.D2
    basis, result = closure([seed], 3, 5, p)
    assert rational_contains(basis, seed)
    rerun_basis, rerun_result = closure(list(basis.vectors), 3, 5, p)
    assert rerun_result.tag is result.tag
    assert rerun_result.dimension == result.dimension
    assert all(rational_contains(rerun_basis, v) for v in basis.vectors)


def test_closure_multiple_seeds_and_validation():
    p = ParamSet(1, 1, 1, 0)
    basis, result = closure([poly.D1, poly.D2], 2, 4, p)
    assert result.tag is ClosureTag.OMEGA_PRIME
    with pytest.raises(ValueError, match="exceeds"):
        closure([poly.D1**4], 3, 5, p)
    with pytest.raises(ValueError):
        closure([poly.D1], 0, 5, p)
    with pytest.raises(ValueError):
        closure([poly.D1], 3, 0, p)


def test_classify_span_examples():
    p = ParamSet(1, 1, 1, 0)
    assert classify_span(SubspaceBasis((), 2), 2, p).tag is ClosureTag.ZERO

    full = SubspaceBasis((), 2)
    for mono in _monomials(2):
        full = span_insert(full, Poly2({mono: 1}))
    result = classify_span(full, 2, p)
    assert result.tag is ClosureTag.FULL and result.dimension == 6

    kernel = SubspaceBasis((), 2)
    for mono in _monomials(2):
        if mono != (0, 0):
            kernel = span_insert(kernel, Poly2({mono: 1}))   # all vanish at (0,0)
    result = classify_span(kernel, 2, p)
    assert result.tag is ClosureTag.OMEGA_PRIME and result.dimension == 5

    with pytest.raises(ValueError):
        classify_span(SubspaceBasis((), 3), 2, p)


def test_classify_span_other_diagnostics():
    p = ParamSet(1, 1, 1, 0)
    small = span_insert(SubspaceBasis((), 2), poly.D1)
    result = classify_span(small, 2, p)
    assert result.tag is ClosureTag.OTHER
    assert "truncation artifact" in result.diagnostics

    # a hyperplane that is not the evaluation kernel
    wrong = SubspaceBasis((), 1)
    wrong = span_insert(wrong, Poly2.const(1))
    wrong = span_insert(wrong, poly.D1)
    result = classify_span(wrong, 1, p)
    assert result.tag is ClosureTag.OTHER
    assert "counterexample candidate" in result.diagnostics


def test_closure_nontrivial_lambda_and_alpha():
    # lambda scalings do not change spans, so the classification is stable
    p = ParamSet(Fraction(5, 7), 2, Fraction(1, 3), Fraction(3, 4))
    x1, x2 = p.vanishing_point()
    seed = poly.D1 - 3 * poly.D2
    seed = seed - seed.eval_at(x1, x2)
    basis, result = closure([seed], 3, 5, p)
    assert result.tag is ClosureTag.OMEGA_PRIME and result.dimension == 9
    basis, result = closure([seed + 1], 3, 5, p)
    assert result.tag is ClosureTag.FULL and result.dimension == 10


# --- the interpolation-box shortcut --------------------------------------------
# The engine sweeps radius min(B, (D+2)//2); the oracle sweeps the whole
# [-B, B]^2 box.  B runs from below that radius to D+2.  A box one point
# short of the bound can still reach the same fixpoint, in a different
# number of additions per pass, so the per-pass growth is compared too.

def _growth(result):
    match = re.search(r"additions per pass=\[([\d, ]*)\]", result.diagnostics)
    return [int(x) for x in match.group(1).split(",")]


def _strip_zeros(growth):
    # the oracle stops once the degree-<=D part stops growing; the engine
    # runs one more pass when the last one only grew the degree-(D+1) shell
    while growth and growth[-1] == 0:
        growth = growth[:-1]
    return growth


def test_closure_matches_full_box_oracle_for_every_small_B():
    generic = ParamSet(Fraction(5, 7), 2, Fraction(1, 3), Fraction(3, 4))
    half = ParamSet(1, 1, 1, Fraction(1, 2))
    linear = poly.D1 - 2 * poly.D2
    quadratic = poly.D1 * poly.D2 - 2 * poly.D2
    runs = [(generic, D, seed, range(1, D + 3), (0, 1))
            for D, seed in ((1, linear), (2, quadratic), (3, quadratic))]
    runs += [(generic, 4, quadratic, (2, 4), (0,)),
             (half, 2, poly.D2**2, range(1, 5), (0, 1))]
    for p, D, raw, radii, shifts in runs:
        x1, x2 = p.vanishing_point()
        for B in radii:
            for shift in shifts:
                seed = raw - raw.eval_at(x1, x2) + shift
                basis, result = closure([seed], D, B, p)
                growth = []
                assert spans_agree(basis, oracle_closure([seed], D, B, p, growth)), \
                    (D, B, seed)
                assert _strip_zeros(_growth(result)) == _strip_zeros(growth), (D, B, seed)
                if B >= (D + 2) // 2:
                    expected = ClosureTag.FULL if shift else ClosureTag.OMEGA_PRIME
                    assert result.tag is expected, (D, B, seed)


def test_closure_independent_of_box_radius_beyond_interpolation_bound():
    p = ParamSet(1, 1, 1, Fraction(1, 2))
    for D in range(1, 6):
        for seed in (poly.D1 + poly.D2**2 if D >= 2 else poly.D1, Poly2.const(3)):
            reference, ref_result = closure([seed], D, 2 * D + 3, p)
            prefix = ref_result.diagnostics.split("; fixpoint")[0]
            assert "passes=" in prefix and "additions per pass=" in prefix
            for B in ((D + 2) // 2, D + 2):
                basis, result = closure([seed], D, B, p)
                assert basis.vectors == reference.vectors, (D, B)
                assert result.diagnostics.split("; fixpoint")[0] == prefix, (D, B)


# --- the worklist against the full-snapshot loop -------------------------------
# The engine acts in each pass only with the rows the pass before it
# added, and inserts each row's Taylor coefficients C_gamma once the box
# reaches the interpolation bound.  The loop it replaced acted with every
# active row in every pass and inserted its image at every box index; it
# lives on here as an oracle, built on the per-index action table of
# tests/oracles.py and the engine's echelon.  The module docstring proves
# that the oracle's extra inserts (the images of rows acted on in an
# earlier pass) all return None, and that the span after each pass is the
# same either way, so the additions per pass, the diagnostics and the
# basis are the same.  The inserted vectors differ, so the insert streams
# do not.

# integral, half-integral and generic q; rational lambda; alpha 0, 1/2 and 3/4
GRID_PARAMS = (ParamSet(1, 1, 1, 0),
               ParamSet(Fraction(3, 2), Fraction(2, 3), 5, Fraction(1, 2)),
               ParamSet(Fraction(5, 7), 3, Fraction(-1, 4), Fraction(3, 4)))


def full_snapshot_closure(seeds, D, B, p):
    """The full-snapshot loop over the box: (extra results, basis, passes, growth).

    extra results lists the results of the re-inserts of the images of
    rows acted on in an earlier pass.
    """
    table = BoxActTable(D, p)
    echelon = engine._IntEchelon(table.dim)
    cap = filtration_dimension(D)
    extra = []
    active = []
    for seed in seeds:
        if seed:
            stored = echelon.insert(engine._poly_to_int_row(seed, table.dim))
            if stored is not None and stored[0] < cap:
                active.append(stored[1])
    box = poly.index_box(min(B, (D + 2) // 2))
    acted = 0
    passes, growth = 0, []
    while True:
        passes += 1
        snapshot = list(active)
        added = 0
        for index, row in enumerate(snapshot):
            nonzero = [(r, c) for r, c in enumerate(row) if c]
            for m in box:
                stored = echelon.insert(table.image(nonzero, m))
                if index < acted:
                    extra.append(stored)
                    continue
                if stored is not None:
                    added += 1
                    if stored[0] < cap:
                        active.append(stored[1])
        acted = len(snapshot)
        growth.append(added)
        if added == 0:
            break
    return extra, engine._reduced_basis(echelon, table.workspace, D).vectors, passes, growth


def test_worklist_matches_full_snapshot_loop():
    rng = SplitMix64(44)
    runs = extras = 0
    for p in GRID_PARAMS:
        x1, x2 = p.vanishing_point()
        for D in range(1, 7):
            degree = min(D, 3)
            raw = [sample_poly2(rng, degree) for _ in range(2)]
            inside = [(f - f.eval_at(x1, x2)) or poly.D1 for f in raw]
            seed_lists = [inside[:1], [inside[0] + 1], inside, [inside[1], raw[0] + 1]]
            for seeds, B in itertools.product(seed_lists, (1, D + 2)):
                basis, result = closure(seeds, D, B, p)
                extra, oracle_basis, passes, growth = full_snapshot_closure(seeds, D, B, p)
                assert all(stored is None for stored in extra), (p, D, B, seeds)
                assert basis.vectors == oracle_basis, (p, D, B, seeds)
                classified = classify_span(basis, D, p)
                radius = min(B, (D + 2) // 2)
                assert result.diagnostics == (
                    f"{classified.diagnostics}; passes={passes}, workspace additions per "
                    f"pass={growth}; fixpoint certificate: all single-step images of the "
                    f"final basis over the box [-{radius},{radius}]^2 reduce to zero in the "
                    f"degree-{D + 1} workspace, and by the degree-{D + 1} interpolation "
                    f"bound they span the same space as the images over [-{B},{B}]^2"
                ), (p, D, B, seeds)
                assert (result.tag, result.dimension) == (classified.tag, classified.dimension)
                if B >= (D + 2) // 2:      # a smaller box may stop short of the submodule
                    outside = any(f.eval_at(x1, x2) for f in seeds)
                    expected = ClosureTag.FULL if outside else ClosureTag.OMEGA_PRIME
                    assert result.tag is expected, (p, D, seeds)
                runs += 1
                extras += len(extra)
    assert runs == len(GRID_PARAMS) * 6 * 4 * 2 and extras > 0


# --- the action on one row -------------------------------------------------------

def _random_low_row(rng, D, dim):
    """A random integer row of degree <= D, nonzero, over a workspace of size dim."""
    low = filtration_dimension(D)
    row = [rng.int_between(-9, 9) if rng.below(2) else 0 for _ in range(low)]
    row[rng.below(low)] = rng.int_between(1, 9)
    return row + [0] * (dim - low)


def test_act_table_image_matches_shifted_times_generator_image():
    # the oracle table's image of a row of degree <= D under L(m) is the row
    # shifted by m times g_m / lambda^m, rescaled by that factor's
    # denominator: rank by rank, image[r] * den(P) == den(g) * num(P)[r]
    # for P = f.shifted(m) * generator_image(m, unit), unit = (q, 1, 1, alpha)
    rng = SplitMix64(45)
    checked = 0
    for p in GRID_PARAMS:
        unit = ParamSet(p.q, 1, 1, p.alpha)
        for D in range(1, 7):
            warm = BoxActTable(D, p)
            for _ in range(3):
                row = _random_low_row(rng, D, warm.dim)
                nonzero = [(r, c) for r, c in enumerate(row) if c]
                f = Poly2({warm.workspace[r]: c for r, c in nonzero})
                for m in poly.index_box((D + 2) // 2):
                    g = generator_image(m, unit)
                    product = f.shifted(m) * g
                    expected = [g._den * product._nums.get(mono, 0) for mono in warm.workspace]
                    assert product._nums.keys() <= set(warm.workspace)
                    cold = BoxActTable(D, p).image(nonzero, m)
                    for image in (cold, warm.image(nonzero, m), warm.image(nonzero, m)):
                        assert [x * product._den for x in image] == expected, (p, D, row, m)
                    checked += 1
    assert checked == 3 * 3 * sum((2 * ((D + 2) // 2) + 1) ** 2 for D in range(1, 7))


def test_taylor_coefficients_sum_to_the_image_at_every_index():
    # sum over gamma of m^gamma * C_gamma is s * f(d - m) * g_m / lambda^m,
    # s = qd * ad, term by term, on the interpolation box and off it
    rng = SplitMix64(46)
    checked = 0
    for p in GRID_PARAMS:
        s = p.q.denominator * p.alpha.denominator
        unit = ParamSet(p.q, 1, 1, p.alpha)
        for D in range(1, 7):
            table = engine._ActTable(D, p)
            for _ in range(3):
                row = _random_low_row(rng, D, table.dim)
                nonzero = [(r, c) for r, c in enumerate(row) if c]
                coefficients = table.image(nonzero)
                assert all(any(c) and len(c) == table.dim for _, c in coefficients)
                assert all(sum(gamma) <= D + 1 for gamma, _ in coefficients)
                f = Poly2({table.workspace[r]: c for r, c in nonzero})
                for m in poly.index_box((D + 2) // 2) + [IndexPair(9, -7)]:
                    product = s * (f.shifted(m) * generator_image(m, unit))
                    assert product._den == 1 and product._nums.keys() <= set(table.workspace)
                    expected = [product._nums.get(mono, 0) for mono in table.workspace]
                    image = [0] * table.dim
                    for (g1, g2), c in coefficients:
                        image = [x + m.m1 ** g1 * m.m2 ** g2 * y for x, y in zip(image, c)]
                    assert image == expected, (p, D, row, m)
                    checked += 1
    assert checked == 3 * 3 * sum((2 * ((D + 2) // 2) + 1) ** 2 + 1 for D in range(1, 7))


def test_grid_reduction_agrees_with_the_power_on_the_grid():
    for radius in range(4):
        reduction = engine._grid_reduction(radius, 12)
        for k, terms in enumerate(reduction):
            assert all(c and j <= 2 * radius for j, c in terms)
            if k <= 2 * radius:
                assert terms == [(k, 1)]
            for x in range(-radius, radius + 1):
                assert sum(c * x ** j for j, c in terms) == x ** k, (radius, k, x)
    assert engine._grid_reduction(1, 4)[3:] == [[(1, 1)], [(2, 1)]]     # x^3 = x, x^4 = x^2


def test_coefficients_folded_onto_a_small_box_give_its_images():
    # below the interpolation bound the closure inserts the C'_delta of the
    # box; sum m^delta * C'_delta is the image at every m of the box
    rng = SplitMix64(47)
    for p in GRID_PARAMS:
        s = p.q.denominator * p.alpha.denominator
        unit = ParamSet(p.q, 1, 1, p.alpha)
        for D in range(1, 7):
            table = engine._ActTable(D, p)
            row = _random_low_row(rng, D, table.dim)
            nonzero = [(r, c) for r, c in enumerate(row) if c]
            coefficients = table.image(nonzero)
            f = Poly2({table.workspace[r]: c for r, c in nonzero})
            for radius in range(1, (D + 2) // 2 + 1):
                folded = engine._on_grid(coefficients, engine._grid_reduction(radius, D + 1))
                if radius == (D + 2) // 2:
                    assert folded == coefficients
                assert len(folded) <= (2 * radius + 1) ** 2
                assert all(max(delta) <= 2 * radius and any(c) for delta, c in folded)
                for m in poly.index_box(radius):
                    product = s * (f.shifted(m) * generator_image(m, unit))
                    expected = [product._nums.get(mono, 0) for mono in table.workspace]
                    image = [0] * table.dim
                    for (d1, d2), c in folded:
                        image = [x + m.m1 ** d1 * m.m2 ** d2 * y for x, y in zip(image, c)]
                    assert image == expected, (p, D, row, radius, m)
