"""Named verification sweeps shared by the CLI and the test suite.

Each sweep walks an exact grid (generator boxes, sampled polynomials,
sampled parameter sets) and emits :class:`Check` records: a stable
name, an anchor identifying which mathematical fact the check concerns,
a pass/fail/error status, and a witness string when there is something
concrete to show.  All sampling is driven by the package's splitmix
generator, so a report is a pure function of its configuration.

Every sweep that stops at the first nonzero defect scans with
:func:`first_defect`, and every check that passes when it finds no
defect gets its status from :func:`verdict`, which makes a scan that
checked no case an ``error``, never a pass.  The two negative controls
pass only when they do find a defect, so they build their Check directly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import blockalg, identities, omega
from .blockalg import AlgebraContext, AlgebraElement
from .closure import ClosureTag, closure, filtration_dimension
from .omega import ParamSet, action_on_one, action_on_one_alt
from .poly import IndexPair, Poly1, Poly2, index_box
from .prng import SplitMix64


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    status: str                 # "pass" | "fail" | "error"
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def all_passed(checks: list[Check]) -> bool:
    return all(c.ok for c in checks)


def first_defect(cases, defect_of):
    """Scan ``cases`` in order until ``defect_of(case)`` is nonzero.

    Returns ``(cases scanned, (case, defect))`` at the first nonzero
    defect, or ``(cases scanned, None)`` when every defect vanished.
    """
    count = 0
    for case in cases:
        count += 1
        defect = defect_of(case)
        if defect:
            return count, (case, defect)
    return count, None


def verdict(name: str, anchor: str, count: int, failure_text: str | None,
            clean_text: str) -> Check:
    """A check that passes when it finds no defect: ``fail`` with ``failure_text``
    if there is one, else ``error`` if no case was checked, else ``pass``."""
    if failure_text:
        return Check(name, anchor, "fail", failure_text)
    if count == 0:
        return Check(name, anchor, "error", "no case was checked")
    return Check(name, anchor, "pass", clean_text)


# --- sampling helpers ---------------------------------------------------------

def sample_param_set(rng: SplitMix64, q_mode: str = "generic") -> ParamSet:
    """Random exact parameters; q_mode picks the arithmetic flavour of q."""
    if q_mode == "integer":
        q = Fraction(rng.choice([1, 2, 3, -1, -2, -3]))
    elif q_mode == "half-integer":
        q = Fraction(rng.choice([1, 3, -1, -3]), 2)
    elif q_mode == "generic":
        q = rng.fraction(nonzero=True)
    else:
        raise ValueError(f"unknown q_mode {q_mode!r}")
    return ParamSet(q=q,
                    lambda1=rng.fraction(num_bound=5, den_bound=5, nonzero=True),
                    lambda2=rng.fraction(num_bound=5, den_bound=5, nonzero=True),
                    alpha=rng.fraction(num_bound=5, den_bound=5))


def sample_poly2(rng: SplitMix64, max_degree: int, max_terms: int = 6) -> Poly2:
    """Random nonzero polynomial of total degree at most max_degree."""
    while True:
        terms = []
        for _ in range(rng.int_between(1, max_terms)):
            d = rng.int_between(0, max_degree)
            a = rng.int_between(0, d)
            terms.append(((a, d - a), rng.fraction(num_bound=9, den_bound=4, nonzero=True)))
        candidate = Poly2(terms)
        if candidate:
            return candidate


def sample_poly1(rng: SplitMix64, max_degree: int, max_terms: int = 5) -> Poly1:
    terms = []
    for _ in range(rng.int_between(1, max_terms)):
        terms.append((rng.int_between(0, max_degree),
                      rng.fraction(num_bound=9, den_bound=4, nonzero=True)))
    return Poly1(terms)


def exceptional_indices(p: ParamSet) -> list[IndexPair]:
    """The lattice indices (0,-q) and (0,-2q) when they exist."""
    out = []
    if p.q.denominator == 1:
        out.append(IndexPair(0, -int(p.q)))
    if (2 * p.q).denominator == 1:
        out.append(IndexPair(0, -int(2 * p.q)))
    return out


# --- Lie algebra axioms -------------------------------------------------------

def jacobi_suite(q_values, radius: int = 3) -> list[Check]:
    """Jacobi defect of every ordered generator triple in the box, plus D2."""
    generators = [AlgebraElement.basis(m) for m in index_box(radius)]
    generators.append(AlgebraElement.derivation())
    checks = []
    for q in q_values:
        ctx = AlgebraContext(Fraction(q))
        count, failure = first_defect(itertools.product(generators, repeat=3),
                                      lambda xyz: blockalg.jacobi_defect(*xyz, ctx))
        checks.append(verdict(
            f"jacobi q={q}", "jacobi-identity", count,
            failure and "x={}, y={}, z={}, defect={}".format(*failure[0], failure[1]),
            f"{count} triples, all defects zero"))
    return checks


# --- module axioms ------------------------------------------------------------

def axiom_grid_scan(p: ParamSet, polys: list[Poly2], radius: int, image):
    """Scan all ordered generator pairs and polys with :func:`first_defect`.

    Returns ``(cases scanned, ((x, y, f), defect) or None)``.  The scan
    builds each generator image g_m = image(m, p) once and keeps it in
    one table, which every action of the scan reads.  A case reaches the
    indices m, n and m + n of a radius-R box, so the table holds at most
    (4R+1)^2 small degree-1 polynomials (81 at radius 2).

    On a pair of basis generators, :func:`omega.module_axiom_defect`
    computes the two nested actions as f(d - m - n) times the factor
    :func:`omega.commutator_factor` of the pair, two products of
    degree-1 images.  The cases put f innermost, so a cache of the
    current pair alone builds that factor once per ordered pair.  A
    table of all (2R+1)^4 pairs (625 at radius 2) saves no work, and it
    held 1.3% more peak memory on the benchmark's radius-2 grid.  Each
    polynomial keeps one memo of its shifts f(d - s) for the whole scan
    (see :func:`omega.act`), which the bracket term and the factored
    path both read; on a radius-2 box it holds at most 81 shifts.
    """
    generators = [AlgebraElement.basis(m) for m in index_box(radius)]
    generators.append(AlgebraElement.derivation())
    table: dict[IndexPair, Poly2] = {}

    def tabled(m: IndexPair, _p: ParamSet) -> Poly2:
        # every act of this scan passes the scan's own p
        g = table.get(m)
        if g is None:
            g = table[m] = image(m, p)
        return g

    @functools.lru_cache(maxsize=1)
    def factor(m: IndexPair, n: IndexPair) -> Poly2:
        return omega.commutator_factor(m, n, p, tabled)

    memos = {id(f): {} for f in polys}
    cases = ((x, y, f) for x, y in itertools.product(generators, repeat=2) for f in polys)
    return first_defect(cases, lambda xyf: omega.module_axiom_defect(
        *xyf, p, tabled, memos[id(xyf[2])], factor))


def _axiom_failure_text(failure) -> str:
    return "x={}, y={}, f={}, defect={}".format(*failure[0], failure[1])


def module_axiom_suite(param_sets: list[ParamSet], polys: list[Poly2],
                       radius: int = 2) -> list[Check]:
    """Module-axiom defect over all generator pairs and the given polynomials."""
    checks = []
    for index, p in enumerate(param_sets):
        count, failure = axiom_grid_scan(p, polys, radius, action_on_one)
        checks.append(verdict(
            f"module axioms #{index + 1}", "module-action-compatibility", count,
            failure and f"{_axiom_failure_text(failure)}; {p.describe()}",
            f"{count} (pair, poly) cases, all defects zero; {p.describe()}"))
    return checks


CANONICAL_IMAGE_TEXT = "lam^m*((m2+q)*d1 - m1*(d2+q*alpha))"
VARIANT_IMAGE_TEXT = "lam^m*((q*alpha+m2)*d1 - m1*(d2+alpha))"


def variant_control_suite(p: ParamSet, polys: list[Poly2],
                          radius: int = 2) -> list[Check]:
    """Negative control: the variant factor placement must violate the axioms.

    Runs the same generator-pair grid twice.  With the adopted image
    every defect must vanish; with the variant image at least one
    defect must be nonzero (the parameter set is required to have
    alpha outside {0, 1}, where the variant is genuinely different).
    """
    if p.alpha in (0, 1):
        raise ValueError("control parameter set needs alpha outside {0, 1}")
    count, failure = axiom_grid_scan(p, polys, radius, action_on_one)
    adopted = verdict(
        "adopted action passes the axiom grid", "action-variant-control", count,
        failure and "image {} unexpectedly fails: x={}, y={}".format(
            CANONICAL_IMAGE_TEXT, *failure[0][:2]),
        f"image {CANONICAL_IMAGE_TEXT}: {count} cases, all defects zero; {p.describe()}")

    _, failure = axiom_grid_scan(p, polys, radius, action_on_one_alt)
    variant = Check(
        "variant action fails the axiom grid", "action-variant-control",
        "pass" if failure else "fail",
        f"image {VARIANT_IMAGE_TEXT} has nonzero defect: {_axiom_failure_text(failure)}; "
        f"{p.describe()}" if failure else
        f"image {VARIANT_IMAGE_TEXT} unexpectedly passed the whole grid; {p.describe()}")
    return [adopted, variant]


# --- closure dichotomy ----------------------------------------------------------

def closure_dichotomy_suite(p: ParamSet, D: int, B: int, runs_full: int,
                            runs_sub: int, rng_seed: int,
                            seed_degree: int = 3) -> list[Check]:
    """Random seeds must close onto the full level or the submodule level.

    Seeds evaluating to nonzero at the distinguished point must reach
    the full degree-D level; nonzero seeds inside the submodule must
    reach exactly the evaluation-kernel hyperplane, with every basis
    vector vanishing at the point.  Any OTHER tag is a failure to
    surface, never to retry.
    """
    rng = SplitMix64(rng_seed)
    x1, x2 = p.vanishing_point()
    full_dim = filtration_dimension(D)
    checks = []

    outside_failures = []
    for run in range(runs_full):
        seed = sample_poly2(rng, seed_degree)
        if omega.in_proper_submodule(seed, p):
            seed = seed + 1      # move off the hyperplane, degree unchanged
        basis, result = closure([seed], D, B, p)
        if result.tag is not ClosureTag.FULL or result.dimension != full_dim:
            outside_failures.append(
                f"run {run}: seed={seed}, tag={result.tag.value}, dim={result.dimension}, "
                f"{result.diagnostics}")
    checks.append(verdict(
        f"closure of seeds outside the submodule ({p.describe()})", "submodule-dichotomy",
        runs_full, "; ".join(outside_failures[:3]),
        f"{runs_full} runs, all FULL with dim {full_dim} at D={D}, B={B}"))

    inside_failures = []
    eval_failures = []
    for run in range(runs_sub):
        raw = sample_poly2(rng, seed_degree)
        seed = raw - raw.eval_at(x1, x2)      # project onto the hyperplane
        while not seed:
            raw = sample_poly2(rng, seed_degree)
            seed = raw - raw.eval_at(x1, x2)
        basis, result = closure([seed], D, B, p)
        if result.tag is not ClosureTag.OMEGA_PRIME or result.dimension != full_dim - 1:
            inside_failures.append(
                f"run {run}: seed={seed}, tag={result.tag.value}, dim={result.dimension}, "
                f"{result.diagnostics}")
        else:
            for v in basis.vectors:
                if not omega.in_proper_submodule(v, p):
                    eval_failures.append(f"run {run}: basis vector {v} nonzero at (0,{x2})")
    checks.append(verdict(
        f"closure of seeds inside the submodule ({p.describe()})", "submodule-dichotomy",
        runs_sub, "; ".join(inside_failures[:3]),
        f"{runs_sub} runs, all OMEGA_PRIME with dim {full_dim - 1} at D={D}, B={B}"))
    checks.append(verdict(
        f"submodule bases vanish at the distinguished point ({p.describe()})",
        "invariance-certificate", runs_sub - len(inside_failures),
        "; ".join(eval_failures[:3]),
        f"every basis vector of every OMEGA_PRIME run evaluates to zero at (0,{x2}); "
        f"one-step image reduction certified by the fixpoint pass"))
    return checks


# --- Witt line restriction ------------------------------------------------------

def witt_restriction_suite(ms: list[IndexPair], i_lo: int, i_hi: int,
                           param_sets: list[ParamSet]) -> list[Check]:
    if i_lo > i_hi:
        raise ValueError(f"empty Witt index range [{i_lo},{i_hi}]: need i_lo <= i_hi")
    checks = []
    for index, p in enumerate(param_sets):
        failures = []
        for m in ms:
            try:
                params, bad = omega.witt_restrict(m, i_lo, i_hi, p)
            except ValueError as error:
                failures.append(f"m={m}: error {error}")
                continue
            if bad:
                failures.append(f"m={m}: mismatched i {bad}")
        checks.append(verdict(
            f"witt line reduction #{index + 1}", "witt-line-reduction", len(ms),
            "; ".join(failures),
            f"m in {{{', '.join(str(m) for m in ms)}}}, i in [{i_lo},{i_hi}] all reduce "
            f"to q*lam_m^i*(d1 - i*m1*alpha); {p.describe()}"))
    return checks


# --- identity replays ------------------------------------------------------------

def _sample_pairs(rng: SplitMix64, radius: int, cap: int) -> list[tuple[IndexPair, IndexPair]]:
    """Up to ``cap`` distinct pairs of box indices.

    Pair k of the row-major pair list is (box[k // n], box[k % n]), so the
    sample is drawn by index without building the (2R+1)^4 list.
    """
    box = index_box(radius)
    n = len(box)
    if n * n <= cap:
        return [(a, b) for a in box for b in box]
    chosen = []
    taken = set()
    while len(chosen) < cap:
        k = rng.below(n * n)
        if k not in taken:
            taken.add(k)
            chosen.append((box[k // n], box[k % n]))
    return chosen


def replay_suite(param_sets: list[ParamSet], rng_seed: int, radius: int = 3,
                 pair_cap: int = 200) -> list[Check]:
    """Replay every classification identity over index grids.

    Two-index replays run over a subsample of the box pairs plus, when
    q or 2q is integral, explicit pairs touching the exceptional
    indices (0,-q) and (0,-2q).  Single-index replays run over the
    whole box.  Radius 0 would leave the separated-form replay no index
    with m1 != 0, and a zero pair cap no pairs, so both are rejected.
    """
    if radius < 1:
        raise ValueError(f"replay radius must be at least 1, got {radius}")
    if pair_cap < 1:
        raise ValueError(f"pair cap must be at least 1, got {pair_cap}")
    rng = SplitMix64(rng_seed)
    checks = []
    for index, p in enumerate(param_sets):
        tag = f"#{index + 1} ({p.describe()})"
        pairs = _sample_pairs(rng, radius, pair_cap)
        for e in exceptional_indices(p):
            pairs.extend([(e, IndexPair(1, 2)), (IndexPair(-2, 1), e), (e, e)])

        count, failure = first_defect(
            pairs, lambda mn: identities.replay_commutator(*mn, p))
        checks.append(verdict(
            f"commutator replay {tag}", "commutator-replay", count,
            failure and "m={}, n={}, defect={}".format(*failure[0], failure[1]),
            f"{count} pairs, all defects zero"))

        singles = index_box(radius) + exceptional_indices(p)
        count, failure = first_defect(
            singles, lambda m: identities.replay_pair_difference(m, p))
        checks.append(verdict(
            f"pair difference replay {tag}", "pair-difference-replay", count,
            failure and "m={}, defect={}".format(*failure),
            f"{count} indices, all defects zero"))

        def separated_defect(m):
            split = identities.replay_separated_form(m, p)
            return None if split.ok else split

        count, failure = first_defect([m for m in singles if m.m1 != 0], separated_defect)
        checks.append(verdict(
            f"separated form replay {tag}", "separated-form-replay", count,
            failure and (f"m={failure[0]}, "
                         f"residual={failure[1].residual.format(('X', 'd1'))}, "
                         f"cross delta={failure[1].cross_delta.format('X')}"),
            f"{count} indices: no d1 residue and the X-part matches "
            f"-(X-q*m1*(alpha-1))*(X-q*m1*alpha)"))

        def coefficient_defects(mn):
            defects = identities.replay_coefficient_identities(*mn, p)
            return defects if any(defects) else None

        nonzero_pairs = [(m, n) for m, n in pairs if not (m.is_zero() or n.is_zero())]
        count, failure = first_defect(nonzero_pairs, coefficient_defects)
        checks.append(verdict(
            f"coefficient replay {tag}", "coefficient-replay", count,
            failure and "m={}, n={}, defects={}".format(
                *failure[0], tuple(str(d) for d in failure[1])),
            f"{count} nonzero pairs, three zero defects each"))
    return checks


def commutator_variant_control(p: ParamSet, radius: int = 3) -> Check:
    """The variant image must violate the commutator identity when alpha != 1."""
    if p.alpha == 1:
        raise ValueError("control parameter set needs alpha != 1")
    box = index_box(radius)
    _, failure = first_defect(
        itertools.product(box, box),
        lambda mn: identities.replay_commutator(*mn, p, image=action_on_one_alt))
    return Check(
        "commutator replay rejects the variant image", "action-variant-control",
        "pass" if failure else "fail",
        "variant {} breaks the identity: m={}, n={}, defect={}; adopted {} passes "
        "(see commutator replay); {}".format(VARIANT_IMAGE_TEXT, *failure[0], failure[1],
                                             CANONICAL_IMAGE_TEXT, p.describe())
        if failure else
        f"variant {VARIANT_IMAGE_TEXT} unexpectedly satisfied the grid; {p.describe()}")


# --- isomorphism rigidity ---------------------------------------------------------

def iso_parameter_grid(q) -> list[ParamSet]:
    """A fixed 10-point parameter grid over one algebra."""
    q = Fraction(q)
    rows = [
        (1, 1, 0), (1, 1, Fraction(1, 2)), (1, 2, 0), (1, 2, Fraction(1, 2)),
        (2, 1, 0), (2, 1, 1), (2, 3, -1), (Fraction(1, 2), 1, Fraction(2, 3)),
        (3, Fraction(1, 3), 1), (5, 7, Fraction(-3, 2)),
    ]
    return [ParamSet(q=q, lambda1=a, lambda2=b, alpha=c) for a, b, c in rows]


def iso_rigidity_suite(q) -> list[Check]:
    grid = iso_parameter_grid(q)
    failures = []
    witness_example = None
    for i, left in enumerate(grid):
        for j, right in enumerate(grid):
            isomorphic, witness = omega.iso_check(left, right)
            if (i == j) != isomorphic:
                failures.append(f"grid[{i}] vs grid[{j}]: got {isomorphic}")
            if i != j and witness is None:
                failures.append(f"grid[{i}] vs grid[{j}]: missing witness")
            if i != j and witness is not None and witness_example is None:
                witness_example = f"grid[{i}] vs grid[{j}] differ at m={witness}"
    return [verdict(
        f"isomorphism rigidity over a {len(grid)}-point grid (q={q})",
        "isomorphism-rigidity", len(grid) ** 2, "; ".join(failures[:3]),
        f"{len(grid) ** 2} ordered pairs decided correctly; e.g. {witness_example}")]


# --- difference-equation lemma ------------------------------------------------------

def difference_equation_suite(rng_seed: int, positives: int = 100,
                              negatives: int = 10) -> list[Check]:
    """Round trips of the quadratic difference-equation solver.

    Positives: solve then check on random data.  Negatives: inject a
    cubic term in the second slot, which no solution can carry, and
    require the checker to reject.
    """
    rng = SplitMix64(rng_seed)
    failures = []
    for run in range(positives):
        f_x = sample_poly1(rng, max_degree=5)
        a = rng.fraction()
        b = rng.fraction()
        c = rng.fraction(nonzero=True)
        F = identities.difference_solve(f_x, a, b, c)
        if not identities.difference_check(F, a, b, c):
            failures.append(f"run {run}: round trip failed for a={a}, b={b}, c={c}")
    for run in range(negatives):
        f_x = sample_poly1(rng, max_degree=4)
        a = rng.fraction()
        b = rng.fraction()
        c = rng.fraction(nonzero=True)
        F = identities.difference_solve(f_x, a, b, c)
        spoiled = F + Poly2({(rng.int_between(0, 2), 3): rng.fraction(nonzero=True)})
        if identities.difference_check(spoiled, a, b, c):
            failures.append(f"run {run}: cubic injection was not rejected")
    # the witness vouches for both halves, so each must have checked a case
    return [verdict(
        "difference equation solve/check round trip", "difference-equation",
        min(positives, negatives), "; ".join(failures[:3]),
        f"{positives} round trips pass, {negatives} cubic injections rejected")]


# --- assembled reports ---------------------------------------------------------------

ACCEPTANCE_Q_VALUES = (Fraction(1), Fraction(5, 7), Fraction(-2), Fraction(3, 2),
                       Fraction(7))


def acceptance_param_sets(rng_seed: int) -> list[ParamSet]:
    """Three random parameter sets: one integral q, one half-integral, one generic."""
    rng = SplitMix64(rng_seed)
    return [sample_param_set(rng, "integer"),
            sample_param_set(rng, "half-integer"),
            sample_param_set(rng, "generic")]


def control_param_set(rng_seed: int) -> ParamSet:
    """A random parameter set with alpha outside {0, 1}."""
    rng = SplitMix64(rng_seed)
    while True:
        p = sample_param_set(rng, "generic")
        if p.alpha not in (0, 1):
            return p


def sample_axiom_polys(rng_seed: int, count: int = 10, max_degree: int = 4) -> list[Poly2]:
    rng = SplitMix64(rng_seed)
    return [sample_poly2(rng, max_degree) for _ in range(count)]


def full_report(rng_seed: int = 1, quick: bool = False) -> list[Check]:
    """Every suite at its pinned scale (or a reduced smoke scale)."""
    checks: list[Check] = []
    if quick:
        checks += jacobi_suite([Fraction(1), Fraction(5, 7)], radius=2)
        polys = sample_axiom_polys(rng_seed + 2, count=3)
        params = acceptance_param_sets(rng_seed + 1)[:2]
        checks += module_axiom_suite(params, polys, radius=1)
        checks += variant_control_suite(control_param_set(rng_seed + 3), polys, radius=1)
        checks += closure_dichotomy_suite(
            ParamSet(1, 1, 1, 0), D=3, B=5, runs_full=3, runs_sub=3,
            rng_seed=rng_seed + 4)
        checks += witt_restriction_suite(
            [IndexPair(1, 0), IndexPair(2, 3), IndexPair(-1, 4)], -4, 4,
            acceptance_param_sets(rng_seed + 5)[:1])
        checks += replay_suite(acceptance_param_sets(rng_seed + 6)[:2],
                               rng_seed + 7, radius=2, pair_cap=40)
        checks.append(commutator_variant_control(control_param_set(rng_seed + 8), radius=2))
        checks += iso_rigidity_suite(Fraction(5, 7))
        checks += difference_equation_suite(rng_seed + 9, positives=20, negatives=3)
        return checks

    checks += jacobi_suite(ACCEPTANCE_Q_VALUES, radius=3)
    polys = sample_axiom_polys(rng_seed + 2, count=10)
    checks += module_axiom_suite(acceptance_param_sets(rng_seed + 1), polys, radius=2)
    checks += variant_control_suite(control_param_set(rng_seed + 3), polys, radius=2)
    for alpha in (Fraction(0), Fraction(1, 2)):
        checks += closure_dichotomy_suite(
            ParamSet(1, 1, 1, alpha), D=5, B=7, runs_full=20, runs_sub=20,
            rng_seed=rng_seed + 4)
    checks += witt_restriction_suite(
        [IndexPair(1, 0), IndexPair(2, 3), IndexPair(-1, 4)], -4, 4,
        acceptance_param_sets(rng_seed + 5))
    checks += replay_suite(acceptance_param_sets(rng_seed + 6), rng_seed + 7,
                           radius=3, pair_cap=200)
    checks.append(commutator_variant_control(control_param_set(rng_seed + 8)))
    checks += iso_rigidity_suite(Fraction(5, 7))
    checks += difference_equation_suite(rng_seed + 9)
    return checks
