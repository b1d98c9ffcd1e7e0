"""Named verification sweeps shared by the CLI and the test suite.

Each sweep walks an exact grid (generator boxes, sampled polynomials,
sampled parameter sets) and emits :class:`Check` records: a stable
name, an anchor identifying which mathematical fact the check concerns,
a pass/fail/error status, and a witness string when there is something
concrete to show.  All sampling is driven by the package's splitmix
generator, so a report is a pure function of its configuration.
"""

from __future__ import annotations

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
        failure = None
        count = 0
        for x, y, z in itertools.product(generators, repeat=3):
            count += 1
            defect = blockalg.jacobi_defect(x, y, z, ctx)
            if defect:
                failure = f"x={x}, y={y}, z={z}, defect={defect}"
                break
        checks.append(Check(
            name=f"jacobi q={q}",
            anchor="jacobi-identity",
            status="pass" if failure is None else "fail",
            witness=failure or f"{count} triples, all defects zero"))
    return checks


# --- module axioms ------------------------------------------------------------

def axiom_grid_scan(p: ParamSet, polys: list[Poly2], radius: int, image):
    """Scan all ordered generator pairs; return (cases scanned, first defect)."""
    generators = [AlgebraElement.basis(m) for m in index_box(radius)]
    generators.append(AlgebraElement.derivation())
    count = 0
    for x, y in itertools.product(generators, repeat=2):
        for f in polys:
            count += 1
            defect = omega.module_axiom_defect(x, y, f, p, image)
            if defect:
                return count, (x, y, f, defect)
    return count, None


def module_axiom_suite(param_sets: list[ParamSet], polys: list[Poly2],
                       radius: int = 2) -> list[Check]:
    """Module-axiom defect over all generator pairs and the given polynomials."""
    checks = []
    for index, p in enumerate(param_sets):
        count, failure = axiom_grid_scan(p, polys, radius, action_on_one)
        if failure is None:
            witness = f"{count} (pair, poly) cases, all defects zero; {p.describe()}"
            checks.append(Check(f"module axioms #{index + 1}", "module-action-compatibility",
                                "pass", witness))
        else:
            x, y, f, defect = failure
            checks.append(Check(f"module axioms #{index + 1}", "module-action-compatibility",
                                "fail", f"x={x}, y={y}, f={f}, defect={defect}; {p.describe()}"))
    return checks


CANONICAL_IMAGE_TEXT = "lam^m*((m2+q)*d1 - m1*(d2+q*alpha))"
VARIANT_IMAGE_TEXT = "lam^m*((q*alpha+m2)*d1 - m1*(d2+alpha))"


def variant_control_suite(p: ParamSet, polys: list[Poly2],
                          radius: int = 2) -> list[Check]:
    """Negative control: the variant factor placement must break the axioms.

    Runs the same generator-pair grid twice.  With the adopted image
    every defect must vanish; with the variant image at least one
    defect must be nonzero (the parameter set is required to have
    alpha outside {0, 1}, where the variant is genuinely different).
    """
    if p.alpha in (0, 1):
        raise ValueError("control parameter set needs alpha outside {0, 1}")
    checks = []
    count, failure = axiom_grid_scan(p, polys, radius, action_on_one)
    checks.append(Check(
        "adopted action passes the axiom grid", "action-variant-control",
        "pass" if failure is None else "fail",
        (f"image {CANONICAL_IMAGE_TEXT}: {count} cases, all defects zero; {p.describe()}"
         if failure is None else
         f"image {CANONICAL_IMAGE_TEXT} unexpectedly fails: x={failure[0]}, y={failure[1]}")))

    _, failure = axiom_grid_scan(p, polys, radius, action_on_one_alt)
    if failure is None:
        checks.append(Check(
            "variant action fails the axiom grid", "action-variant-control", "fail",
            f"image {VARIANT_IMAGE_TEXT} unexpectedly passed the whole grid; {p.describe()}"))
    else:
        x, y, f, defect = failure
        checks.append(Check(
            "variant action fails the axiom grid", "action-variant-control", "pass",
            f"image {VARIANT_IMAGE_TEXT} has nonzero defect: x={x}, y={y}, f={f}, "
            f"defect={defect}; {p.describe()}"))
    return checks


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
    checks.append(Check(
        f"closure of seeds outside the submodule ({p.describe()})",
        "submodule-dichotomy",
        "pass" if not outside_failures else "fail",
        (f"{runs_full} runs, all FULL with dim {full_dim} at D={D}, B={B}"
         if not outside_failures else "; ".join(outside_failures[:3]))))

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
    checks.append(Check(
        f"closure of seeds inside the submodule ({p.describe()})",
        "submodule-dichotomy",
        "pass" if not inside_failures else "fail",
        (f"{runs_sub} runs, all OMEGA_PRIME with dim {full_dim - 1} at D={D}, B={B}"
         if not inside_failures else "; ".join(inside_failures[:3]))))
    checks.append(Check(
        f"submodule bases vanish at the distinguished point ({p.describe()})",
        "invariance-certificate",
        "pass" if not eval_failures else "fail",
        (f"every basis vector of every OMEGA_PRIME run evaluates to zero at (0,{x2}); "
         f"one-step image reduction certified by the fixpoint pass"
         if not eval_failures else "; ".join(eval_failures[:3]))))
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
        checks.append(Check(
            f"witt line reduction #{index + 1}", "witt-line-reduction",
            "pass" if not failures else "fail",
            (f"m in {{{', '.join(str(m) for m in ms)}}}, i in [{i_lo},{i_hi}] all reduce "
             f"to q*lam_m^i*(d1 - i*m1*alpha); {p.describe()}"
             if not failures else "; ".join(failures))))
    return checks


# --- identity replays ------------------------------------------------------------

def _sample_pairs(rng: SplitMix64, radius: int, cap: int) -> list[tuple[IndexPair, IndexPair]]:
    box = index_box(radius)
    pairs = [(m, n) for m in box for n in box]
    if len(pairs) <= cap:
        return pairs
    chosen = []
    taken = set()
    while len(chosen) < cap:
        k = rng.below(len(pairs))
        if k not in taken:
            taken.add(k)
            chosen.append(pairs[k])
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

        failure = None
        for m, n in pairs:
            defect = identities.replay_commutator(m, n, p)
            if defect:
                failure = f"m={m}, n={n}, defect={defect}"
                break
        checks.append(Check(f"commutator replay {tag}", "commutator-replay",
                            "pass" if failure is None else "fail",
                            failure or f"{len(pairs)} pairs, all defects zero"))

        singles = index_box(radius) + exceptional_indices(p)
        failure = None
        for m in singles:
            defect = identities.replay_pair_difference(m, p)
            if defect:
                failure = f"m={m}, defect={defect}"
                break
        checks.append(Check(f"pair difference replay {tag}", "pair-difference-replay",
                            "pass" if failure is None else "fail",
                            failure or f"{len(singles)} indices, all defects zero"))

        failure = None
        separated_count = 0
        for m in singles:
            if m.m1 == 0:
                continue
            separated_count += 1
            split = identities.replay_separated_form(m, p)
            if not split.ok:
                failure = (f"m={m}, residual={split.residual.format(('X', 'd1'))}, "
                           f"cross delta={split.cross_delta.format('X')}")
                break
        checks.append(Check(f"separated form replay {tag}", "separated-form-replay",
                            "pass" if failure is None else "fail",
                            failure or (f"{separated_count} indices: no d1 residue and the "
                                        f"X-part matches -(X-q*m1*(alpha-1))*(X-q*m1*alpha)")))

        failure = None
        pair_count = 0
        for m, n in pairs:
            if m.is_zero() or n.is_zero():
                continue
            pair_count += 1
            defects = identities.replay_coefficient_identities(m, n, p)
            if any(defects):
                failure = f"m={m}, n={n}, defects={tuple(str(d) for d in defects)}"
                break
        checks.append(Check(f"coefficient replay {tag}", "coefficient-replay",
                            "pass" if failure is None else "fail",
                            failure or f"{pair_count} nonzero pairs, three zero defects each"))
    return checks


def commutator_variant_control(p: ParamSet, radius: int = 3) -> Check:
    """The variant image must break the commutator identity when alpha != 1."""
    if p.alpha == 1:
        raise ValueError("control parameter set needs alpha != 1")
    witness = None
    for m in index_box(radius):
        for n in index_box(radius):
            defect = identities.replay_commutator(m, n, p, image=action_on_one_alt)
            if defect:
                witness = f"m={m}, n={n}, defect={defect}"
                break
        if witness:
            break
    return Check(
        "commutator replay rejects the variant image", "action-variant-control",
        "pass" if witness is not None else "fail",
        (f"variant {VARIANT_IMAGE_TEXT} breaks the identity: {witness}; adopted "
         f"{CANONICAL_IMAGE_TEXT} passes (see commutator replay); {p.describe()}"
         if witness is not None else
         f"variant {VARIANT_IMAGE_TEXT} unexpectedly satisfied the grid; {p.describe()}"))


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


def iso_rigidity_suite(q, box_radius: int = 3) -> list[Check]:
    grid = iso_parameter_grid(q)
    failures = []
    witness_example = None
    for i, left in enumerate(grid):
        for j, right in enumerate(grid):
            isomorphic, witness = omega.iso_check(left, right, box_radius)
            if (i == j) != isomorphic:
                failures.append(f"grid[{i}] vs grid[{j}]: got {isomorphic}")
            if i != j and witness is None:
                failures.append(f"grid[{i}] vs grid[{j}]: missing witness")
            if i != j and witness is not None and witness_example is None:
                witness_example = f"grid[{i}] vs grid[{j}] differ at m={witness}"
    return [Check(
        f"isomorphism rigidity over a {len(grid)}-point grid (q={q})",
        "isomorphism-rigidity",
        "pass" if not failures else "fail",
        "; ".join(failures[:3]) if failures else
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
    return [Check(
        "difference equation solve/check round trip", "difference-equation",
        "pass" if not failures else "fail",
        "; ".join(failures[:3]) if failures else
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
