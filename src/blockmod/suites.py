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

import itertools
from fractions import Fraction
from typing import NamedTuple

from . import blockalg, identities, omega
from .blockalg import AlgebraContext
from .closure import ClosureTag, closure, filtration_dimension
from .omega import ParamSet, action_on_one, action_on_one_alt
from .poly import IndexPair, Poly1, Poly2, index_box
from .prng import SplitMix64


class Check(NamedTuple):
    name: str
    anchor: str
    status: str                 # "pass" | "fail" | "error"
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def all_passed(checks: list[Check]) -> bool:
    return all(c.ok for c in checks)


def first_defect(kernel, cases, zero=None):
    """Scan the argument tuples ``cases`` in order until ``kernel(*case)`` is
    nonzero.

    Returns ``(cases scanned, (case, defect))`` at the first nonzero
    defect, or ``(cases scanned, None)`` when every defect vanished.  A
    defect is nonzero when ``defect is not zero and defect``: ``zero`` is
    the kernel's shared zero (falsy), so the identity test skips the
    truth test for it, and any other defect, a fresh zero included, goes
    through the truth test.
    """
    count = 0
    for count, case in enumerate(cases, 1):
        defect = kernel(*case)
        if defect is not zero and defect:
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


def sample_poly2(rng: SplitMix64, max_degree: int) -> Poly2:
    """Random nonzero polynomial of total degree at most max_degree, from 1 to 6 terms."""
    while True:
        terms = []
        for _ in range(rng.int_between(1, 6)):
            d = rng.int_between(0, max_degree)
            a = rng.int_between(0, d)
            terms.append(((a, d - a), rng.fraction(num_bound=9, den_bound=4, nonzero=True)))
        candidate = Poly2(terms)
        if candidate:
            return candidate


def sample_poly1(rng: SplitMix64, max_degree: int) -> Poly1:
    """Random polynomial of degree at most max_degree, from 1 to 5 terms."""
    terms = []
    for _ in range(rng.int_between(1, 5)):
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
    """Jacobi defect of every ordered generator triple in the box, plus D2.

    Per q it builds one :class:`blockalg.ConstantTable` and scans the
    positions of its generators in ``itertools.product`` order, so the
    witness is the first failing generator triple in that order.  The
    kernel is read from :mod:`blockalg` at sweep time and called once per
    triple, on ``(i, j, k, table)``.
    """
    checks = []
    for q in q_values:
        table = blockalg.ConstantTable(AlgebraContext(Fraction(q)), radius)
        generators = table.generators
        span = range(len(generators))
        count, failure = first_defect(blockalg.jacobi_defect,
                                      itertools.product(span, span, span, (table,)),
                                      zero=blockalg._ZERO)
        checks.append(verdict(
            f"jacobi q={q}", "jacobi-identity", count,
            failure and "x={}, y={}, z={}, defect={}".format(
                *(generators[i] for i in failure[0][:3]), failure[1]),
            f"{count} triples, all defects zero"))
    return checks


# --- module axioms ------------------------------------------------------------

def axiom_grid_scan(p: ParamSet, polys: list[Poly2], radius: int, image):
    """Scan all ordered generator pairs and polys with :func:`first_defect`.

    Returns ``(cases scanned, ((x, y, f), defect) or None)``, the witness
    generators mapped back from their positions.  Before the first case
    the scan builds one :class:`omega.ImageTable`: the integer carriers
    of image(m, p) for every m of the radius-2R box, (4R+1)^2 images (81
    at radius 2), each built once.  It then calls
    :func:`omega.module_axiom_defect`, read from :mod:`omega` at scan
    time, once per case on ``(i, j, f, table)``, with i and j positions
    into the table's generators in ``itertools.product`` order.

    A case L(m), L(n) reads three carriers and one structure constant and
    builds the f-free commutator defect Delta(m, n) on integers; a case
    with D2 reads nothing.  f is shifted and multiplied only where Delta
    is nonzero, so for the adopted image the scan touches no polynomial
    at all.  Each zero defect is the shared ``omega._ZERO``, tested by
    identity.
    """
    table = omega.ImageTable(p, radius, image)
    span = range(len(table.generators))
    count, failure = first_defect(omega.module_axiom_defect, itertools.product(
        span, span, polys, (table,)), zero=omega._ZERO)
    if failure is None:
        return count, None
    (i, j, f, _), defect = failure
    return count, ((table.generators[i], table.generators[j], f), defect)


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


def check_control_radius(radius: int) -> None:
    """Raise ValueError at radius 0, where no variant control can tell the variant
    image from the adopted one: the grid is L(0,0) and D2, and Delta(0,0) = 0."""
    if radius < 1:
        raise ValueError(f"control radius must be at least 1, got {radius}")


def check_variant_domain(p: ParamSet, radius: int) -> None:
    """Raise ValueError where the axiom grid cannot tell the variant image from the
    adopted one: radius 0 (:func:`check_control_radius`) and alpha = 1 (a d2-translate)."""
    check_control_radius(radius)
    if p.alpha == 1:
        raise ValueError("control parameter set needs alpha != 1")


def variant_control_suite(p: ParamSet, polys: list[Poly2],
                          radius: int = 2) -> list[Check]:
    """Negative control: the variant factor placement must violate the axioms.

    Runs the same generator-pair grid twice.  With the adopted image
    every defect must vanish; with the variant image at least one
    defect must be nonzero; :func:`check_variant_domain` guards the inputs.
    """
    check_variant_domain(p, radius)
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
                            runs_sub: int, rng_seed: int) -> list[Check]:
    """Random seeds must close onto the full level or the submodule level.

    Seeds have total degree at most 3.  Those nonzero at the distinguished
    point must be tagged FULL, nonzero seeds inside the submodule OMEGA_PRIME;
    any other tag is a failure to surface, never to retry.  The tag is the
    whole verdict: :func:`closure.classify_span` tags FULL only at the full
    dimension, and OMEGA_PRIME only one below it with every basis vector
    vanishing at the point, which the invariance certificate counts on.
    """
    rng = SplitMix64(rng_seed)
    x1, x2 = p.vanishing_point()
    full_dim = filtration_dimension(D)
    checks = []
    for where, runs, tag, dim in (("outside", runs_full, ClosureTag.FULL, full_dim),
                                  ("inside", runs_sub, ClosureTag.OMEGA_PRIME, full_dim - 1)):
        failures = []
        for run in range(runs):
            seed = sample_poly2(rng, 3)
            if tag is ClosureTag.OMEGA_PRIME:
                while not (seed := seed - seed.eval_at(x1, x2)):    # onto the hyperplane
                    seed = sample_poly2(rng, 3)
            elif omega.in_proper_submodule(seed, p):
                seed = seed + 1      # move off the hyperplane, degree unchanged
            _, result = closure([seed], D, B, p)
            if result.tag is not tag:
                failures.append(
                    f"run {run}: seed={seed}, tag={result.tag.value}, dim={result.dimension}, "
                    f"{result.diagnostics}")
        checks.append(verdict(
            f"closure of seeds {where} the submodule ({p.describe()})", "submodule-dichotomy",
            runs, "; ".join(failures[:3]),
            f"{runs} runs, all {tag.value} with dim {dim} at D={D}, B={B}"))
    checks.append(verdict(                  # counts the inside runs tagged OMEGA_PRIME
        f"submodule bases vanish at the distinguished point ({p.describe()})",
        "invariance-certificate", runs_sub - len(failures), None,
        f"every basis vector of every OMEGA_PRIME run evaluates to zero at (0,{x2}); "
        f"one-step image reduction certified by the fixpoint pass"))
    return checks


# --- Witt line restriction ------------------------------------------------------

def witt_restriction_suite(ms: list[IndexPair], i_lo: int, i_hi: int,
                           param_sets: list[ParamSet]) -> list[Check]:
    """Each line m of ``ms`` over [i_lo, i_hi]; an empty range, or an m with
    m1 = 0 (:func:`omega.witt_restrict`), raises ValueError."""
    if i_lo > i_hi:
        raise ValueError(f"empty Witt index range [{i_lo},{i_hi}]: need i_lo <= i_hi")
    checks = []
    for index, p in enumerate(param_sets):
        failures = []
        for m in ms:
            _, bad = omega.witt_restrict(m, i_lo, i_hi, p)
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


def _coefficient_defects(m: IndexPair, n: IndexPair, p: ParamSet, image):
    """The three coefficient defects of (m, n), or None when all vanish."""
    defects = identities.replay_coefficient_identities(m, n, p, image)
    return defects if any(defects) else None


def exceptional_pairs(p: ParamSet) -> list[tuple[IndexPair, IndexPair]]:
    """The pairs (e, (1,2)), ((-2,1), e) and (e, e) for each exceptional index e."""
    return [pair for e in exceptional_indices(p)
            for pair in ((e, IndexPair(1, 2)), (IndexPair(-2, 1), e), (e, e))]


def _image_memo(image, p: ParamSet):
    """``image`` for the one parameter set p, built once per index.

    The returned function is called as the kernels call an image,
    ``memo(m, p)``; it ignores its second argument, so it serves only
    the p it was made for.  Its dict is keyed by the index alone, since
    hashing an IndexPair is cheaper than building an image, and hashing
    a ParamSet (four Fractions) is not.
    """
    images = {}

    def memo(m: IndexPair, _p: ParamSet) -> Poly2:
        g = images.get(m)
        if g is None:
            g = images[m] = image(m, p)
        return g
    return memo


def replay_suite(param_sets: list[ParamSet], rng_seed: int, radius: int = 3,
                 pair_cap: int = 200) -> list[Check]:
    """Replay every classification identity over index grids.

    Two-index replays run over a subsample of the box pairs plus, when
    q or 2q is integral, the :func:`exceptional_pairs` touching the
    exceptional indices (0,-q) and (0,-2q).  Single-index replays run
    over the whole box, exceptional indices included.  Radius 0 is the
    zero index alone, which the coefficient replay skips, and a zero pair
    cap leaves no pairs, so both are rejected.

    Per parameter set, each generator image is built once (from
    ``identities.action_on_one``, read once per call) and every replay
    reads it, and each paired product G_m is built once and read by both
    single-index replays.  Nothing built outlives the call.
    """
    if radius < 1:
        raise ValueError(f"replay radius must be at least 1, got {radius}")
    if pair_cap < 1:
        raise ValueError(f"pair cap must be at least 1, got {pair_cap}")
    rng = SplitMix64(rng_seed)
    action = identities.action_on_one
    checks = []
    for index, p in enumerate(param_sets):
        tag = f"#{index + 1} ({p.describe()})"
        pairs = _sample_pairs(rng, radius, pair_cap) + exceptional_pairs(p)
        image = _image_memo(action, p)

        count, failure = first_defect(identities.replay_commutator,
                                      [(m, n, p, image) for m, n in pairs], zero=omega._ZERO)
        checks.append(verdict(
            f"commutator replay {tag}", "commutator-replay", count,
            failure and "m={}, n={}, defect={}".format(*failure[0][:2], failure[1]),
            f"{count} pairs, all defects zero"))

        singles = [(m, p, identities.paired_product(m, p, image))
                   for m in index_box(radius) + exceptional_indices(p)]
        count, failure = first_defect(identities.replay_pair_difference, singles)
        checks.append(verdict(
            f"pair difference replay {tag}", "pair-difference-replay", count,
            failure and "m={}, defect={}".format(failure[0][0], failure[1]),
            f"{count} indices, all defects zero"))

        count, failure = first_defect(identities.replay_separated_form, singles)
        checks.append(verdict(
            f"separated form replay {tag}", "separated-form-replay", count,
            failure and "m={}, defect={}".format(failure[0][0], failure[1]),
            f"{count} indices: no d1 residue and the X-part matches "
            f"-(X-q*m1*(alpha-1))*(X-q*m1*alpha)"))

        nonzero_pairs = [(m, n, p, image) for m, n in pairs
                         if not (m.is_zero() or n.is_zero())]
        count, failure = first_defect(_coefficient_defects, nonzero_pairs)
        checks.append(verdict(
            f"coefficient replay {tag}", "coefficient-replay", count,
            failure and "m={}, n={}, defects={}".format(
                *failure[0][:2], tuple(str(d) for d in failure[1])),
            f"{count} nonzero pairs, three zero defects each"))
    return checks


def commutator_variant_control(p: ParamSet, radius: int = 3) -> Check:
    """The variant image must violate the commutator identity when alpha != 1;
    at alpha = 1 the Check is an error.  Radius 0 raises (:func:`check_control_radius`),
    at alpha = 1 too."""
    check_control_radius(radius)
    if p.alpha == 1:
        return Check("commutator replay rejects the variant image", "action-variant-control",
                     "error", "control undefined at alpha=1: the variant there is a "
                     "d2-translate of the adopted action and satisfies the identities")
    box = index_box(radius)
    _, failure = first_defect(identities.replay_commutator, itertools.product(
        box, box, (p,), (action_on_one_alt,)), zero=omega._ZERO)
    return Check(
        "commutator replay rejects the variant image", "action-variant-control",
        "pass" if failure else "fail",
        "variant {} breaks the identity: m={}, n={}, defect={}; adopted {} passes "
        "(see commutator replay); {}".format(VARIANT_IMAGE_TEXT, *failure[0][:2], failure[1],
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
    """Only equal grid pairs may be isomorphic; :func:`omega.iso_check`
    gives a witness for every distinct pair, or raises.  The
    :func:`omega.iso_images` of each grid point are built once per call."""
    grid = iso_parameter_grid(q)
    images = [omega.iso_images(p) for p in grid]
    failures = []
    witness_example = None
    for i, left in enumerate(grid):
        for j, right in enumerate(grid):
            isomorphic, witness = omega.iso_check(left, right, (images[i], images[j]))
            if (i == j) != isomorphic:
                failures.append(f"grid[{i}] vs grid[{j}]: got {isomorphic}")
            if witness is not None and witness_example is None:
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
    """A random parameter set with alpha outside {0, 1}.  The controls need
    only alpha != 1; alpha = 0 is skipped only to keep the sampled control,
    and so the report bytes."""
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
