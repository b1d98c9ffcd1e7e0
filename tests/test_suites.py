import itertools
from fractions import Fraction

import pytest

from blockmod import blockalg, identities, omega, poly, suites
from blockmod.blockalg import D2, AlgebraContext, AlgebraElement, BasisL
from blockmod.closure import ClosureResult, ClosureTag
from blockmod.omega import ParamSet
from blockmod.poly import IndexPair, Poly2, index_box
from blockmod.prng import SplitMix64
from blockmod.suites import (all_passed, control_param_set, exceptional_indices,
                             iso_parameter_grid, sample_param_set, sample_poly2)
from child_process import run_python
from oracles import generator_axiom_defect, generator_jacobi_defect


def test_splitmix64_reference_sequence():
    # the documented generator: published outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = SplitMix64(0)
    assert rng.int_between(-3, 3) in range(-3, 4)
    with pytest.raises(ValueError):
        rng.below(0)


def test_exceptional_indices():
    assert exceptional_indices(ParamSet(2, 1, 1, 0)) == \
        [IndexPair(0, -2), IndexPair(0, -4)]
    assert exceptional_indices(ParamSet(Fraction(3, 2), 1, 1, 0)) == [IndexPair(0, -3)]
    assert exceptional_indices(ParamSet(Fraction(5, 7), 1, 1, 0)) == []


def test_param_set_sampling_modes():
    rng = SplitMix64(9)
    for _ in range(10):
        assert sample_param_set(rng, "integer").q.denominator == 1
        assert sample_param_set(rng, "half-integer").q.denominator == 2
        assert sample_param_set(rng, "generic").q != 0
    with pytest.raises(ValueError):
        sample_param_set(rng, "complex")
    assert control_param_set(4).alpha not in (0, 1)


def test_poly_sampling_bounds():
    rng = SplitMix64(10)
    for _ in range(30):
        f = sample_poly2(rng, max_degree=3)
        assert f and f.total_degree() <= 3


def test_iso_parameter_grid():
    grid = iso_parameter_grid(Fraction(5, 7))
    assert len(grid) == 10 and len(set(grid)) == 10
    assert all(p.q == Fraction(5, 7) for p in grid)


def test_variant_controls_reject_degenerate_alpha():
    # at alpha=1 the variant is a d2-translate of the adopted action: the
    # axiom control raises, the commutator control is an error check
    polys = [sample_poly2(SplitMix64(3), 2)]
    with pytest.raises(ValueError, match="alpha"):
        suites.variant_control_suite(ParamSet(1, 1, 1, 1), polys, radius=1)
    assert suites.commutator_variant_control(ParamSet(1, 1, 1, 1)) == suites.Check(
        "commutator replay rejects the variant image", "action-variant-control", "error",
        "control undefined at alpha=1: the variant there is a d2-translate of the adopted "
        "action and satisfies the identities")


@pytest.mark.parametrize("q", suites.ACCEPTANCE_Q_VALUES)
@pytest.mark.parametrize("lam", [(1, 1), (Fraction(2, 3), -3)])
def test_variant_controls_pass_at_alpha_zero(q, lam):
    # the controls are undefined only at alpha=1: at alpha=0 the variant
    # fails both the axiom grid and the commutator identity
    p = ParamSet(q, *lam, 0)
    polys = [sample_poly2(SplitMix64(3), 2)]
    checks = suites.variant_control_suite(p, polys, radius=1)
    assert [c.status for c in checks] == ["pass", "pass"]
    assert suites.commutator_variant_control(p, radius=1).status == "pass"


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1)])
def test_variant_controls_reject_radius_zero(alpha, monkeypatch):
    # the radius-0 grid holds only L(0,0), where Delta(0,0) = 0 for every image;
    # both controls and the CLI's variant guard raise through one radius guard,
    # before the alpha = 1 case
    guarded = []
    guard = suites.check_control_radius
    monkeypatch.setattr(suites, "check_control_radius",
                        lambda radius: guarded.append(radius) or guard(radius))
    p = ParamSet(1, 1, 1, alpha)
    polys = [sample_poly2(SplitMix64(3), 2)]
    with pytest.raises(ValueError, match="control radius must be at least 1, got 0"):
        suites.variant_control_suite(p, polys, radius=0)
    with pytest.raises(ValueError, match="control radius must be at least 1, got 0"):
        suites.commutator_variant_control(p, radius=0)
    with pytest.raises(ValueError, match="control radius must be at least 1, got 0"):
        suites.check_variant_domain(p, 0)
    assert guarded == [0, 0, 0]


def test_witt_suite_rejects_m1_zero():
    # a line with m1 = 0 is an invalid grid, not a failed check
    lines = [IndexPair(1, 0), IndexPair(0, 1)]
    with pytest.raises(ValueError, match="m1 != 0"):
        suites.witt_restriction_suite(lines, -2, 2, [ParamSet(1, 1, 1, 0)])


def test_small_scale_dichotomy():
    checks = suites.closure_dichotomy_suite(ParamSet(1, 1, 1, 0), D=3, B=5,
                                            runs_full=2, runs_sub=2, rng_seed=6)
    assert len(checks) == 3
    assert all_passed(checks)


def test_check_record():
    check = suites.Check("x", "anchor", "fail", witness="w")
    assert not check.ok
    assert not all_passed([suites.Check("a", "b", "pass"), check])


def _defect_at(k, defect, zero):
    """A stand-in defect function: nonzero ``defect`` at its k-th call only."""
    def fake(*args, **kwargs):
        fake.calls.append(args)
        return defect if len(fake.calls) == k else zero
    fake.calls = []
    return fake


def test_jacobi_failure_witness(monkeypatch):
    defect = AlgebraElement.basis(IndexPair(1, 0)) - Fraction(3, 2) * AlgebraElement.derivation()
    fake = _defect_at(7, defect, AlgebraElement())
    monkeypatch.setattr(blockalg, "jacobi_defect", fake)
    checks = suites.jacobi_suite([Fraction(5, 7)], radius=1)
    assert len(fake.calls) == 7
    assert checks == [suites.Check(
        "jacobi q=5/7", "jacobi-identity", "fail",
        "x=L(-1,-1), y=L(-1,-1), z=L(1,-1), defect=L(1,0) - 3/2*D2")]


def test_jacobi_scan_tests_a_fresh_zero_by_truth(monkeypatch):
    # the sweep skips the truth test only for the kernel's shared zero; a
    # falsy defect that is another object still reads as zero, so every
    # triple is scanned and every check passes
    kernel = blockalg.jacobi_defect
    fresh = []

    def fresh_zero(*args):
        defect = kernel(*args)
        assert defect is blockalg._ZERO
        fresh.append(args[:3])
        return AlgebraElement._of({}, 1)

    monkeypatch.setattr(blockalg, "jacobi_defect", fresh_zero)
    checks = suites.jacobi_suite(suites.ACCEPTANCE_Q_VALUES, radius=1)
    assert [c.status for c in checks] == ["pass"] * 5
    assert [c.witness for c in checks] == ["1000 triples, all defects zero"] * 5
    assert len(fresh) == 5 * 1000


def test_axiom_scan_and_commutator_replay_test_a_fresh_zero_by_truth(monkeypatch):
    # the two scans skip the truth test only for omega._ZERO; a falsy defect
    # that is another object still reads as zero, so every case is scanned
    # and every check passes
    fresh = []

    def fresh_zero(kernel):
        def patched(*args):
            assert kernel(*args) is omega._ZERO
            fresh.append(args)
            return Poly2._of({}, 1)
        return patched

    monkeypatch.setattr(omega, "module_axiom_defect", fresh_zero(omega.module_axiom_defect))
    monkeypatch.setattr(identities, "replay_commutator", fresh_zero(identities.replay_commutator))
    params = suites.acceptance_param_sets(2)
    polys = suites.sample_axiom_polys(3, count=2)
    checks = suites.module_axiom_suite(params, polys, radius=2)
    assert [c.status for c in checks] == ["pass"] * 3
    assert [c.witness.split(";")[0] for c in checks] == \
        ["1352 (pair, poly) cases, all defects zero"] * 3
    assert len(fresh) == 3 * 1352

    fresh.clear()
    checks = [c for c in suites.replay_suite(params, rng_seed=8, radius=2, pair_cap=40)
              if c.anchor == "commutator-replay"]
    counts = [40 + 3 * len(exceptional_indices(p)) for p in params]
    assert [c.status for c in checks] == ["pass"] * 3
    assert [c.witness for c in checks] == [f"{n} pairs, all defects zero" for n in counts]
    assert len(fresh) == sum(counts) > 3 * 40


def test_shared_zeros_are_never_changed():
    # the kernels hand omega._ZERO and blockalg._ZERO to every caller, so no
    # operation may write into a zero operand: after a quick report and each
    # operation with a zero on either side, both are still ({}, 1)
    suites.full_report(quick=True)
    z, f = omega._ZERO, Poly2({(2, 1): Fraction(3, 4), (0, 0): -2})
    assert z + z == z - z == -z == z * z == z * f == f * z == 0
    assert z + f == f + z == f - z == -(z - f) == f and 1 - z == 1
    assert Fraction(5, 3) * z == z * 2 == z * 0 == 0
    assert z.shifted(IndexPair(1, -2)) == z._shift(Fraction(1, 2), 3) == 0
    e = blockalg._ZERO
    x = AlgebraElement.basis(IndexPair(1, 0)) - Fraction(3, 2) * AlgebraElement.derivation()
    assert e + e == e - e == -e == Fraction(2, 7) * e == e * 3 == e * 0 == AlgebraElement()
    assert e + x == x + e == x - e == -(e - x) == x
    ctx = AlgebraContext(Fraction(5, 7))
    assert not (blockalg.bracket(e, x, ctx) or blockalg.bracket(x, e, ctx)
                or blockalg.bracket(e, e, ctx))
    for zero in (omega._ZERO, blockalg._ZERO):
        assert (zero._nums, zero._den) == ({}, 1)


def test_jacobi_scan_reaches_a_defect_at_the_last_triple(monkeypatch):
    # a defect only at the last triple, (D2, D2, D2), is found after all
    # G^3 kernel calls and is that triple's witness
    count = (3 ** 2 + 1) ** 3
    defect = Fraction(-2) * AlgebraElement.basis(IndexPair(0, 1))
    fake = _defect_at(count, defect, blockalg._ZERO)
    monkeypatch.setattr(blockalg, "jacobi_defect", fake)
    checks = suites.jacobi_suite([Fraction(5, 7)], radius=1)
    assert len(fake.calls) == count and fake.calls[-1][:3] == (9, 9, 9)
    assert checks == [suites.Check("jacobi q=5/7", "jacobi-identity", "fail",
                                   "x=D2, y=D2, z=D2, defect=-2*L(0,1)")]
    table = fake.calls[-1][3]
    span = range(len(table.generators))
    fake.calls.clear()
    assert suites.first_defect(fake, itertools.product(span, span, span, (table,)),
                               zero=blockalg._ZERO) == (count, ((9, 9, 9, table), defect))


def oracle_jacobi_checks(q_values, radius):
    """The Jacobi checks as the per-triple oracle gives them: every generator
    triple of the row-major radius-R box, then D2, in itertools.product
    order, with the first nonzero defect as the witness."""
    generators = [BasisL(IndexPair(a, b)) for a in range(-radius, radius + 1)
                  for b in range(-radius, radius + 1)] + [D2]
    checks = []
    for q in q_values:
        ctx = AlgebraContext(Fraction(q))
        name = f"jacobi q={q}"
        for count, xyz in enumerate(itertools.product(generators, repeat=3), 1):
            defect = generator_jacobi_defect(*xyz, ctx)
            if defect:
                checks.append(suites.Check(name, "jacobi-identity", "fail",
                                           "x={}, y={}, z={}, defect={}".format(*xyz, defect)))
                break
        else:
            checks.append(suites.Check(name, "jacobi-identity", "pass",
                                       f"{count} triples, all defects zero"))
    return checks


def _patched(true_constant, kind):
    if kind == "skew":
        return lambda m, n, a, b: true_constant(m, n, a, b) + m.m1 * n.m2 + 1
    pair = {"off-by-one": (IndexPair(1, 0), IndexPair(0, 1)),
            "late-pair": (IndexPair(2, 2), IndexPair(-1, 3))}[kind]
    return lambda m, n, a, b: true_constant(m, n, a, b) + b * ((m, n) == pair)


@pytest.mark.parametrize("kind", ["true", "skew", "off-by-one", "late-pair"])
def test_jacobi_table_scan_matches_the_oracle_scan(monkeypatch, kind):
    # the table scan gives the oracle scan's checks byte for byte, witnesses
    # included, under the true constant and three patched ones: a skew that
    # fails at the first triple, and two single off-by-one pairs, one of
    # them read only late in the scan (its v lies outside the radius-R box)
    if kind != "true":
        monkeypatch.setattr(blockalg, "structure_constant",
                            _patched(blockalg.structure_constant, kind))
    checks = suites.jacobi_suite(suites.ACCEPTANCE_Q_VALUES, radius=2)
    assert checks == oracle_jacobi_checks(suites.ACCEPTANCE_Q_VALUES, radius=2)
    assert [c.status for c in checks] == ["pass" if kind == "true" else "fail"] * 5
    if kind == "skew":
        # every triple, not only the first failing one: the D2 rotations
        # are nonzero under the skew
        for q in suites.ACCEPTANCE_Q_VALUES:
            ctx = AlgebraContext(q)
            table = blockalg.ConstantTable(ctx, 2)
            generators = table.generators
            for ijk in itertools.product(range(len(generators)), repeat=3):
                assert blockalg.jacobi_defect(*ijk, table) == generator_jacobi_defect(
                    *(generators[i] for i in ijk), ctx), ijk


def test_module_axiom_failure_witness(monkeypatch):
    p = ParamSet(Fraction(5, 7), 2, 1, Fraction(1, 3))
    f = Poly2({(1, 0): 1, (0, 2): -3})
    fake = _defect_at(12, poly.D2 - 1, Poly2())
    monkeypatch.setattr(omega, "module_axiom_defect", fake)
    checks = suites.module_axiom_suite([p], [f], radius=1)
    assert len(fake.calls) == 12
    assert checks == [suites.Check(
        "module axioms #1", "module-action-compatibility", "fail",
        "x=L(-1,0), y=L(-1,0), f=-3*d2^2 + d1, defect=d2 - 1; "
        "q=5/7, lambda=(2,1), alpha=1/3")]

    # the adopted scan stops at the planted defect; the variant scan then
    # meets none and runs the whole grid
    fake = _defect_at(12, poly.D2 - 1, Poly2())
    monkeypatch.setattr(omega, "module_axiom_defect", fake)
    checks = suites.variant_control_suite(p, [f], radius=1)
    assert len(fake.calls) == 12 + 100
    assert checks == [
        suites.Check("adopted action passes the axiom grid", "action-variant-control", "fail",
                     f"image {suites.CANONICAL_IMAGE_TEXT} unexpectedly fails: "
                     "x=L(-1,0), y=L(-1,0)"),
        suites.Check("variant action fails the axiom grid", "action-variant-control", "fail",
                     f"image {suites.VARIANT_IMAGE_TEXT} unexpectedly passed the whole grid; "
                     "q=5/7, lambda=(2,1), alpha=1/3")]


def _per_case_axiom_scan(p, polys, radius, image):
    """The axiom grid scan as a plain per-case loop on generators, with no image table."""
    generators = [BasisL(m) for m in index_box(radius)] + [blockalg.D2]
    return suites.first_defect(lambda x, y, f: generator_axiom_defect(x, y, f, p, image),
                               itertools.product(generators, generators, polys))


@pytest.mark.parametrize("image", [omega.action_on_one, omega.action_on_one_alt])
def test_axiom_scan_matches_the_per_case_loop(monkeypatch, image):
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))
    polys = [Poly2({(1, 0): 1, (0, 2): -3}), Poly2({(2, 1): Fraction(3, 4), (0, 0): 2})]
    radius = 1
    expected = _per_case_axiom_scan(p, polys, radius, image)
    assert (expected[1] is None) == (image is omega.action_on_one)

    defect, pair_defect = omega.module_axiom_defect, omega._affine_delta
    calls, composed, pairs = [], [], []

    def recorded_defect(i, j, f, table):
        calls.append((table.generators[i], table.generators[j], f))
        return defect(i, j, f, table)

    def recorded_composition(*args, **kwargs):
        composed.append(args)
        raise AssertionError("the axiom scan composed an action or a bracket")

    def recorded_delta(m, n, *args):
        pairs.append((m, n))
        return pair_defect(m, n, *args)

    built = []

    def counted_image(m, params):
        built.append(m)
        return image(m, params)

    monkeypatch.setattr(omega, "module_axiom_defect", recorded_defect)
    monkeypatch.setattr(omega, "act", recorded_composition)
    monkeypatch.setattr(blockalg, "bracket", recorded_composition)
    monkeypatch.setattr(omega, "_affine_delta", recorded_delta)
    count, failure = suites.axiom_grid_scan(p, polys, radius, counted_image)
    # the same first failing case and the same defect, or the same clean count
    assert (count, failure) == expected
    # no case makes an act or a bracket; the clean scan reaches the cases with D2
    assert len(calls) == count and not composed
    assert failure or any(blockalg.D2 in (x, y) for x, y, *_ in calls)
    # one table for the scan: every generator image is built at most once
    assert built and len(built) == len(set(built))
    assert set(built) <= set(index_box(2 * radius))
    # the one closed form of Delta runs once per basis case, in scan order
    basis_pairs = [(x.m, y.m) for x, y, *_ in calls if blockalg.D2 not in (x, y)]
    assert pairs == basis_pairs


def test_replay_failure_witnesses(monkeypatch):
    p = ParamSet(Fraction(5, 7), 1, 1, Fraction(1, 2))
    fakes = {
        "replay_commutator": _defect_at(3, poly.D1 * poly.D2, Poly2()),
        "replay_pair_difference": _defect_at(2, Poly2.const(-4), Poly2()),
        "replay_separated_form": _defect_at(
            7, Poly2({(1, 1): 2, (1, 0): Fraction(-1, 3)}), Poly2()),
        "replay_coefficient_identities": _defect_at(
            3, (Fraction(0), Fraction(1, 2), Fraction(0)), (0, 0, 0)),
    }
    for name, fake in fakes.items():
        monkeypatch.setattr(identities, name, fake)
    checks = suites.replay_suite([p], rng_seed=3, radius=1, pair_cap=6)
    # the separated form scans the whole box, m1 = 0 included: (1,-1) is index 7
    assert [len(fake.calls) for fake in fakes.values()] == [3, 2, 7, 3]
    tag = "#1 (q=5/7, lambda=(1,1), alpha=1/2)"
    assert checks == [
        suites.Check(f"commutator replay {tag}", "commutator-replay", "fail",
                     "m=(0,0), n=(0,1), defect=d1*d2"),
        suites.Check(f"pair difference replay {tag}", "pair-difference-replay", "fail",
                     "m=(-1,0), defect=-4"),
        suites.Check(f"separated form replay {tag}", "separated-form-replay", "fail",
                     "m=(1,-1), defect=2*d1*d2 - 1/3*d1"),
        suites.Check(f"coefficient replay {tag}", "coefficient-replay", "fail",
                     "m=(1,0), n=(-1,-1), defects=('0', '1/2', '0')"),
    ]


def test_variant_image_fails_the_separated_form_replay(monkeypatch):
    # the paired product built from the variant image breaks the separated form
    p = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 3))

    def separated_form_check():
        checks = suites.replay_suite([p], rng_seed=1, radius=2, pair_cap=1)
        return next(c for c in checks if c.anchor == "separated-form-replay")

    assert separated_form_check().status == "pass"
    monkeypatch.setattr(identities, "action_on_one", omega.action_on_one_alt)
    check = separated_form_check()
    assert check.status == "fail" and check.witness.startswith("m=(")
    assert ", defect=" in check.witness


def test_one_image_feeds_all_four_replays(monkeypatch):
    # the suite reads identities.action_on_one once per call and hands that
    # image to every replay, so the variant image, at alpha != 1, breaks the
    # two-index replays as well as the single-index ones
    p = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 3))
    anchors = ["commutator-replay", "pair-difference-replay", "separated-form-replay",
               "coefficient-replay"]

    def statuses():
        checks = suites.replay_suite([p], rng_seed=1, radius=2, pair_cap=40)
        return {c.anchor: c.status for c in checks}

    assert statuses() == dict.fromkeys(anchors, "pass")
    monkeypatch.setattr(identities, "action_on_one", omega.action_on_one_alt)
    assert statuses() == dict.fromkeys(anchors, "fail")


def test_faulty_generator_image_fails_the_coefficient_replay(monkeypatch):
    # the coefficient replay reads the images the module uses: a constant
    # term added to every g_m breaks the commutator identity's constant part
    p = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 3))
    image = omega.generator_image

    def coefficient_check():
        checks = suites.replay_suite([p], rng_seed=1, radius=2, pair_cap=40)
        return next(c for c in checks if c.anchor == "coefficient-replay")

    assert coefficient_check().status == "pass"
    monkeypatch.setattr(omega, "generator_image",
                        lambda m, params, variant=False: image(m, params, variant) + 1)
    check = coefficient_check()
    assert check.status == "fail", check
    assert check.witness.startswith("m=(") and ", n=(" in check.witness
    assert ", defects=(" in check.witness


def test_wrong_structure_constant_is_caught(monkeypatch):
    # c(m, n) off by one on the single ordered pair m=(1,0), n=(0,1)
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))
    polys = suites.sample_axiom_polys(1, count=1)
    true_constant = blockalg.structure_constant

    def statuses():
        replay = suites.replay_suite([p], rng_seed=1, radius=1, pair_cap=81)
        replay_statuses = {c.anchor: c.status for c in replay}
        return ([c.status for c in suites.jacobi_suite([p.q], radius=1)],
                [c.status for c in suites.module_axiom_suite([p], polys, radius=1)],
                replay_statuses["commutator-replay"], replay_statuses["coefficient-replay"])

    assert statuses() == (["pass"], ["pass"], "pass", "pass")

    def off_by_one(m, n, a, b):
        return true_constant(m, n, a, b) + b * ((m, n) == (IndexPair(1, 0), IndexPair(0, 1)))

    monkeypatch.setattr(blockalg, "structure_constant", off_by_one)
    assert statuses() == (["fail"], ["fail"], "fail", "fail")


def _materialized_pair_sample(rng, radius, cap):
    # reference: draw indices into the full row-major list of box pairs
    box = index_box(radius)
    pairs = [(m, n) for m in box for n in box]
    if len(pairs) <= cap:
        return pairs
    chosen, taken = [], set()
    while len(chosen) < cap:
        k = rng.below(len(pairs))
        if k not in taken:
            taken.add(k)
            chosen.append(pairs[k])
    return chosen


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_pair_sample_matches_the_materialized_list(radius):
    for seed in (1, 7):
        for cap in (1, 40, 200, (2 * radius + 1) ** 4):
            rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
            assert suites._sample_pairs(rng, radius, cap) == \
                _materialized_pair_sample(reference_rng, radius, cap)
            assert rng.next_u64() == reference_rng.next_u64()


def test_pair_sample_at_large_radius_is_fast():
    # radius 40 has 43 million box pairs; the sample must not build them
    code = ("from blockmod.prng import SplitMix64; from blockmod.suites import _sample_pairs; "
            "print(len(_sample_pairs(SplitMix64(1), 40, 5)))")
    result = run_python("-c", code)
    assert result.stdout.strip() == "5"


def test_empty_scans_are_errors():
    p = ParamSet(1, 1, 1, 0)
    empty = [
        *suites.closure_dichotomy_suite(p, D=2, B=2, runs_full=0, runs_sub=1, rng_seed=6),
        *suites.difference_equation_suite(9, positives=2, negatives=0),
        *suites.module_axiom_suite([p], []),
        *suites.witt_restriction_suite([], -4, 4, [p]),
    ]
    assert [(c.anchor, c.status, c.witness) for c in empty if not c.ok] == [
        ("submodule-dichotomy", "error", "no case was checked"),
        ("difference-equation", "error", "no case was checked"),
        ("module-action-compatibility", "error", "no case was checked"),
        ("witt-line-reduction", "error", "no case was checked"),
    ]
    assert len(empty) == 6 and not all_passed(empty)


def test_invariance_certificate_needs_a_certified_run(monkeypatch):
    # every inside run off target: the certificate has no basis to vouch for
    monkeypatch.setattr(suites, "closure", lambda *args: (
        None, ClosureResult(ClosureTag.OTHER, 1, "stand-in")))
    checks = suites.closure_dichotomy_suite(ParamSet(1, 1, 1, 0), D=2, B=2, runs_full=0,
                                            runs_sub=2, rng_seed=6)
    assert [(c.anchor, c.status) for c in checks] == [
        ("submodule-dichotomy", "error"), ("submodule-dichotomy", "fail"),
        ("invariance-certificate", "error")]
