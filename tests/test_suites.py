import itertools
from fractions import Fraction

import pytest

from blockmod import blockalg, identities, omega, poly, suites
from blockmod.blockalg import AlgebraElement
from blockmod.closure import ClosureResult, ClosureTag
from blockmod.identities import SeparatedForm
from blockmod.omega import ParamSet
from blockmod.poly import IndexPair, Poly1, Poly2, index_box
from blockmod.prng import SplitMix64
from blockmod.suites import (all_passed, control_param_set, exceptional_indices,
                             iso_parameter_grid, sample_param_set, sample_poly2)
from child_process import run_python


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
    polys = [sample_poly2(SplitMix64(3), 2)]
    with pytest.raises(ValueError, match="alpha"):
        suites.variant_control_suite(ParamSet(1, 1, 1, 1), polys, radius=1)
    with pytest.raises(ValueError, match="alpha"):
        suites.commutator_variant_control(ParamSet(1, 1, 1, 1))


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


def _unmemoized_axiom_scan(p, polys, radius, image):
    """The axiom grid scan as a plain per-case loop, with no memo."""
    generators = [AlgebraElement.basis(m) for m in index_box(radius)]
    generators.append(AlgebraElement.derivation())
    cases = ((x, y, f) for x, y in itertools.product(generators, repeat=2) for f in polys)
    return suites.first_defect(cases, lambda xyf: omega.module_axiom_defect(*xyf, p, image))


@pytest.mark.parametrize("image", [omega.action_on_one, omega.action_on_one_alt])
def test_axiom_scan_memo_changes_nothing(monkeypatch, image):
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))
    polys = [Poly2({(1, 0): 1, (0, 2): -3}), Poly2({(2, 1): Fraction(3, 4), (0, 0): 2})]
    radius = 1
    expected = _unmemoized_axiom_scan(p, polys, radius, image)
    assert (expected[1] is None) == (image is omega.action_on_one)

    defect, act, pair_factor = omega.module_axiom_defect, omega.act, omega.commutator_factor
    calls, acts, pairs = [], [], []

    def recorded_defect(*args, **kwargs):
        calls.append(args)
        return defect(*args, **kwargs)

    def recorded_act(*args, **kwargs):
        acts.append(args)
        return act(*args, **kwargs)

    def recorded_factor(m, n, *args):
        pairs.append((m, n))
        return pair_factor(m, n, *args)

    built = []

    def counted_image(m, params):
        built.append(m)
        return image(m, params)

    monkeypatch.setattr(omega, "module_axiom_defect", recorded_defect)
    monkeypatch.setattr(omega, "act", recorded_act)
    monkeypatch.setattr(omega, "commutator_factor", recorded_factor)
    count, failure = suites.axiom_grid_scan(p, polys, radius, counted_image)
    # the same first failing case and the same defect, or the same clean count
    assert (count, failure) == expected
    # a case of two basis generators makes one act, for the bracket term; a
    # case with D2 makes five, the bracket term and the two nested actions
    with_d2 = sum(blockalg.D2 in x._nums or blockalg.D2 in y._nums
                  for x, y, *_ in calls)
    assert len(calls) == count and len(acts) == count + 4 * with_d2
    # one table for the scan: every generator image is built at most once
    assert built and len(built) == len(set(built))
    assert set(built) <= set(index_box(2 * radius))
    # the commutator factor of each ordered basis pair is built once
    basis_pairs = [(next(iter(x._nums)).m, next(iter(y._nums)).m)
                   for x, y, *_ in calls
                   if blockalg.D2 not in x._nums and blockalg.D2 not in y._nums]
    assert pairs == list(dict.fromkeys(basis_pairs))

    # one memo per polynomial, holding the shifts f(d - s) of that polynomial only
    memos = {}
    for x, y, f, _, _, memo, _ in calls:
        assert memos.setdefault(id(memo), (f, memo))[0] is f
    assert len(memos) == min(count, len(polys))
    box = set(index_box(2 * radius))
    for f, memo in memos.values():
        assert set(memo) <= box
        for m, moved in memo.items():
            assert moved == f.shifted(m)


def test_replay_failure_witnesses(monkeypatch):
    p = ParamSet(Fraction(5, 7), 1, 1, Fraction(1, 2))
    fakes = {
        "replay_commutator": _defect_at(3, poly.D1 * poly.D2, Poly2()),
        "replay_pair_difference": _defect_at(2, Poly2.const(-4), Poly2()),
        "replay_separated_form": _defect_at(
            4, SeparatedForm(Poly1(), Poly2({(1, 1): 2}), Poly1({1: Fraction(-1, 3)})),
            SeparatedForm(Poly1(), Poly2(), Poly1())),
        "replay_coefficient_identities": _defect_at(
            3, (Fraction(0), Fraction(1, 2), Fraction(0)), (0, 0, 0)),
    }
    for name, fake in fakes.items():
        monkeypatch.setattr(identities, name, fake)
    checks = suites.replay_suite([p], rng_seed=3, radius=1, pair_cap=6)
    assert [len(fake.calls) for fake in fakes.values()] == [3, 2, 4, 3]
    tag = "#1 (q=5/7, lambda=(1,1), alpha=1/2)"
    assert checks == [
        suites.Check(f"commutator replay {tag}", "commutator-replay", "fail",
                     "m=(0,0), n=(0,1), defect=d1*d2"),
        suites.Check(f"pair difference replay {tag}", "pair-difference-replay", "fail",
                     "m=(-1,0), defect=-4"),
        suites.Check(f"separated form replay {tag}", "separated-form-replay", "fail",
                     "m=(1,-1), residual=2*X*d1, cross delta=-1/3*X"),
        suites.Check(f"coefficient replay {tag}", "coefficient-replay", "fail",
                     "m=(1,0), n=(-1,-1), defects=('0', '1/2', '0')"),
    ]


def test_wrong_structure_constant_is_caught(monkeypatch):
    # c(m, n) off by one on the single ordered pair m=(1,0), n=(0,1)
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))
    polys = suites.sample_axiom_polys(1, count=1)
    true_constant = blockalg.structure_constant

    def statuses():
        replay = suites.replay_suite([p], rng_seed=1, radius=1, pair_cap=81)
        return ([c.status for c in suites.jacobi_suite([p.q], radius=1)],
                [c.status for c in suites.module_axiom_suite([p], polys, radius=1)],
                {c.anchor: c.status for c in replay}["commutator-replay"])

    assert statuses() == (["pass"], ["pass"], "pass")

    def off_by_one(m, n, a, b):
        return true_constant(m, n, a, b) + b * ((m, n) == (IndexPair(1, 0), IndexPair(0, 1)))

    monkeypatch.setattr(blockalg, "structure_constant", off_by_one)
    assert statuses() == (["fail"], ["fail"], "fail")


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
