from fractions import Fraction

import pytest

from blockmod import blockalg, poly
from blockmod.identities import (difference_check, difference_solve,
                                 paired_product, replay_coefficient_identities,
                                 replay_commutator, replay_pair_difference,
                                 replay_separated_form)
from blockmod.omega import ParamSet, action_on_one_alt
from blockmod.poly import IndexPair, Poly1, Poly2
from blockmod.prng import SplitMix64
from blockmod.suites import acceptance_param_sets
from oracles import compose2, from_single_variable, witness_coefficient_defects

X = Poly2({(1, 0): 1})
Y = Poly2({(0, 1): 1})


def random_params(rng, q_choices=None):
    q = Fraction(rng.choice(q_choices)) if q_choices else rng.fraction(nonzero=True)
    return ParamSet(q=q,
                    lambda1=rng.fraction(num_bound=4, den_bound=3, nonzero=True),
                    lambda2=rng.fraction(num_bound=4, den_bound=3, nonzero=True),
                    alpha=rng.fraction(num_bound=4, den_bound=3))


def grid(radius):
    return [IndexPair(a, b)
            for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1)]


# --- difference-equation lemma --------------------------------------------------

def test_difference_solve_degenerate():
    f_x = Poly1({3: 1, 0: -2})
    F = difference_solve(f_x, 0, 0, 1)
    assert F == Fraction(1, 2) * from_single_variable(f_x, 0)
    assert F - compose2(F, X, Y - 1) == 0


def test_difference_solve_hand_example():
    F = difference_solve(Poly1(), 2, 4, 1)
    assert F == (2 * X + 2) * Y + 2 * Y**2
    difference = F - compose2(F, X, Y - 1)
    assert difference == 2 * X + 4 * Y
    assert difference_check(F, 2, 4, 1)


def test_difference_c_zero_errors():
    with pytest.raises(ValueError):
        difference_solve(Poly1.const(1), 1, 1, 0)
    with pytest.raises(ValueError):
        difference_check(X, 1, 1, 0)


def test_difference_check_examples():
    assert difference_check(difference_solve(Poly1({2: 5}), 3, -2, Fraction(1, 2)),
                            3, -2, Fraction(1, 2))
    # X*Y^2 does not satisfy the identity with a = b = 0
    assert not difference_check(X * Y**2, 0, 0, 1)
    # constant in Y is fine when a = b = 0
    assert difference_check(X**3, 0, 0, 2)


def test_difference_round_trip_randomized():
    rng = SplitMix64(51)
    for _ in range(60):
        f_x = Poly1([(rng.int_between(0, 5), rng.fraction(nonzero=True))
                     for _ in range(rng.int_between(1, 4))])
        a, b = rng.fraction(), rng.fraction()
        c = rng.fraction(nonzero=True)
        F = difference_solve(f_x, a, b, c)
        assert difference_check(F, a, b, c)
        # a cubic in the second slot can never appear in a solution
        spoiled = F + Poly2({(1, 3): 1})
        assert not difference_check(spoiled, a, b, c)


def y_part(F, k):
    """The coefficient of Y^k in F, as a polynomial in X."""
    return Poly2({(e1, 0): coeff for (e1, e2), coeff in F.terms().items() if e2 == k})


def test_difference_solutions_have_the_forced_shape():
    # difference_check's docstring proves that every solution has Y-degree
    # <= 2, Y^2 coefficient b/(2c) and Y coefficient (a/c)*X + b/2; any
    # Y-free part is free, so a random one is added to the solver's F
    rng = SplitMix64(52)
    for _ in range(60):
        f_x = Poly1([(rng.int_between(0, 5), rng.fraction(nonzero=True))
                     for _ in range(rng.int_between(1, 4))])
        a, b = rng.fraction(), rng.fraction()
        c = rng.fraction(nonzero=True)
        for F in (difference_solve(f_x, a, b, c),
                  difference_solve(f_x, a, b, c) + Poly2({(rng.int_between(0, 3), 0):
                                                          rng.fraction(nonzero=True)})):
            assert difference_check(F, a, b, c)
            assert max((e2 for _, e2 in F.terms()), default=0) <= 2
            assert y_part(F, 2) == Poly2.const(b / (2 * c))
            assert y_part(F, 1) == (a / c) * X + Poly2.const(b / 2)


# --- replays ---------------------------------------------------------------------

def test_replay_commutator_examples():
    p = ParamSet(1, 1, 1, 0)
    m = IndexPair(2, -1)
    assert replay_commutator(m, m, p) == 0
    assert replay_commutator(IndexPair(1, 0), IndexPair(0, 1), p) == 0


def test_replay_commutator_randomized():
    rng = SplitMix64(52)
    for q_mode in ([1, 2, 3], [Fraction(1, 2), Fraction(3, 2)], None):
        p = random_params(rng, q_mode)
        for _ in range(60):
            m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
            n = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
            assert replay_commutator(m, n, p) == 0


def test_replay_commutator_variant_negative_control():
    rng = SplitMix64(53)
    for _ in range(5):
        p = random_params(rng)
        if p.alpha == 1:
            continue
        found = any(replay_commutator(m, n, p, image=action_on_one_alt)
                    for m in grid(2) for n in grid(2))
        assert found, f"variant image passed unexpectedly for {p.describe()}"


def test_replay_pair_difference():
    p = ParamSet(1, 1, 1, 0)
    assert paired_product(IndexPair(1, 0), p) == \
        poly.D1**2 - poly.D2**2 + poly.D1 + poly.D2
    assert replay_pair_difference(IndexPair(0, 0), p) == 0
    assert replay_pair_difference(IndexPair(1, 0), p) == 0
    rng = SplitMix64(54)
    for _ in range(3):
        params = random_params(rng)
        for m in grid(3)[::3]:
            assert replay_pair_difference(m, params) == 0


def test_replay_separated_form_pins_the_sign():
    # hand computation at m=(1,0), q=1, lambda=(1,1), alpha=0:
    # G = d1^2 - d2^2 + d1 + d2 and X = -d2, so the remainder
    # G - d1*(d1+1) = d2 - d2^2 is -X - X^2 = -(X + 1)*X, the closed form
    # with u = 1; the defect adds (X + 1)*X back and vanishes
    m, p = IndexPair(1, 0), ParamSet(1, 1, 1, 0)
    remainder = paired_product(m, p) - poly.D1 * (poly.D1 + 1)
    assert remainder == poly.D2 - poly.D2**2
    assert replay_separated_form(m, p) == remainder + (poly.D2**2 - poly.D2) == 0


def test_replay_separated_form_randomized():
    # a polynomial identity for every m of the box, m1 = 0 included
    rng = SplitMix64(55)
    for q_mode in ([1, 2, 3], None):
        p = random_params(rng, q_mode)
        for m in grid(3):
            defect = replay_separated_form(m, p)
            assert isinstance(defect, Poly2) and defect == 0, f"m={m}, {p.describe()}"


def test_replay_coefficient_identities():
    rng = SplitMix64(56)
    p = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 2))
    assert replay_coefficient_identities(IndexPair(1, 0), IndexPair(0, 1), p) == (0, 0, 0)
    m = IndexPair(2, -3)
    assert replay_coefficient_identities(m, -m, p) == (0, 0, 0)
    for _ in range(3):
        params = random_params(rng)
        count = 0
        while count < 50:
            m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
            n = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
            if m.is_zero() or n.is_zero():
                continue
            count += 1
            assert replay_coefficient_identities(m, n, params) == (0, 0, 0)
    with pytest.raises(ValueError, match="nonzero"):
        replay_coefficient_identities(IndexPair(0, 0), IndexPair(1, 1), p)


TRUE_CONSTANT = blockalg.structure_constant


def _off_by_one(m, n, a, b):
    # c(m, n) off by one on the single ordered pair m=(1,0), n=(0,1), as in
    # test_suites.py::test_wrong_structure_constant_is_caught
    return TRUE_CONSTANT(m, n, a, b) + b * ((m, n) == (IndexPair(1, 0), IndexPair(0, 1)))


@pytest.mark.parametrize("constant", [TRUE_CONSTANT, _off_by_one], ids=["true", "off-by-one"])
def test_coefficient_replay_matches_the_witness_oracle(monkeypatch, constant):
    # value by value on every nonzero pair of the radius-3 box, against the
    # paper's witness-notation formula
    monkeypatch.setattr(blockalg, "structure_constant", constant)
    param_sets = acceptance_param_sets(7) + [ParamSet(-2, Fraction(2, 3), -3, Fraction(1, 2))]
    box = [m for m in grid(3) if not m.is_zero()]
    nonzero = 0
    for p in param_sets:
        for m in box:
            for n in box:
                replay = replay_coefficient_identities(m, n, p)
                assert replay == witness_coefficient_defects(m, n, p), (m, n, p.describe())
                assert all(type(d) is Fraction for d in replay)
                nonzero += any(replay)
    assert (nonzero > 0) == (constant is _off_by_one)
