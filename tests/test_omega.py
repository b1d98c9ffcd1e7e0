from fractions import Fraction

import pytest

from blockmod import poly
from blockmod.blockalg import AlgebraContext, AlgebraElement, bracket
from blockmod.closure import _ActTable
from blockmod.omega import (ParamSet, WittParams, act, action_on_one,
                            action_on_one_alt, commutator_defect,
                            generator_image, in_proper_submodule, iso_check,
                            module_axiom_defect, witt_restrict)
from blockmod.poly import IndexPair, Poly1, Poly2, index_box
from blockmod.prng import SplitMix64
from blockmod.suites import axiom_grid_scan, control_param_set, sample_axiom_polys
from oracles import T, cross_form, witt_act


def L(m1, m2):
    return AlgebraElement.basis(IndexPair(m1, m2))


D2 = AlgebraElement.derivation()


def random_poly2(rng, max_degree=4, max_terms=5):
    terms = []
    for _ in range(rng.int_between(1, max_terms)):
        d = rng.int_between(0, max_degree)
        a = rng.int_between(0, d)
        terms.append(((a, d - a), rng.fraction(nonzero=True)))
    return Poly2(terms)


def random_params(rng):
    return ParamSet(q=rng.fraction(num_bound=5, den_bound=3, nonzero=True),
                    lambda1=rng.fraction(num_bound=4, den_bound=3, nonzero=True),
                    lambda2=rng.fraction(num_bound=4, den_bound=3, nonzero=True),
                    alpha=rng.fraction(num_bound=4, den_bound=3))


def test_param_set_validation():
    with pytest.raises(ValueError, match="q must be nonzero"):
        ParamSet(0, 1, 1, 0)
    with pytest.raises(ValueError):
        ParamSet(1, 0, 1, 0)
    with pytest.raises(ValueError):
        ParamSet(1, 1, 0, 0)
    p = ParamSet(2, 1, 1, 1)
    assert p.vanishing_point() == (0, -2)
    # one algebra context per parameter set; the four fields, in this order,
    # are all that equality, hashing and the repr read, and the context is none of them
    assert p.context() is p.context() and p.context() == AlgebraContext(2)
    assert p == ParamSet(2, 1, 1, 1) and hash(p) == hash(ParamSet(2, 1, 1, 1))
    assert ParamSet._fields == ("q", "lambda1", "lambda2", "alpha")
    assert hash(p) == hash((p.q, p.lambda1, p.lambda2, p.alpha))
    assert repr(p) == ("ParamSet(q=Fraction(2, 1), lambda1=Fraction(1, 1), "
                       "lambda2=Fraction(1, 1), alpha=Fraction(1, 1))")
    other = ParamSet(2, 1, 1, 1)
    object.__setattr__(other, "_context", AlgebraContext(3))
    assert other == p and hash(other) == hash(p) and repr(other) == repr(p)
    with pytest.raises(ValueError):
        WittParams(0, 1)


def test_action_on_one_examples():
    # the image of 1 under L(0,0) is q*d1
    assert action_on_one(IndexPair(0, 0), ParamSet(3, 1, 1, 0)) == 3 * poly.D1
    assert action_on_one(IndexPair(1, 2), ParamSet(1, 1, 1, 0)) == 3 * poly.D1 - poly.D2
    # the exceptional index (0,-q) for integer q kills the image
    assert action_on_one(IndexPair(0, -2), ParamSet(2, 5, 7, Fraction(1, 3))) == 0
    # lambda powers scale the image
    p = ParamSet(1, 2, 3, 1)
    assert action_on_one(IndexPair(-1, 1), p) == \
        Fraction(3, 2) * (2 * poly.D1 + poly.D2 + 1)


def fraction_image(m, p, variant=False):
    """The generator image g_m written with Fraction arithmetic: the oracle
    for the integer build of :func:`omega.generator_image`."""
    scale = p.lambda1 ** m.m1 * p.lambda2 ** m.m2
    if variant:
        return Poly2({(1, 0): scale * (p.q * p.alpha + m.m2),
                      (0, 1): scale * -m.m1,
                      (0, 0): scale * -m.m1 * p.alpha})
    return Poly2({(1, 0): scale * (m.m2 + p.q),
                  (0, 1): scale * -m.m1,
                  (0, 0): scale * -m.m1 * p.q * p.alpha})


# integral, half-integral and generic q; negative and fractional lambda;
# alpha = 0, alpha = 1 and generic alpha
ORACLE_PARAMS = [
    ParamSet(2, -3, Fraction(2, 5), 0),
    ParamSet(Fraction(-3, 2), Fraction(-1, 4), 7, 1),
    ParamSet(Fraction(5, 7), Fraction(2, 3), Fraction(-5, 3), Fraction(-2, 5)),
    ParamSet(-1, 1, -1, Fraction(3, 4)),
    ParamSet(Fraction(11, 3), Fraction(-6, 5), Fraction(9, 4), 1),
]


@pytest.mark.parametrize("p", ORACLE_PARAMS)
def test_integer_image_matches_fraction_formula(p):
    zero = 0
    for m in index_box(4):
        assert action_on_one(m, p) == fraction_image(m, p), m
        assert action_on_one_alt(m, p) == fraction_image(m, p, variant=True), m
        zero += not action_on_one(m, p)
    # an integral q in the box kills the image at (0,-q), and only there
    assert zero == (p.q.denominator == 1)


@pytest.mark.parametrize("p", ORACLE_PARAMS)
def test_act_table_reads_lambda_free_image(p):
    # the closure's integer parts give s * lambda^-m * g_m = P0 + m1*P1 + m2*P2
    # with s = qd * ad, at every index of the radius-4 box
    s = p.q.denominator * p.alpha.denominator
    parts = _ActTable(2, p).parts
    assert all(type(c) is int and c for part in parts for _, c in part)
    p0, p1, p2 = (Poly2(dict(part)) for part in parts)
    for m in index_box(4):
        got = p0 + m.m1 * p1 + m.m2 * p2
        assert got == s * generator_image(m, ParamSet(p.q, 1, 1, p.alpha)), m
        assert got == (s / (p.lambda1 ** m.m1 * p.lambda2 ** m.m2)) * fraction_image(m, p), m


def test_act_examples():
    p = ParamSet(1, 1, 1, 0)
    # (d1 - 1)(d1 - d2) by hand
    assert act(L(1, 0), poly.D1, p) == \
        poly.D1**2 - poly.D1 * poly.D2 - poly.D1 + poly.D2
    f = Poly2({(2, 1): 1, (0, 0): -2})
    assert act(L(0, 0), f, p) == poly.D1 * f
    assert act(D2, Poly2.const(1), p) == poly.D2
    assert act(D2, f, p) == poly.D2 * f
    # linearity in the algebra argument
    assert act(2 * L(1, 0) - D2, f, p) == 2 * act(L(1, 0), f, p) - act(D2, f, p)


def test_act_reads_the_stored_terms(monkeypatch):
    # act iterates the element's stored numerators: no term-map copy, and a
    # rational coefficient gives the same image as scaling afterwards
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -5, Fraction(1, 2))
    f = Poly2({(2, 1): Fraction(3, 4), (0, 0): -2})
    x = Fraction(3, 2) * L(1, -2) - D2 + Fraction(1, 3) * L(0, 0)
    want = (Fraction(3, 2) * act(L(1, -2), f, p) - act(D2, f, p)
            + Fraction(1, 3) * act(L(0, 0), f, p))

    def no_copy(self):
        raise AssertionError("act copied the term map")

    monkeypatch.setattr(AlgebraElement, "terms", no_copy)
    assert act(x, f, p) == want and act(2 * L(1, 0), f, p) == 2 * act(L(1, 0), f, p)


def test_module_axiom_defect_example():
    p = ParamSet(1, 1, 1, 0)
    one = Poly2.const(1)
    assert module_axiom_defect(L(1, 0), L(0, 1), one, p) == 0
    # both orders of the nested action agree with the bracket action
    lhs = act(L(1, 0), act(L(0, 1), one, p), p) - act(L(0, 1), act(L(1, 0), one, p), p)
    assert lhs == -4 * poly.D1 + 2 * poly.D2
    x = L(2, -1)
    assert module_axiom_defect(x, x, random_poly2(SplitMix64(1)), p) == 0


def test_module_axiom_defect_randomized():
    rng = SplitMix64(31)
    for _ in range(3):
        p = random_params(rng)
        for _ in range(25):
            x = rng.choice([L(rng.int_between(-2, 2), rng.int_between(-2, 2)), D2])
            y = rng.choice([L(rng.int_between(-2, 2), rng.int_between(-2, 2)), D2])
            f = random_poly2(rng)
            assert module_axiom_defect(x, y, f, p) == 0


@pytest.mark.parametrize("image", [action_on_one, action_on_one_alt])
def test_factored_nested_action_matches_the_composed_one(image):
    # on every pair of the radius-2 box and the acceptance polynomials, the
    # defect's f-free form -f(d-m-n) * commutator_defect(m, n) equals the
    # bracket term minus the composition of two acts
    p = control_param_set(4)
    polys = sample_axiom_polys(3, count=10, max_degree=4)
    ctx = p.context()
    nonzero = 0
    for m in index_box(2):
        for n in index_box(2):
            x, y = L(*m), L(*n)
            for f in polys:
                composed = (act(x, act(y, f, p, image), p, image)
                            - act(y, act(x, f, p, image), p, image))
                bracket_term = act(bracket(x, y, ctx), f, p, image)
                defect = module_axiom_defect(x, y, f, p, image)
                assert defect == bracket_term - composed, (m, n, f)
                nonzero += bool(defect)
    # the adopted image has no defect; the variant has some
    assert (nonzero == 0) == (image is action_on_one)
    # a single term with a coefficient scales the factored form
    f = polys[0]
    for a, b in ((Fraction(3, 2), -2), (-1, Fraction(1, 5))):
        x, y = a * L(1, -2), b * L(-1, 1)
        composed = (act(x, act(y, f, p, image), p, image)
                    - act(y, act(x, f, p, image), p, image))
        assert module_axiom_defect(x, y, f, p, image) == \
            act(bracket(x, y, ctx), f, p, image) - composed


def _forbidden(*args):
    raise AssertionError("a polynomial was shifted or multiplied")


@pytest.mark.parametrize("q", [1, Fraction(5, 7), -2, Fraction(3, 2), Fraction(-1, 3)])
def test_basis_pair_defect_comes_from_the_f_free_commutator_defect(monkeypatch, q):
    # on every basis pair of the radius-2 box, the adopted image's defect is
    # zero with no shift or product of any polynomial; the variant's defect
    # is -a*b * f(d-m-n) * Delta(m, n), and it equals the composed actions
    p = ParamSet(q, Fraction(2, 3), -3, Fraction(1, 2))
    ctx = p.context()
    f = sample_axiom_polys(5, count=1, max_degree=4)[0]
    box = index_box(2)
    coefficients = ((1, 1), (Fraction(3, 2), -2))
    with monkeypatch.context() as patched:
        patched.setattr(Poly2, "shifted", _forbidden)
        patched.setattr(Poly2, "__mul__", _forbidden)
        for a, b in coefficients:
            for m in box:
                for n in box:
                    assert not module_axiom_defect(a * L(*m), b * L(*n), f, p), (a, b, m, n)
    nonzero = 0
    for a, b in coefficients:
        for m in box:
            for n in box:
                x, y = a * L(*m), b * L(*n)
                defect = module_axiom_defect(x, y, f, p, action_on_one_alt)
                if not defect:
                    continue
                nonzero += 1
                delta = commutator_defect(m, n, p, action_on_one_alt)
                assert defect == -a * b * (f.shifted(m + n) * delta), (a, b, m, n)
                composed = (act(x, act(y, f, p, action_on_one_alt), p, action_on_one_alt)
                            - act(y, act(x, f, p, action_on_one_alt), p, action_on_one_alt))
                assert defect == act(bracket(x, y, ctx), f, p, action_on_one_alt) - composed
    assert nonzero


def _commutator_oracle(m, n, p, g):
    """g_n(d-m)*g_m - g_m(d-n)*g_n - c(m, n)*g_(m+n) from the shifted
    products, with c(m, n) = n1*(m2 + q) - m1*(n2 + q) on Fractions; g
    maps an index to its image."""
    c = n.m1 * (m.m2 + p.q) - m.m1 * (n.m2 + p.q)
    return g(n).shifted(m) * g(m) - g(m).shifted(n) * g(n) - c * g(m + n)


def _composed_defect(x, y, f, p, image):
    """act([x,y], f) - act(x, act(y, f)) + act(y, act(x, f)), the oracle."""
    return (act(bracket(x, y, p.context()), f, p, image)
            - act(x, act(y, f, p, image), p, image)
            + act(y, act(x, f, p, image), p, image))


@pytest.mark.parametrize("image", [action_on_one, action_on_one_alt])
def test_d2_and_multi_term_defects_match_the_composed_actions(monkeypatch, image):
    # pairs with D2, and elements of several terms, against the composed
    # actions: the closed form sums -a*b * f(d-m-n) * Delta(m, n) over the
    # pairs of L terms and drops the D2 terms, whose pairs cancel
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))
    polys = sample_axiom_polys(5, count=2, max_degree=4)
    singles = [L(*m) for m in index_box(2)]
    several = [Fraction(3, 2) * L(1, -2) - D2 + L(0, 1),
               Fraction(-2, 3) * D2,
               L(-1, 2) + Fraction(1, 5) * L(2, 0) - 3 * L(0, -1),
               Fraction(1, 2) * L(1, 1) + Fraction(4, 3) * L(-2, 1) + 7 * D2]
    elements = [D2] + singles + several
    pairs = [(x, y) for x in elements for y in elements if x not in singles or y not in singles]
    nonzero = 0
    for x, y in pairs:
        for f in polys:
            defect = module_axiom_defect(x, y, f, p, image)
            assert defect == _composed_defect(x, y, f, p, image), (x, y, f)
            nonzero += bool(defect)
    # the adopted image has no defect; the variant's multi-term elements do
    assert (nonzero == 0) == (image is action_on_one)
    if image is action_on_one:
        # the whole radius-2 grid, D2 included, shifts and multiplies nothing
        with monkeypatch.context() as patched:
            patched.setattr(Poly2, "shifted", _forbidden)
            patched.setattr(Poly2, "__mul__", _forbidden)
            assert axiom_grid_scan(p, polys, 2, image) == (26 ** 2 * len(polys), None)


@pytest.mark.parametrize("image", [action_on_one, action_on_one_alt])
def test_commutator_defect_subtracts_the_bracket_image(image):
    # Delta(m, n) is the commutator factor minus c(m, n) * g_(m+n), on
    # every pair of the radius-2 box, with the images built per call
    for q in (1, Fraction(5, 7), -2, Fraction(-1, 3)):
        p = ParamSet(q, Fraction(2, 3), -3, Fraction(1, 2))
        box = index_box(2)
        zero = 0
        for m in box:
            for n in box:
                want = _commutator_oracle(m, n, p, lambda k: image(k, p))
                got = commutator_defect(m, n, p, image)
                assert (got._nums, got._den) == (want._nums, want._den), (q, m, n)
                zero += not got
        assert (zero == len(box) ** 2) == (image is action_on_one)


@pytest.mark.parametrize("q", [1, Fraction(5, 7), -2, Fraction(3, 2), Fraction(-1, 3)])
@pytest.mark.parametrize("image", [action_on_one, action_on_one_alt])
def test_commutator_factor_closed_form_matches_the_shifted_products(monkeypatch, q, image):
    # the closed form of Delta equals the oracle from the shifted products,
    # carrier for carrier, on every pair of the radius-3 box; it shifts and
    # multiplies no polynomial
    p = ParamSet(q, Fraction(2, 3), -3, Fraction(1, 2))
    box = index_box(3)
    table = {m: image(m, p) for m in index_box(6)}

    def tabled(m, _p):
        return table[m]

    with monkeypatch.context() as patched:
        patched.setattr(Poly2, "shifted", _forbidden)
        patched.setattr(Poly2, "__mul__", _forbidden)
        defects = {(m, n): commutator_defect(m, n, p, tabled) for m in box for n in box}
    zero = 0
    for (m, n), got in defects.items():
        want = _commutator_oracle(m, n, p, table.__getitem__)
        assert (got._nums, got._den) == (want._nums, want._den), (m, n)
        zero += not got
    # c(m, m) = 0 and the factor of m = n is zero, so Delta(m, m) is; the
    # adopted image has no defect at all
    assert zero >= len(box)
    assert (zero == len(box) ** 2) == (image is action_on_one)
    # an integral q puts the adopted image's zero, at (0, -q), in the table
    if image is action_on_one:
        assert sum(not g for g in table.values()) == (p.q.denominator == 1)


def test_weight_shift_compatibility():
    rng = SplitMix64(32)
    p = random_params(rng)
    for _ in range(20):
        m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
        f = random_poly2(rng)
        x = AlgebraElement.basis(m)
        lhs = act(D2, act(x, f, p), p) - act(x, act(D2, f, p), p)
        assert lhs == m.m2 * act(x, f, p)


def test_action_lands_in_proper_submodule():
    rng = SplitMix64(33)
    for _ in range(3):
        p = random_params(rng)
        x1, x2 = p.vanishing_point()
        for _ in range(15):
            m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
            f = random_poly2(rng)
            assert act(AlgebraElement.basis(m), f, p).eval_at(x1, x2) == 0


def test_degree_raising():
    rng = SplitMix64(34)
    p = ParamSet(2, 3, Fraction(1, 2), Fraction(-1, 3))
    for _ in range(20):
        m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
        f = random_poly2(rng)
        image = act(AlgebraElement.basis(m), f, p)
        if m == IndexPair(0, -2):
            assert image == 0      # integer q: the index (0,-q) acts by zero
        else:
            assert image.total_degree() == f.total_degree() + 1


def test_proper_submodule_membership():
    p1 = ParamSet(1, 1, 1, 1)
    assert in_proper_submodule(poly.D1, p1)
    assert not in_proper_submodule(Poly2.const(1), p1)
    assert not in_proper_submodule(poly.D2, p1)       # evaluates to -1 at (0,-1)
    assert in_proper_submodule(poly.D2 + 1, p1)
    assert in_proper_submodule(Poly2(), p1)


def test_cross_form():
    assert cross_form(IndexPair(1, 0)) == -poly.D2
    assert cross_form(IndexPair(0, 0)) == 0
    assert cross_form(IndexPair(2, 3)) == 3 * poly.D1 - 2 * poly.D2
    for i in (-2, 0, 5):
        m = IndexPair(2, 3)
        assert cross_form(i * m) == i * cross_form(m)


def test_witt_act_examples():
    f = Poly1({1: 2, 0: 1})
    assert witt_act(0, f, WittParams(7, 3)) == T * f
    assert witt_act(1, Poly1.const(1), WittParams(2, 3)) == 2 * T - 6
    assert witt_act(-1, Poly1.const(1), WittParams(2, 0)) == Fraction(1, 2) * T


def test_witt_act_is_a_module_action():
    # d_i d_j - d_j d_i must equal (j - i) d_{i+j} on random polynomials
    rng = SplitMix64(35)
    w = WittParams(Fraction(3, 2), Fraction(-1, 3))
    for _ in range(20):
        i = rng.int_between(-3, 3)
        j = rng.int_between(-3, 3)
        f = Poly1([(rng.int_between(0, 4), rng.fraction(nonzero=True)) for _ in range(3)])
        lhs = witt_act(i, witt_act(j, f, w), w) - witt_act(j, witt_act(i, f, w), w)
        assert lhs == (j - i) * witt_act(i + j, f, w)


def test_witt_restrict_examples():
    params, failures = witt_restrict(IndexPair(2, 3), -4, 4, ParamSet(1, 1, 1, Fraction(1, 2)))
    assert params == WittParams(1, Fraction(1, 2))
    assert failures == []
    with pytest.raises(ValueError, match="m1 != 0"):
        witt_restrict(IndexPair(0, 5), -4, 4, ParamSet(1, 1, 1, 0))

    rng = SplitMix64(36)
    for _ in range(3):
        p = random_params(rng)
        params, failures = witt_restrict(IndexPair(-2, 1), -3, 3, p)
        assert failures == []
        assert params.lam == p.lam_pow(IndexPair(-2, 1))
        assert params.alpha == p.alpha


def test_witt_line_parameters_are_geometric():
    # along the line through m, the parameters of the j-th multiple are
    # (lambda_m^j, alpha)
    p = ParamSet(Fraction(5, 7), 2, Fraction(1, 3), Fraction(-3, 2))
    m = IndexPair(1, 2)
    base, _ = witt_restrict(m, -2, 2, p)
    for j in (-2, -1, 2, 3):
        scaled, failures = witt_restrict(j * m, -2, 2, p)
        assert failures == []
        assert scaled.lam == base.lam ** j
        assert scaled.alpha == base.alpha


def test_witt_restriction_matches_witt_module():
    # reduced generator images are exactly the one-variable Witt images of 1,
    # rescaled through t = d1/m1
    p = ParamSet(Fraction(3, 2), 2, 3, Fraction(1, 4))
    m = IndexPair(2, -1)
    params, failures = witt_restrict(m, -3, 3, p)
    assert failures == []
    ratio = Fraction(m.m2, m.m1)
    for i in range(-3, 4):
        g = action_on_one(i * m, p)
        reduced = poly.compose2(g, poly.D1, ratio * poly.D1)
        witt_image = witt_act(i, Poly1.const(1), params)   # lambda^i (t - i*alpha)
        lifted = Poly2({(1, 0): witt_image.coefficient(1) / m.m1,
                        (0, 0): witt_image.coefficient(0)})
        assert reduced == p.q * m.m1 * lifted


def test_variant_action_fails_axioms_for_generic_alpha():
    p = ParamSet(1, 1, 1, Fraction(1, 3))
    found = None
    for a in range(-2, 3):
        for b in range(-2, 3):
            defect = module_axiom_defect(L(a, b), L(1, 0), Poly2.const(1), p,
                                         image=action_on_one_alt)
            if defect:
                found = (a, b, defect)
                break
        if found:
            break
    assert found is not None
    # alpha = 1 makes the variant a genuine action (a shift of d2 away from
    # the adopted one), so the control grid must exclude it
    p1 = ParamSet(2, 1, 1, 1)
    rng = SplitMix64(37)
    for _ in range(20):
        x = L(rng.int_between(-2, 2), rng.int_between(-2, 2))
        y = L(rng.int_between(-2, 2), rng.int_between(-2, 2))
        assert module_axiom_defect(x, y, random_poly2(rng), p1,
                                   image=action_on_one_alt) == 0


def test_iso_check():
    p = ParamSet(1, 1, 1, 0)
    assert iso_check(p, ParamSet(1, 1, 1, 0)) == (True, None)

    decided, witness = iso_check(ParamSet(1, 1, 1, 0), ParamSet(1, 1, 2, 0))
    assert decided is False and witness == IndexPair(0, 1)

    decided, witness = iso_check(ParamSet(1, 1, 1, 1), ParamSet(1, 1, 1, 2))
    assert decided is False and witness == IndexPair(1, 0)

    decided, witness = iso_check(ParamSet(1, 2, 1, 0), ParamSet(1, 3, 1, 0))
    assert decided is False and witness is not None

    # q = -1 kills the (0,1) image; the scan must still find a witness
    decided, witness = iso_check(ParamSet(-1, 1, 2, 0), ParamSet(-1, 1, 3, 0))
    assert decided is False and witness is not None
    assert action_on_one(witness, ParamSet(-1, 1, 2, 0)) != \
        action_on_one(witness, ParamSet(-1, 1, 3, 0))

    with pytest.raises(ValueError, match="q mismatch"):
        iso_check(ParamSet(1, 1, 1, 0), ParamSet(2, 1, 1, 0))


def test_iso_check_randomized():
    rng = SplitMix64(38)
    for _ in range(30):
        p = random_params(rng)
        other = random_params(rng)
        other = ParamSet(p.q, other.lambda1, other.lambda2, other.alpha)
        decided, witness = iso_check(p, other)
        assert decided == (p == other)
        if not decided:
            assert action_on_one(witness, p) != action_on_one(witness, other)
