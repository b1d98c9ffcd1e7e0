from fractions import Fraction

import pytest

from blockmod import blockalg, omega, poly
from blockmod.blockalg import AlgebraContext, AlgebraElement, BasisL, bracket
from blockmod.closure import _ActTable
from blockmod.omega import (ImageTable, ParamSet, WittParams, act, action_on_one,
                            action_on_one_alt, commutator_defect,
                            generator_image, in_proper_submodule, iso_check,
                            module_axiom_defect, witt_restrict)
from blockmod.poly import IndexPair, Poly1, Poly2, index_box
from blockmod.prng import SplitMix64
from blockmod.suites import axiom_grid_scan, control_param_set, sample_axiom_polys
from oracles import T, compose2, cross_form, image_act, witt_act


def L(m1, m2):
    return AlgebraElement.basis(IndexPair(m1, m2))


def G(m1, m2):
    return BasisL(IndexPair(m1, m2))


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


def table_kernel(p, image=action_on_one, radius=2):
    """module_axiom_defect on generators of the radius-R box and D2: one
    ImageTable of p and image, read at the generators' positions."""
    table = ImageTable(p, radius, image)
    position = {gen: i for i, gen in enumerate(table.generators)}
    return lambda x, y, f: module_axiom_defect(position[x], position[y], f, table)


def test_param_set_validation():
    with pytest.raises(ValueError, match="q must be nonzero"):
        ParamSet(0, 1, 1, 0)
    with pytest.raises(ValueError):
        ParamSet(1, 0, 1, 0)
    with pytest.raises(ValueError):
        ParamSet(1, 1, 0, 0)
    p = ParamSet(2, 1, 1, 1)
    assert p.vanishing_point() == (0, -2)
    # lambda^m with a negative exponent: 3^2 * (1/2)^-1
    assert ParamSet(2, 3, Fraction(1, 2), 0).lam_pow(IndexPair(2, -1)) == 18
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
    defect = table_kernel(p)
    assert defect(G(1, 0), G(0, 1), one) == 0
    # both orders of the nested action agree with the bracket action
    lhs = act(L(1, 0), act(L(0, 1), one, p), p) - act(L(0, 1), act(L(1, 0), one, p), p)
    assert lhs == -4 * poly.D1 + 2 * poly.D2
    x = G(2, -1)
    assert defect(x, x, random_poly2(SplitMix64(1))) == 0


def test_module_axiom_defect_randomized():
    rng = SplitMix64(31)
    for _ in range(3):
        p = random_params(rng)
        defect = table_kernel(p)
        for _ in range(25):
            x = rng.choice([G(rng.int_between(-2, 2), rng.int_between(-2, 2)), blockalg.D2])
            y = rng.choice([G(rng.int_between(-2, 2), rng.int_between(-2, 2)), blockalg.D2])
            f = random_poly2(rng)
            assert defect(x, y, f) == 0


@pytest.mark.parametrize("image", [action_on_one, action_on_one_alt])
def test_factored_nested_action_matches_the_composed_one(image):
    # on every pair of the radius-2 box and the acceptance polynomials, the
    # defect's f-free form -f(d-m-n) * commutator_defect(m, n) equals the
    # bracket term minus the composition of two acts
    p = control_param_set(4)
    polys = sample_axiom_polys(3, count=10, max_degree=4)
    ctx = p.context()
    defect_of = table_kernel(p, image)
    nonzero = 0
    for m in index_box(2):
        for n in index_box(2):
            x, y = L(*m), L(*n)
            for f in polys:
                composed = (image_act(x, image_act(y, f, p, image), p, image)
                            - image_act(y, image_act(x, f, p, image), p, image))
                bracket_term = image_act(bracket(x, y, ctx), f, p, image)
                defect = defect_of(BasisL(m), BasisL(n), f)
                assert defect == bracket_term - composed, (m, n, f)
                nonzero += bool(defect)
    # the adopted image has no defect; the variant has some
    assert (nonzero == 0) == (image is action_on_one)
    # a single term with a coefficient scales the generator defect
    f = polys[0]
    for a, b in ((Fraction(3, 2), -2), (-1, Fraction(1, 5))):
        x, y = a * L(1, -2), b * L(-1, 1)
        composed = (image_act(x, image_act(y, f, p, image), p, image)
                    - image_act(y, image_act(x, f, p, image), p, image))
        assert a * b * defect_of(G(1, -2), G(-1, 1), f) == \
            image_act(bracket(x, y, ctx), f, p, image) - composed


def _forbidden(*args):
    raise AssertionError("a polynomial was shifted or multiplied")


@pytest.mark.parametrize("q", [1, Fraction(5, 7), -2, Fraction(3, 2), Fraction(-1, 3)])
def test_basis_pair_defect_comes_from_the_f_free_commutator_defect(monkeypatch, q):
    # on every basis pair of the radius-2 box, the adopted image's defect is
    # zero with no shift or product of any polynomial; the variant's defect
    # is -f(d-m-n) * Delta(m, n), and a*b times it equals the composed
    # actions of a*L(m) and b*L(n)
    p = ParamSet(q, Fraction(2, 3), -3, Fraction(1, 2))
    ctx = p.context()
    f = sample_axiom_polys(5, count=1, max_degree=4)[0]
    box = index_box(2)
    with monkeypatch.context() as patched:
        patched.setattr(Poly2, "shifted", _forbidden)
        patched.setattr(Poly2, "__mul__", _forbidden)
        adopted = table_kernel(p)
        for m in box:
            for n in box:
                assert not adopted(BasisL(m), BasisL(n), f), (m, n)
    variant = table_kernel(p, action_on_one_alt)
    nonzero = 0
    for m in box:
        for n in box:
            defect = variant(BasisL(m), BasisL(n), f)
            if not defect:
                continue
            nonzero += 1
            delta = commutator_defect(m, n, p, action_on_one_alt)
            assert defect == -(f.shifted(m + n) * delta), (m, n)
            for a, b in ((1, 1), (Fraction(3, 2), -2)):
                x, y = a * L(*m), b * L(*n)
                composed = (
                    image_act(x, image_act(y, f, p, action_on_one_alt), p, action_on_one_alt)
                    - image_act(y, image_act(x, f, p, action_on_one_alt), p, action_on_one_alt))
                assert a * b * defect == \
                    image_act(bracket(x, y, ctx), f, p, action_on_one_alt) - composed, (a, b, m, n)
    assert nonzero


def _commutator_oracle(m, n, p, g):
    """g_n(d-m)*g_m - g_m(d-n)*g_n - c(m, n)*g_(m+n) from the shifted
    products, with c(m, n) = n1*(m2 + q) - m1*(n2 + q) on Fractions; g
    maps an index to its image."""
    c = n.m1 * (m.m2 + p.q) - m.m1 * (n.m2 + p.q)
    return g(n).shifted(m) * g(m) - g(m).shifted(n) * g(n) - c * g(m + n)


def _composed_defect(x, y, f, p, image):
    """act([x,y], f) - act(x, act(y, f)) + act(y, act(x, f)), the oracle."""
    return (image_act(bracket(x, y, p.context()), f, p, image)
            - image_act(x, image_act(y, f, p, image), p, image)
            + image_act(y, image_act(x, f, p, image), p, image))


def generator_sum(x, y, f, defect):
    """The sum of a*b * defect(u, v, f) over the terms a*u of x and b*v of
    y, for a generator kernel ``defect``: the defect of x, y by bilinearity."""
    total = Poly2()
    for u, a in x.terms().items():
        for v, b in y.terms().items():
            total = total + a * b * defect(u, v, f)
    return total


@pytest.mark.parametrize("image", [action_on_one, action_on_one_alt])
def test_d2_and_multi_term_defects_match_the_composed_actions(monkeypatch, image):
    # every generator pair with D2 has defect zero, as the composed actions
    # do; on elements of several terms the generator defects, weighted by
    # the coefficients, add up to the composed actions: the bilinearity that
    # lets the axiom sweeps check generators only
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))
    polys = sample_axiom_polys(5, count=2, max_degree=4)
    box = index_box(2)
    d2_pairs = [(blockalg.D2, BasisL(m)) for m in box] + [(BasisL(m), blockalg.D2) for m in box]
    d2_pairs.append((blockalg.D2, blockalg.D2))
    defect_of = table_kernel(p, image)
    for u, v in d2_pairs:
        for f in polys:
            defect = defect_of(u, v, f)
            assert (defect._nums, defect._den) == ({}, 1)
            assert not _composed_defect(AlgebraElement({u: 1}), AlgebraElement({v: 1}),
                                        f, p, image), (u, v)
    singles = [L(*m) for m in box]
    several = [Fraction(3, 2) * L(1, -2) - D2 + L(0, 1),
               Fraction(-2, 3) * D2,
               L(-1, 2) + Fraction(1, 5) * L(2, 0) - 3 * L(0, -1),
               Fraction(1, 2) * L(1, 1) + Fraction(4, 3) * L(-2, 1) + 7 * D2]
    pairs = [(x, y) for x in several for y in [D2] + singles + several]
    pairs += [(y, x) for x, y in pairs]
    nonzero = 0
    for x, y in pairs:
        for f in polys:
            defect = generator_sum(x, y, f, defect_of)
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


def _skewed_constant(monkeypatch):
    true_constant = blockalg.structure_constant
    monkeypatch.setattr(blockalg, "structure_constant",
                        lambda m, n, a, b: true_constant(m, n, a, b) + m.m1 * n.m2 + 1)


@pytest.mark.parametrize("skewed", [False, True])
def test_module_axiom_defect_reads_every_position_a_list_accepts(monkeypatch, skewed):
    # indices and cols hold None at D2's slot, so position p means
    # table.generators[p] for negative p too: -1 is D2 and -count is the
    # first L.  Every position pair of range(-count, count) gives the
    # composed-action defect of those generators, for both images, at
    # radius 1 and 2 and for three q; the skewed constant reaches the kernel
    # and the bracket alike and makes the adopted image's defects nonzero,
    # so a wrong carrier or index read shows for either image
    if skewed:
        _skewed_constant(monkeypatch)
    f = Poly2({(1, 0): 1, (0, 2): Fraction(-3, 2), (0, 0): 2})
    for image in (action_on_one, action_on_one_alt):
        for radius in (1, 2):
            for q in (Fraction(5, 7), -2, 1):
                p = ParamSet(q, Fraction(2, 3), -3, Fraction(1, 2))
                table = ImageTable(p, radius, image)
                gens = table.generators
                count = len(gens)
                assert table.indices[-1] is None and table.cols[-1] is None
                assert len(table.indices) == len(table.cols) == count
                composed = {}
                nonzero = 0
                for i in range(-count, count):
                    for j in range(-count, count):
                        x, y = gens[i], gens[j]
                        if (x, y) not in composed:
                            composed[x, y] = _composed_defect(
                                AlgebraElement({x: 1}), AlgebraElement({y: 1}), f, p, image)
                        got = module_axiom_defect(i, j, f, table)
                        assert got == composed[x, y], (image.__name__, radius, q, i, j)
                        assert (got is omega._ZERO) == (not got)
                        nonzero += bool(got)
                assert bool(nonzero) == (skewed or image is action_on_one_alt), (radius, q)
                with pytest.raises(IndexError):
                    module_axiom_defect(count, 0, f, table)
                with pytest.raises(IndexError):
                    module_axiom_defect(0, count, f, table)


def test_images_of_degree_above_one_are_rejected():
    # the closed form of Delta reads only the d1, d2 and 1 numerators, so an
    # image with a term of higher degree would pass unseen although its
    # composed actions fail; the one carrier conversion, behind the image
    # table and commutator_defect, names the index and the degree instead
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))

    def bad(m, params):
        return action_on_one(m, params) + poly.D1 * poly.D1

    assert _composed_defect(L(1, 0), L(0, 1), poly.D1, p, bad)
    with pytest.raises(ValueError, match=r"image of L\(1,0\) has degree 2"):
        commutator_defect(IndexPair(1, 0), IndexPair(0, 1), p, bad)
    # the table converts the radius-2R box in row-major order, from (-2R, -2R)
    with pytest.raises(ValueError, match=r"image of L\(-2,-2\) has degree 2"):
        axiom_grid_scan(p, [poly.D1], 1, bad)
    with pytest.raises(ValueError, match=r"image of L\(-2,-2\) has degree 2"):
        ImageTable(p, 1, bad)

    def one_bad(m, params):
        g = action_on_one(m, params)
        return g + poly.D2 ** 3 if m == IndexPair(1, 1) else g

    # only the image of m + n is bad: it is read too
    with pytest.raises(ValueError, match=r"image of L\(1,1\) has degree 3"):
        commutator_defect(IndexPair(1, 0), IndexPair(0, 1), p, one_bad)
    assert commutator_defect(IndexPair(1, 0), IndexPair(-1, 1), p, one_bad) is omega._ZERO
    with pytest.raises(ValueError, match=r"image of L\(1,1\) has degree 3"):
        ImageTable(p, 1, one_bad)


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
        reduced = compose2(g, poly.D1, ratio * poly.D1)
        witt_image = witt_act(i, Poly1.const(1), params)   # lambda^i (t - i*alpha)
        lifted = Poly2({(1, 0): witt_image.coefficient(1) / m.m1,
                        (0, 0): witt_image.coefficient(0)})
        assert reduced == p.q * m.m1 * lifted


def test_witt_restrict_rejects_images_that_are_not_affine(monkeypatch):
    # g + X_m*d2 is congruent to g modulo X_m, and the substitution
    # d2 -> (m2/m1)*d1 accepts it; the one-step reduction keeps its
    # degree-2 part, so every i fails
    p = ParamSet(1, 1, 1, Fraction(1, 2))
    m = IndexPair(2, 3)
    assert witt_restrict(m, -3, 3, p)[1] == []
    ratio = Fraction(m.m2, m.m1)
    monkeypatch.setattr(omega, "action_on_one",
                        lambda k, params: action_on_one(k, params) + cross_form(m) * poly.D2)
    for i in range(-3, 4):
        g = omega.action_on_one(i * m, p)
        assert compose2(g, poly.D1, ratio * poly.D1) == compose2(
            action_on_one(i * m, p), poly.D1, ratio * poly.D1)
    assert witt_restrict(m, -3, 3, p)[1] == list(range(-3, 4))


def test_witt_reduction_matches_the_substitution_on_affine_images(monkeypatch):
    # on affine images and lines with m2/m1 not an integer, the one-step
    # reduction and the substitution d2 -> (m2/m1)*d1 give one verdict: an
    # image congruent to the expected one modulo X_m passes, one with an
    # affine term added fails
    rng = SplitMix64(38)
    for m in (IndexPair(2, 3), IndexPair(-3, 2), IndexPair(4, -6), IndexPair(-5, -7)):
        p = random_params(rng)
        lam = p.lam_pow(m)
        ratio = Fraction(m.m2, m.m1)
        images, broken = {}, []
        for i in range(-3, 4):
            expected = p.q * lam ** i * (poly.D1 - i * m.m1 * p.alpha)
            g = expected + rng.fraction() * cross_form(m)
            if rng.int_between(0, 1):
                key = rng.choice([(1, 0), (0, 1), (0, 0)])
                g = g + Poly2({key: rng.fraction(nonzero=True)})
                broken.append(i)
            images[i * m] = g
            assert (compose2(g, poly.D1, ratio * poly.D1) == expected) == (i not in broken)
        monkeypatch.setattr(omega, "action_on_one", lambda k, params: images[k])
        assert witt_restrict(m, -3, 3, p)[1] == broken


def test_variant_action_fails_axioms_for_generic_alpha():
    p = ParamSet(1, 1, 1, Fraction(1, 3))
    variant = table_kernel(p, action_on_one_alt)
    found = None
    for a in range(-2, 3):
        for b in range(-2, 3):
            defect = variant(G(a, b), G(1, 0), Poly2.const(1))
            if defect:
                found = (a, b, defect)
                break
        if found:
            break
    assert found is not None
    # alpha = 1 makes the variant a genuine action (a shift of d2 away from
    # the adopted one), so the control grid must exclude it
    p1 = ParamSet(2, 1, 1, 1)
    variant = table_kernel(p1, action_on_one_alt)
    rng = SplitMix64(37)
    for _ in range(20):
        x = G(rng.int_between(-2, 2), rng.int_between(-2, 2))
        y = G(rng.int_between(-2, 2), rng.int_between(-2, 2))
        assert variant(x, y, random_poly2(rng)) == 0


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
