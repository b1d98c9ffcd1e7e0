import operator
from fractions import Fraction
from math import comb, gcd

import pytest

from blockmod import poly
from blockmod.blockalg import D2, AlgebraContext, AlgebraElement, BasisL, bracket, jacobi_defect
from blockmod.poly import (MAX_EXPRESSION_DEGREE, IndexPair, ParseError, Poly1,
                           Poly2, add_terms, compose2, from_single_variable, index_box,
                           parse_poly2, rewrite_in_xm, shift_terms)
from blockmod.prng import SplitMix64
from oracles import T, parse_poly1, to_single_variable


def random_poly2(rng, max_degree=4, max_terms=6):
    terms = []
    for _ in range(rng.int_between(1, max_terms)):
        d = rng.int_between(0, max_degree)
        a = rng.int_between(0, d)
        terms.append(((a, d - a), rng.fraction(nonzero=True)))
    return Poly2(terms)


def random_index(rng, radius=4):
    return IndexPair(rng.int_between(-radius, radius), rng.int_between(-radius, radius))


def test_ring_arithmetic_examples():
    assert (poly.D1 - poly.D2) * (poly.D1 + poly.D2) == poly.D1**2 - poly.D2**2
    f = Poly2({(2, 1): Fraction(3, 2), (0, 0): -1})
    assert f + Poly2() == f
    assert Fraction(3, 2) * (poly.D1 * poly.D2) == Poly2({(1, 1): Fraction(3, 2)})
    assert f - f == 0
    assert not Poly2()


def test_ring_axioms_randomized():
    rng = SplitMix64(11)
    for _ in range(30):
        f, g, h = (random_poly2(rng, 3, 4) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_shift_examples():
    assert poly.D1.shifted(IndexPair(1, 0)) == poly.D1 - 1
    # (d1-1)(d2-2) expanded by hand
    assert (poly.D1 * poly.D2).shifted(IndexPair(1, 2)) == \
        poly.D1 * poly.D2 - 2 * poly.D1 - poly.D2 + 2
    f = Poly2({(3, 1): 2, (0, 2): Fraction(1, 3)})
    assert f.shifted(IndexPair(0, 0)) == f
    # the one expansion on integer numerators: (d1+1)^2*(d2-2) - 1, factor 1
    assert shift_terms({(2, 1): 1, (0, 0): -1}, -1, 2) == ({
        (2, 1): 1, (2, 0): -2, (1, 1): 2, (1, 0): -4, (0, 1): 1, (0, 0): -3}, 1)


def test_shift_additivity_randomized():
    rng = SplitMix64(12)
    for _ in range(25):
        f = random_poly2(rng)
        m, n = random_index(rng), random_index(rng)
        assert f.shifted(m).shifted(n) == f.shifted(m + n)


def test_rational_shift_matches_composition():
    # the difference-equation check shifts by a rational c; compose2 is the oracle
    rng = SplitMix64(13)
    for _ in range(40):
        f = random_poly2(rng, max_degree=5)
        c1, c2 = rng.fraction(), rng.fraction()
        assert f._shift(c1, c2) == compose2(f, poly.D1 - c1, poly.D2 - c2)


# --- the integer kernels against the per-contribution Fraction loops ---------
# The shift and the product as they were before they summed integer
# numerators over one common denominator: one Fraction product and one
# Fraction sum for every contribution.

def reference_shift_terms(terms, m1, m2):
    def binomial_row(e, m):
        return [(i, f) for i in range(e + 1) if (f := comb(e, i) * (-m) ** (e - i))]

    rows1 = {a: binomial_row(a, m1) for a in {a for a, _ in terms}}
    rows2 = {b: binomial_row(b, m2) for b in {b for _, b in terms}}
    data = {}
    for (a, b), c in terms.items():
        row2 = rows2[b]
        for i, f1 in rows1[a]:
            for j, f2 in row2:
                key = (i, j)
                data[key] = data.get(key, 0) + c * (f1 * f2)
    return {key: c for key, c in data.items() if c}


def reference_product(left, right):
    return add_terms({}, (((a1 + b1, a2 + b2), ca * cb)
                          for (a1, a2), ca in left.items()
                          for (b1, b2), cb in right.items()))


# small and large, mostly coprime, so a common denominator can grow fast
DENOMINATORS = (1, 2, 3, 7, 9, 11, 64, 625, 10007, 1_000_003, 2**61 - 1)


def kernel_poly(rng, max_degree=6, max_terms=7):
    terms = []
    for _ in range(rng.int_between(0, max_terms)):
        d = rng.int_between(0, max_degree)
        a = rng.int_between(0, d)
        terms.append(((a, d - a), kernel_coefficient(rng)))
    return Poly2(terms)


def kernel_coefficient(rng):
    return Fraction(rng.int_between(-10**15, 10**15), rng.choice(DENOMINATORS))


def kernel_shift(rng):
    if rng.below(2):
        return rng.int_between(-5, 5)
    return Fraction(rng.int_between(-40, 40), rng.choice(DENOMINATORS))


def assert_same_terms(got, want):
    assert got == want
    assert all(type(c) is Fraction for c in got.values()), got


def test_shift_kernel_matches_fraction_loop_randomized():
    rng = SplitMix64(14)
    for _ in range(150):
        f = kernel_poly(rng)
        m1, m2 = kernel_shift(rng), kernel_shift(rng)
        assert_same_terms(f._shift(m1, m2).terms(), reference_shift_terms(f.terms(), m1, m2))
    assert shift_terms({}, 3, Fraction(1, 2)) == ({}, 1)
    assert Poly2().shifted(IndexPair(2, -1)) == Poly2()
    assert Poly1().shifted(Fraction(5, 3)) == Poly1()


def test_shift_kernel_cancellation():
    rng = SplitMix64(15)
    for _ in range(40):
        g = kernel_poly(rng)
        m1, m2 = kernel_shift(rng), kernel_shift(rng)
        f = g._shift(-m1, -m2)
        # every term of f beyond g's own must cancel on the way back
        assert_same_terms(f._shift(m1, m2).terms(), reference_shift_terms(f.terms(), m1, m2))
        assert f._shift(m1, m2) == g
    # (d1 + 1/3)^3 shifted by 1/3 is d1^3: three lower terms cancel to zero
    cube = Poly2({(3, 0): 1, (2, 0): 1, (1, 0): Fraction(1, 3), (0, 0): Fraction(1, 27)})
    assert cube._shift(Fraction(1, 3), 0) == Poly2({(3, 0): 1})


def test_shift_kernel_keeps_int_coefficients():
    # the closure's action table shifts single monomials and sums ints
    rng = SplitMix64(16)
    for _ in range(60):
        terms = {(rng.int_between(0, 6), rng.int_between(0, 6)): rng.int_between(-9, 9) or 1
                 for _ in range(rng.int_between(1, 4))}
        m1, m2 = rng.int_between(-5, 5), rng.int_between(-5, 5)
        out, scale = shift_terms(terms, m1, m2)
        assert out == reference_shift_terms(terms, m1, m2) and scale == 1
        assert all(type(c) is int for c in out.values()), out
    # an integral Fraction shifts like an int; a shift by u/v scales the
    # numerators to v^A: 4*(d1 - 1/2)^2 = 4*d1^2 - 4*d1 + 1
    assert shift_terms({(2, 0): 1}, Fraction(2), 0) == ({(2, 0): 1, (1, 0): -4, (0, 0): 4}, 1)
    assert shift_terms({(2, 0): 1}, Fraction(1, 2), 0) == ({(2, 0): 4, (1, 0): -4, (0, 0): 1}, 4)


def test_product_kernel_matches_fraction_loop_randomized():
    rng = SplitMix64(17)
    for _ in range(150):
        f, g = kernel_poly(rng), kernel_poly(rng)
        assert_same_terms((f * g).terms(), reference_product(f.terms(), g.terms()))
    # (d1 - c*d2)(d1 + c*d2): the cross terms cancel to zero
    c = Fraction(10**12 + 39, 2**61 - 1)
    assert (poly.D1 - c * poly.D2) * (poly.D1 + c * poly.D2) == poly.D1**2 - c * c * poly.D2**2
    assert kernel_poly(rng) * Poly2() == Poly2()


def test_poly1_rational_shift_matches_fraction_loop():
    rng = SplitMix64(18)
    for _ in range(40):
        f = Poly1([(rng.int_between(0, 9), kernel_coefficient(rng))
                   for _ in range(rng.int_between(0, 5))])
        c = kernel_shift(rng)
        expected = reference_shift_terms({(k, 0): v for k, v in f.terms().items()}, c, 0)
        assert_same_terms(f.shifted(c).terms(), {k: v for (k, _), v in expected.items()})


def carrier(f):
    return f._nums, f._den


def test_constructor_stores_numerators_over_the_lcm():
    # the lcm of the reduced denominators is already lowest terms
    assert carrier(Poly2()) == ({}, 1)
    assert carrier(Poly2({(1, 0): 3, (0, 0): -7})) == ({(1, 0): 3, (0, 0): -7}, 1)
    assert carrier(Poly2({(1, 0): Fraction(1, 6), (0, 0): Fraction(-3, 4), (0, 1): 2})) == \
        ({(1, 0): 2, (0, 0): -9, (0, 1): 24}, 12)
    big = {(1, 0): Fraction(1, 2**61 - 1), (0, 0): Fraction(5, 10007)}
    assert carrier(Poly2(big)) == ({(1, 0): 10007, (0, 0): 5 * (2**61 - 1)}, (2**61 - 1) * 10007)
    # repeated keys are summed first, and a sum of zero is dropped
    assert carrier(Poly2([((1, 0), Fraction(1, 2)), ((1, 0), Fraction(1, 2)),
                          ((0, 1), Fraction(1, 3)), ((0, 1), Fraction(-1, 3))])) == \
        ({(1, 0): 1}, 1)


# --- the integer carrier against plain Fraction term maps ---------------------

def reference_combination(left, right, sign=1):
    return add_terms(dict(left), ((key, sign * c) for key, c in right.items()))


def reference_scale(terms, c):
    return {key: v * c for key, v in terms.items() if c}


def reference_power(terms, k, one):
    out = {one: Fraction(1)}
    for _ in range(k):
        out = reference_product(out, terms)
    return out


def reference_eval(terms, x1, x2):
    return sum((c * Fraction(x1) ** a * Fraction(x2) ** b for (a, b), c in terms.items()),
               Fraction(0))


def assert_lowest_terms(f):
    nums, den = carrier(f)
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in nums.values()), nums
    assert gcd(den, *nums.values()) == 1, (nums, den)


SCALARS = (0, 1, -1, 6, Fraction(-7, 4), Fraction(5, 9), Fraction(10**12 + 39, 2**61 - 1))


def check_against_reference(cases):
    for value, want in cases:
        assert_lowest_terms(value)
        assert_same_terms(value.terms(), want)


def test_carrier_matches_fraction_reference_randomized():
    rng = SplitMix64(31)
    for _ in range(60):
        f, g = kernel_poly(rng, 4, 5), kernel_poly(rng, 4, 5)
        F, G = f.terms(), g.terms()
        m = random_index(rng, 3)
        c1, c2 = kernel_shift(rng), kernel_shift(rng)
        check_against_reference(
            [(f + g, reference_combination(F, G)), (f - g, reference_combination(F, G, -1)),
             (g - f, reference_combination(G, F, -1)), (f - f, {}), (-f, reference_scale(F, -1)),
             (f * g, reference_product(F, G)), (f ** 3, reference_power(F, 3, (0, 0))),
             (f ** 0, {(0, 0): Fraction(1)}),
             (f.shifted(m), reference_shift_terms(F, m.m1, m.m2)),
             (f._shift(c1, c2), reference_shift_terms(F, c1, c2))]
            + [(s * f, reference_scale(F, s)) for s in SCALARS]
            + [(f * s, reference_scale(F, s)) for s in SCALARS])
        for mono, c in F.items():
            assert f.coefficient(*mono) == c
        assert f.coefficient(40, 40) == 0 and type(f.coefficient(40, 40)) is Fraction
        x1, x2 = rng.fraction(), rng.fraction()
        assert f.eval_at(x1, x2) == reference_eval(F, x1, x2)
        assert type(f.eval_at(x1, x2)) is Fraction


def test_poly1_carrier_matches_fraction_reference_randomized():
    rng = SplitMix64(32)

    def random_poly1():
        return Poly1([(rng.int_between(0, 6), kernel_coefficient(rng))
                      for _ in range(rng.int_between(0, 4))])

    def two_variable(terms):
        return {(k, 0): c for k, c in terms.items()}

    def one_variable(terms):
        return {k: c for (k, _), c in terms.items()}

    for _ in range(60):
        f, g = random_poly1(), random_poly1()
        F, G = two_variable(f.terms()), two_variable(g.terms())
        i, c = rng.int_between(-5, 5), kernel_shift(rng)
        cases = [(f + g, reference_combination(F, G)), (f - g, reference_combination(F, G, -1)),
                 (-f, reference_scale(F, -1)), (f * g, reference_product(F, G)),
                 (f ** 2, reference_power(F, 2, (0, 0))),
                 (f.shifted(i), reference_shift_terms(F, i, 0)),
                 (f.shifted(c), reference_shift_terms(F, c, 0))]
        cases += [(s * f, reference_scale(F, s)) for s in SCALARS]
        check_against_reference((value, one_variable(want)) for value, want in cases)
        for (k, _), coeff in F.items():
            assert f.coefficient(k) == coeff
        x = rng.fraction()
        assert f.eval_at(x) == reference_eval(F, x, 0)


def reference_sum(parts):
    """The sum of sign * value over (sign, value) pairs, on Fraction term maps."""
    out: dict = {}
    for sign, value in parts:
        add_terms(out, ((key, sign * c) for key, c in value.terms().items()))
    return out


def kernel_element(rng, max_terms=4):
    # generators of a small box, so that sums share keys and cancel
    gens = [BasisL(m) for m in index_box(1)] + [D2]
    return AlgebraElement([(rng.choice(gens), kernel_coefficient(rng))
                           for _ in range(rng.int_between(0, max_terms))])


@pytest.mark.parametrize("cls, sample", [
    (Poly2, lambda rng: kernel_poly(rng, 3, 4)),
    (AlgebraElement, kernel_element),
])
def test_combination_matches_fraction_reference(cls, sample):
    # the one-pass sum skips zero parts, returns zero when none is left and
    # drops a key whose total reaches zero
    rng = SplitMix64(35)
    zero = cls()
    for _ in range(60):
        f, g, h = sample(rng), sample(rng), sample(rng)
        for parts in ([(1, f), (1, zero), (-1, g)], [(1, zero), (-1, h), (1, zero)],
                      [(1, zero), (1, zero), (-1, zero)], [],
                      [(1, f), (-1, f)], [(1, f), (1, g), (-1, f + g)],
                      [(1, f), (1, g), (-1, f), (1, zero), (-1, g)],
                      [(1, f), (1, g), (1, h)], [(-1, h)]):
            got = cls._combination(parts)
            assert type(got) is cls
            assert_lowest_terms(got)
            assert_same_terms(got.terms(), reference_sum(parts))
        assert carrier(cls._combination([(1, f), (-1, f)])) == ({}, 1)


def test_no_operation_changes_an_operand_or_a_returned_zero():
    # values are immutable: every result, the zeros included, is fed back
    # as an operand, and no stored numerator dict may change afterwards
    rng = SplitMix64(36)
    ctx = AlgebraContext(Fraction(5, 7))
    m = IndexPair(1, -1)
    poly_ops = [operator.add, operator.sub, operator.mul, lambda f, g: -f,
                lambda f, g: f.shifted(m), lambda f, g: f._shift(Fraction(1, 3), 0),
                lambda f, g: Fraction(-3, 4) * f, lambda f, g: 0 * g, lambda f, g: f ** 2,
                lambda f, g: f - f, lambda f, g: g + 0,
                lambda f, g: Poly2._combination([(1, f), (-1, g), (1, g)])]
    element_ops = [operator.add, operator.sub, lambda x, y: -x, lambda x, y: Fraction(2, 3) * x,
                   lambda x, y: 0 * y, lambda x, y: x - x, lambda x, y: 0 + y,
                   lambda x, y: bracket(x, y, ctx), lambda x, y: bracket(x, x, ctx),
                   lambda x, y: jacobi_defect(x, y, x, ctx),
                   lambda x, y: AlgebraElement._combination([(1, x), (-1, y), (1, y)])]
    for ops, pool in ((poly_ops, [kernel_poly(rng, 2, 3) for _ in range(4)] + [Poly2()]),
                      (element_ops, [kernel_element(rng) for _ in range(4)]
                       + [AlgebraElement(), AlgebraElement.basis(m)])):
        seen = [(value, dict(value._nums), value._den) for value in pool]
        for _ in range(3):
            results = []
            for op in ops:
                for _ in range(4):
                    results.append(op(rng.choice(pool), rng.choice(pool)))
            assert any(not value for value in results)
            seen += [(value, dict(value._nums), value._den) for value in results]
            pool = pool + results
        for value, nums, den in seen:
            assert value._nums == nums and value._den == den


def test_equal_values_hash_equal_along_every_path():
    rng = SplitMix64(33)
    for _ in range(40):
        f, g = random_poly2(rng), random_poly2(rng)
        m, c = random_index(rng), rng.fraction(nonzero=True)
        paths = [Poly2(f.terms()), (f + g) - g, g + f - g, -(-f), 1 * f, f * Fraction(1),
                 (c * f) * (1 / c), f.shifted(m).shifted(-m), f._shift(c, 0)._shift(-c, 0),
                 f * Poly2.const(1), f + 0, 0 + f, f - Poly2(), (f * g - g * f) + f]
        for h in paths:
            assert h == f and hash(h) == hash(f) and carrier(h) == carrier(f)
        # the hash is that of the Fraction term map
        assert hash(f) == hash(frozenset(f.terms().items()))
    assert Poly2.const(3) == 3 and 3 == Poly2.const(3) and Poly1.const(3) == 3
    assert Poly2.const(Fraction(6, 4)) == Fraction(3, 2) and Poly2.const(3) != 4
    assert Poly2() == 0 and 0 == Poly2() and Poly2() == Fraction(0)
    assert hash(Poly2.const(3)) == hash(Poly2({(0, 0): Fraction(6, 2)}))


def test_integer_shift_keeps_the_denominator(monkeypatch):
    # an integer shift keeps the content of the numerators (module
    # docstring), so it keeps the denominator and makes no gcd pass
    rng = SplitMix64(34)
    cases = []
    for _ in range(60):
        f = kernel_poly(rng)
        f1 = Poly1([(rng.int_between(0, 6), kernel_coefficient(rng)) for _ in range(3)])
        cases.append((f, f.terms(), random_index(rng, 5), f1, rng.int_between(-5, 5)))

    def no_gcd_pass(cls, nums, den):
        raise AssertionError("an integer shift made a gcd pass")

    monkeypatch.setattr(poly._TermMap, "_reduced", classmethod(no_gcd_pass))
    for f, terms, m, f1, i in cases:
        h = f.shifted(m)
        assert h._den == f._den and h.terms() == reference_shift_terms(terms, m.m1, m.m2)
        assert gcd(h._den, *h._nums.values()) == 1
        assert f1.shifted(i)._den == f1._den and f1.shifted(Fraction(i))._den == f1._den
    monkeypatch.undo()
    # a rational shift can change it: (t - 1/2)^2 = (4*t^2 - 4*t + 1)/4
    assert carrier((T ** 2).shifted(Fraction(1, 2))) == \
        ({(2, 0): 4, (1, 0): -4, (0, 0): 1}, 4)


def test_eval():
    assert (poly.D1**2 - poly.D2**2).eval_at(2, 1) == 3
    assert Poly2().eval_at(5, -7) == 0
    # the distinguished point (0, -q*alpha) with q=2, alpha=1
    assert (poly.D2 + 2).eval_at(0, -2) == 0


def test_degree_and_leading():
    assert Poly2().total_degree() == -1
    assert Poly2.const(4).total_degree() == 0
    f = Poly2({(1, 2): 1, (3, 0): 1})
    assert f.total_degree() == 3
    # same total degree; d1 > d2 breaks the tie
    assert f.leading_monomial() == (3, 0)
    rng = SplitMix64(13)
    for _ in range(25):
        f, g = random_poly2(rng), random_poly2(rng)
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def test_ordering_is_graded_lex():
    f = Poly2({(0, 3): 1, (2, 0): 1, (1, 1): 1})
    assert f.leading_monomial() == (0, 3)
    assert [mono for mono, _ in f.items_sorted()] == [(0, 3), (2, 0), (1, 1)]
    assert str(f) == "d2^3 + d1^2 + d1*d2"


def test_rewrite_in_xm():
    # X has slot 0, d1 has slot 1 in the output
    assert rewrite_in_xm(poly.D2, IndexPair(1, 0)) == Poly2({(1, 0): -1})
    assert rewrite_in_xm(poly.D1, IndexPair(1, 5)) == Poly2({(0, 1): 1})
    with pytest.raises(ValueError, match="degenerate"):
        rewrite_in_xm(poly.D1, IndexPair(0, 3))


def test_rewrite_round_trip_randomized():
    rng = SplitMix64(14)
    for _ in range(25):
        f = random_poly2(rng)
        m = random_index(rng)
        if m.m1 == 0:
            m = IndexPair(1 + rng.int_between(0, 3), m.m2)
        F = rewrite_in_xm(f, m)
        cross = Poly2({(1, 0): m.m2, (0, 1): -m.m1})
        assert compose2(F, cross, poly.D1) == f


def test_single_variable_conversions():
    f1 = Poly1({2: Fraction(1, 2), 0: -3})
    assert to_single_variable(from_single_variable(f1, 0), 0) == f1
    assert to_single_variable(from_single_variable(f1, 1), 1) == f1
    with pytest.raises(ValueError):
        to_single_variable(poly.D1 * poly.D2, 0)


def test_poly1_arithmetic_and_shift():
    t = T
    f = (t - 1) * (t + 1)
    assert f == t**2 - 1
    assert f.shifted(2) == (t - 2) ** 2 - 1
    assert f.shifted(Fraction(1, 2)).eval_at(Fraction(1, 2)) == -1
    assert f.degree() == 2
    assert Poly1().degree() == -1
    assert str(2 * t - 6) == "2*t - 6"


def test_poly1_is_a_one_variable_view():
    f = Poly1({2: 1})
    assert f.terms() == {2: 1} and f.coefficient(2) == 1 and f.coefficient(0) == 0
    assert Poly1([(3, 1), (3, -1), (0, 0)]).terms() == {}
    with pytest.raises(ValueError, match="negative exponent"):
        Poly1({-1: 1})
    rng = SplitMix64(16)
    for _ in range(10):
        f1 = Poly1([(rng.int_between(0, 5), rng.fraction(nonzero=True)) for _ in range(4)])
        f2 = from_single_variable(f1, 0)
        assert f1.format("t") == f2.format(("t", "d2"))
        assert f1.eval_at(Fraction(2, 3)) == f2.eval_at(Fraction(2, 3), 5)
        assert f1.degree() == f2.total_degree()
        assert hash(f1) == hash(Poly1(f1.terms()))


def test_poly1_power_matches_repeated_product():
    base = T - Fraction(1, 2)
    product = Poly1.const(1)
    for k in range(8):
        assert base**k == product
        product = product * base


def test_carriers_do_not_mix():
    t, d1 = T, poly.D1
    assert t != d1 and d1 != t
    for left, right in ((t, d1), (d1, t)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left * right


def test_elements_share_the_term_map_but_no_polynomial_operation():
    # AlgebraElement runs on the polynomials' term-map body, keyed by
    # generators: the only rational it coerces is 0, and it never mixes
    # with a polynomial
    x = Fraction(3, 2) * AlgebraElement.basis(IndexPair(1, 0)) - AlgebraElement.derivation()
    zero = AlgebraElement()
    for carrier in (poly.D1, T, Poly2(), Poly1()):
        assert x != carrier and carrier != x and zero != carrier and carrier != zero
        for left, right in ((x, carrier), (carrier, x)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(left, right)
    for op in (lambda: x * x, lambda: x ** 2, lambda: x + 1, lambda: 1 + x, lambda: x - 1,
               lambda: 1 - x, lambda: x + Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()
    assert x != 5 and 5 != x and x != Fraction(3, 2)
    assert zero == 0 and 0 == zero and zero == Fraction(0) and x != 0 and not zero
    assert 0 - x == -x and x - 0 == x and x + 0 == x and 0 + x == x and x - x == zero
    same = AlgebraElement([(gen, coeff) for gen, coeff in reversed(x.items_sorted())])
    assert same == x and hash(same) == hash(x) and hash(zero) == hash(AlgebraElement())
    assert repr(x) == "AlgebraElement(3/2*L(1,0) - D2)" and repr(zero) == "AlgebraElement(0)"


def test_difference_makes_no_intermediate_sum(monkeypatch):
    # f - g adds the negated terms of g into a copy of f in one pass: it
    # neither builds -g nor calls __add__ (the benchmark counts those calls)
    rng = SplitMix64(29)
    pairs = [(random_poly2(rng), random_poly2(rng)) for _ in range(20)]
    wanted = [f + (-g) for f, g in pairs]

    def no_sum(self, other):
        raise AssertionError("a difference called __add__")

    monkeypatch.setattr(Poly2, "__add__", no_sum)
    monkeypatch.setattr(Poly2, "__radd__", no_sum)
    for (f, g), want in zip(pairs, wanted):
        assert f - g == want and g - f == -want and f - f == 0
        assert 0 - f == -f and f - 0 == f and 1 - f == -(f - 1)


def test_index_pair_helpers():
    m = IndexPair(2, 3)
    assert m.perp() == IndexPair(3, -2)
    assert m.dot(IndexPair(-1, 4)) == 10
    assert 2 * m == IndexPair(4, 6)
    assert -m == IndexPair(-2, -3)
    assert m + IndexPair(1, 1) - IndexPair(1, 1) == m
    assert str(m) == "(2,3)"
    assert IndexPair(0, 0).is_zero() and not m.is_zero()


def test_index_pair_key_contract():
    # a tuple: hash and equality of the plain pair, fields read-only
    m = IndexPair(2, -3)
    assert repr(m) == "IndexPair(m1=2, m2=-3)" and str(m) == "(2,-3)"
    assert hash(m) == hash((2, -3))
    assert m == (2, -3) and IndexPair(1, 2) == (1, 2)
    assert tuple(m) == (2, -3) and (m.m1, m.m2) == (2, -3)
    for value in (m + m, m - m, -m, m * 3, 3 * m, m.perp()):
        assert type(value) is IndexPair
    assert (m + IndexPair(1, 1), m - IndexPair(1, 1)) == ((3, -2), (1, -4))
    assert (3 * m, m * -1, m.perp(), m.dot(m)) == ((6, -9), (-2, 3), (-3, -2), 13)
    with pytest.raises(AttributeError):
        m.m1 = 5
    with pytest.raises(AttributeError):
        m.extra = 5


def test_term_maps_keep_plain_monomial_keys():
    # IndexPair(1, 0) == (1, 0), so a term map must not take index keys: the
    # constructor turns every key into a plain tuple, and shifts by an
    # IndexPair give plain tuples back
    f = Poly2({IndexPair(1, 0): 3, (0, 1): Fraction(1, 2)})
    assert f == Poly2({(1, 0): 3, (0, 1): Fraction(1, 2)})
    rng = SplitMix64(27)
    polys = [f] + [random_poly2(rng) for _ in range(10)]
    for g in polys:
        for h in (g, g.shifted(random_index(rng)), g * g.shifted(IndexPair(1, -1)), g + f):
            assert all(type(key) is tuple for key in h.terms())


# --- expression grammar -------------------------------------------------------

def test_parse_examples():
    f = parse_poly2("3/2*d1^2*d2 - d2 + 5")
    assert f == Poly2({(2, 1): Fraction(3, 2), (0, 1): -1, (0, 0): 5})
    assert parse_poly2("(d1 - d2) * (d1 + d2)") == poly.D1**2 - poly.D2**2
    assert parse_poly2(" - d1 ^ 2 ") == -(poly.D1**2)
    assert parse_poly2("(d1+1)^3") == (poly.D1 + 1) ** 3


def test_parse_errors():
    with pytest.raises(ParseError, match="empty expression"):
        parse_poly2("")
    with pytest.raises(ParseError, match="exponent"):
        parse_poly2("d1^-1")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly2("1/0 * d1")
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly2("x + 1")
    with pytest.raises(ParseError):
        parse_poly2("d1 +")
    with pytest.raises(ParseError):
        parse_poly2("(d1")
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly1("d1 + 1")
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly2("t + d1")


def test_parse_degree_ceiling():
    top = MAX_EXPRESSION_DEGREE
    assert parse_poly2(f"d1^{top}").total_degree() == top
    assert parse_poly2(f"d1^{top - 1}*d2").total_degree() == top
    assert parse_poly2("(2^32)^32") == Poly2.const(2 ** 1024)
    # the guard reads denominators too: 401 bits * 32 passes, 439 bits * 32 does not
    assert parse_poly2(f"(1/{2 ** 400} + d1)^32").coefficient(0, 0) == Fraction(1, 2 ** 12800)
    for text in (f"d1^{top + 1}", f"(d1*d2)^{top // 2 + 1}", f"d1^{top}*d2",
                 f"(d1^{top // 2})^3", f"2^{top + 1}", "d1^1000000000",
                 "((2^32)^32)^32", f"(1/{2 ** 438} + d1)^32"):
        with pytest.raises(ParseError, match="ceiling"):
            parse_poly2(text)


def test_print_parse_round_trip_randomized():
    rng = SplitMix64(15)
    for _ in range(40):
        f = random_poly2(rng)
        assert parse_poly2(str(f)) == f
    for _ in range(20):
        terms = [(rng.int_between(0, 5), rng.fraction(nonzero=True))
                 for _ in range(rng.int_between(1, 4))]
        f1 = Poly1(terms)
        assert parse_poly1(str(f1)) == f1
    assert str(Poly2()) == "0" and parse_poly2("0") == Poly2()
