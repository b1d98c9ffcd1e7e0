from fractions import Fraction

import pytest

from blockmod import blockalg
from blockmod.blockalg import (D2, AlgebraContext, AlgebraElement, BasisL,
                               bracket, format_element, jacobi_defect,
                               parse_element, structure_constant)
from blockmod.poly import IndexPair, ParseError, index_box
from blockmod.prng import SplitMix64
from blockmod.suites import ACCEPTANCE_Q_VALUES

ORACLE_Q_VALUES = (*ACCEPTANCE_Q_VALUES, Fraction(-1, 3))


def L(m1, m2):
    return AlgebraElement.basis(IndexPair(m1, m2))


def test_context_rejects_zero_q():
    with pytest.raises(ValueError, match="nonzero"):
        AlgebraContext(Fraction(0))
    assert AlgebraContext(Fraction(5, 7)).q == Fraction(5, 7)


def test_bracket_basis_examples():
    ctx = AlgebraContext(Fraction(2))
    assert bracket(L(1, 0), L(0, 1), ctx) == -3 * L(1, 1)
    assert bracket(L(2, -1), L(2, -1), ctx) == 0
    # L(0,-q) is central for integer q
    ctx3 = AlgebraContext(Fraction(3))
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            assert bracket(L(m1, m2), L(0, -3), ctx3) == 0
    # in general position it is not central
    assert bracket(L(1, 0), L(0, -3), AlgebraContext(Fraction(5, 2))) != 0


def test_bracket_with_derivation():
    ctx = AlgebraContext(Fraction(1))
    d2 = AlgebraElement.derivation()
    assert bracket(d2, L(3, 5), ctx) == 5 * L(3, 5)
    assert bracket(L(3, 5), d2, ctx) == -5 * L(3, 5)
    assert bracket(d2, d2, ctx) == 0
    # ad L(0,0) acts as q on the first degree: [L(0,0), L(2,7)] = q*2*L(2,7)
    assert bracket(L(0, 0), L(2, 7), ctx) == 2 * L(2, 7)


def test_bracket_bilinear_and_antisymmetric():
    rng = SplitMix64(21)
    ctx = AlgebraContext(Fraction(5, 7))

    def sample():
        out = AlgebraElement()
        for _ in range(rng.int_between(1, 3)):
            m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
            out = out + rng.fraction(nonzero=True) * AlgebraElement.basis(m)
        if rng.below(2):
            out = out + rng.fraction(nonzero=True) * AlgebraElement.derivation()
        return out

    for _ in range(50):
        x, y, z = sample(), sample(), sample()
        assert bracket(x, y, ctx) == -bracket(y, x, ctx)
        assert bracket(x, x, ctx) == 0
        c = rng.fraction()
        assert bracket(c * x + y, z, ctx) == c * bracket(x, z, ctx) + bracket(y, z, ctx)


def reference_bracket(x, y, ctx):
    """The bracket as first written, kept as the oracle: Fraction structure
    constants cross + q*diff and its own add-and-drop-zeros loop."""
    q = ctx.q
    data: dict = {}
    for gx, cx in x.terms().items():
        x_is_basis = type(gx) is BasisL
        if x_is_basis:
            mx1, mx2 = gx.m.m1, gx.m.m2
        for gy, cy in y.terms().items():
            if x_is_basis and type(gy) is BasisL:
                my = gy.m
                coeff = (my.m1 * mx2 - mx1 * my.m2) + q * (my.m1 - mx1)
                if coeff:
                    gen = BasisL(IndexPair(mx1 + my.m1, mx2 + my.m2))
                    c = cx * cy * coeff
                else:
                    continue
            elif not x_is_basis and type(gy) is BasisL:
                if not gy.m.m2:
                    continue
                gen, c = gy, cx * cy * gy.m.m2
            elif x_is_basis and gy is D2:
                if not mx2:
                    continue
                gen, c = gx, -cx * cy * mx2
            else:
                continue            # [D2, D2] = 0
            acc = data.get(gen)
            acc = c if acc is None else acc + c
            if acc:
                data[gen] = acc
            elif gen in data:
                del data[gen]
    return AlgebraElement(data)


def test_structure_constant_closed_form():
    box = index_box(2)
    for q in ORACLE_Q_VALUES:
        for m in box:
            for n in box:
                scaled = structure_constant(m, n, q.numerator, q.denominator)
                assert type(scaled) is int
                assert Fraction(scaled, q.denominator) == n.m1 * (m.m2 + q) - m.m1 * (n.m2 + q)


def test_bracket_matches_reference_on_generators():
    gens = [AlgebraElement.basis(m) for m in index_box(2)]
    gens.append(AlgebraElement.derivation())
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        for x in gens:
            for y in gens:
                assert bracket(x, y, ctx).terms() == reference_bracket(x, y, ctx).terms()


def test_bracket_matches_reference_on_multi_term_elements():
    rng = SplitMix64(23)

    def sample():
        out = AlgebraElement()
        for _ in range(rng.int_between(1, 5)):
            m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
            out = out + rng.fraction(nonzero=True) * AlgebraElement.basis(m)
        if rng.below(2):
            out = out + rng.fraction(nonzero=True) * AlgebraElement.derivation()
        return out

    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        for _ in range(40):
            x, y = sample(), sample()
            assert bracket(x, y, ctx).terms() == reference_bracket(x, y, ctx).terms()


def test_structure_constant_jacobi_symbolic():
    # c(n,k)c(m,n+k) + c(k,m)c(n,k+m) + c(m,n)c(k,m+n) = 0 for all indices
    # and all q = a/b; the scaled constants carry the common factor b^2
    sympy = pytest.importorskip("sympy")
    m, n, k = (IndexPair(*sympy.symbols(f"{v}1 {v}2")) for v in "mnk")
    a, b = sympy.symbols("a b")

    def c(u, v):
        return structure_constant(u, v, a, b)

    assert sympy.expand(c(n, k) * c(m, n + k) + c(k, m) * c(n, k + m)
                        + c(m, n) * c(k, m + n)) == 0


def test_jacobi_hand_example():
    ctx = AlgebraContext(Fraction(1))
    d2 = AlgebraElement.derivation()
    assert jacobi_defect(d2, L(1, 0), L(0, 1), ctx) == 0
    assert jacobi_defect(L(1, 0), L(1, 0), L(2, 2), ctx) == 0


def test_jacobi_small_grid():
    gens = [AlgebraElement.basis(IndexPair(a, b))
            for a in range(-2, 3) for b in range(-2, 3)]
    gens.append(AlgebraElement.derivation())
    for q in (Fraction(5, 7), Fraction(2)):
        ctx = AlgebraContext(q)
        for x in gens[::5]:
            for y in gens[::3]:
                for z in gens[::4]:
                    assert jacobi_defect(x, y, z, ctx) == 0


def test_witt_embedding():
    # d_i = L(i*m)/(m1*q) along any line with m1 != 0 brackets like the
    # one-variable vector-field algebra: [d_i, d_j] = (j - i) d_{i+j}
    for q in (Fraction(1), Fraction(-3, 4)):
        ctx = AlgebraContext(q)
        for m in (IndexPair(1, 0), IndexPair(2, 3), IndexPair(-1, 4)):
            scale = 1 / (m.m1 * q)

            def witt(i):
                return scale * AlgebraElement.basis(i * m)

            for i in range(-3, 4):
                for j in range(-3, 4):
                    assert bracket(witt(i), witt(j), ctx) == (j - i) * witt(i + j)


def test_element_format_and_parse():
    ctx = AlgebraContext(Fraction(2))
    x = Fraction(3, 2) * L(1, 0) - AlgebraElement.derivation()
    assert format_element(x) == "3/2*L(1,0) - D2"
    assert parse_element("3/2*L(1,0) - D2", ctx) == x
    assert parse_element("L(-1,2)", ctx) == L(-1, 2)
    assert parse_element("-D2 + 2*L(0,1)", ctx) == 2 * L(0, 1) - AlgebraElement.derivation()
    # D1 normalizes to (1/q) L(0,0)
    assert parse_element("D1", ctx) == Fraction(1, 2) * L(0, 0)
    assert parse_element("4*D1", ctx) == 2 * L(0, 0)
    assert format_element(AlgebraElement()) == "0"


def test_element_parse_round_trip_randomized():
    rng = SplitMix64(22)
    ctx = AlgebraContext(Fraction(3))
    for _ in range(40):
        x = AlgebraElement()
        for _ in range(rng.int_between(1, 4)):
            m = IndexPair(rng.int_between(-5, 5), rng.int_between(-5, 5))
            x = x + rng.fraction(nonzero=True) * AlgebraElement.basis(m)
        if rng.below(2):
            x = x + rng.fraction(nonzero=True) * AlgebraElement.derivation()
        assert parse_element(format_element(x), ctx) == x


def test_element_parse_errors():
    ctx = AlgebraContext(Fraction(1))
    for bad in ["", "L(1)", "L(1,2", "3*", "D3", "L(a,b)", "2 L(1,0)", "1/0*D2"]:
        with pytest.raises(ParseError):
            parse_element(bad, ctx)


def test_generator_types():
    gen = BasisL(IndexPair(1, -2))
    assert str(gen) == "L(1,-2)"
    assert str(blockalg.D2) == "D2"
    assert L(1, -2).terms() == {gen: Fraction(1)}
