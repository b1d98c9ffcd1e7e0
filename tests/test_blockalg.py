import itertools
from fractions import Fraction

import pytest

from blockmod import blockalg
from blockmod.blockalg import (D2, AlgebraContext, AlgebraElement, BasisL, bracket,
                               jacobi_defect, parse_element, structure_constant)
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
    # q's integer pair is read once per context; it takes no part in
    # equality, hashing or the repr
    ctx = AlgebraContext(Fraction(-10, 14))
    assert ctx.ratio == (-5, 7) and AlgebraContext(3).ratio == (3, 1)
    assert ctx == AlgebraContext(Fraction(-5, 7)) and ctx != AlgebraContext(Fraction(5, 7))
    assert hash(ctx) == hash(AlgebraContext(Fraction(-5, 7)))
    assert repr(ctx) == "AlgebraContext(q=Fraction(-5, 7))"


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


def sample_element(rng, max_terms=5):
    out = AlgebraElement()
    for _ in range(rng.int_between(1, max_terms)):
        m = IndexPair(rng.int_between(-3, 3), rng.int_between(-3, 3))
        out = out + rng.fraction(nonzero=True) * AlgebraElement.basis(m)
    if rng.below(2):
        out = out + rng.fraction(nonzero=True) * AlgebraElement.derivation()
    return out


def test_bracket_bilinear_and_antisymmetric():
    rng = SplitMix64(21)
    ctx = AlgebraContext(Fraction(5, 7))
    for _ in range(50):
        x, y, z = (sample_element(rng, max_terms=3) for _ in range(3))
        assert bracket(x, y, ctx) == -bracket(y, x, ctx)
        assert bracket(x, x, ctx) == 0
        c = rng.fraction()
        assert bracket(c * x + y, z, ctx) == c * bracket(x, z, ctx) + bracket(y, z, ctx)


def reference_bracket(x, y, ctx, skew=None):
    """The bracket as first written, kept as the oracle: Fraction structure
    constants cross + q*diff and its own add-and-drop-zeros loop.

    ``skew(m, n)``, when given, is an integer added to b*c(m, n) for
    q = a/b, as :func:`skewed_constant` does to the library's constant.
    """
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
                if skew is not None:
                    coeff += Fraction(skew(gx.m, my), q.denominator)
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


def skew(m, n):
    """An integer that breaks the Jacobi identity when added to b*c(m, n)."""
    return m.m1 * n.m2 + 1


def skewed_constant(monkeypatch):
    true_constant = blockalg.structure_constant
    monkeypatch.setattr(blockalg, "structure_constant",
                        lambda m, n, a, b: true_constant(m, n, a, b) + skew(m, n))


def reference_jacobi_defect(x, y, z, ctx, skew=None):
    """The defect as first written: three bracket compositions added with +."""
    def br(u, v):
        return reference_bracket(u, v, ctx, skew)
    return br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))


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
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        for _ in range(40):
            x, y = sample_element(rng), sample_element(rng)
            assert bracket(x, y, ctx).terms() == reference_bracket(x, y, ctx).terms()


@pytest.mark.parametrize("skewed", [False, True])
def test_bracket_of_single_terms_matches_reference(monkeypatch, skewed):
    # non-unit coefficients on one generator each: the one-pair path
    if skewed:
        skewed_constant(monkeypatch)
    rng = SplitMix64(24)
    gens = [BasisL(m) for m in index_box(2)] + [D2]
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        for gx in gens:
            for gy in gens:
                x = AlgebraElement({gx: rng.fraction(nonzero=True) * 2})
                y = AlgebraElement({gy: -rng.fraction(nonzero=True)})
                result = bracket(x, y, ctx).terms()
                assert result == reference_bracket(x, y, ctx, skew if skewed else None).terms()
                assert len(result) <= 1 and all(result.values())


def test_jacobi_defect_matches_three_bracket_sum_on_the_box(monkeypatch):
    # with the true constant every defect is 0 (criterion 01 checks that);
    # the skewed one gives nonzero defects, so the one-pass sum is compared
    # with the reference's two additions on real cancellations
    skewed_constant(monkeypatch)
    gens = [AlgebraElement.basis(m) for m in index_box(2)]
    gens.append(AlgebraElement.derivation())
    triples = list(itertools.product(gens, repeat=3))[::5]
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        nonzero = 0
        for x, y, z in triples:
            defect = jacobi_defect(x, y, z, ctx)
            assert defect.terms() == reference_jacobi_defect(x, y, z, ctx, skew).terms()
            nonzero += bool(defect)
        assert nonzero > len(triples) // 2


@pytest.mark.parametrize("skewed", [False, True])
def test_jacobi_defect_matches_three_bracket_sum_on_multi_term_elements(monkeypatch, skewed):
    if skewed:
        skewed_constant(monkeypatch)
    rng = SplitMix64(25)
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        for _ in range(15):
            x, y, z = sample_element(rng), sample_element(rng), sample_element(rng)
            defect = jacobi_defect(x, y, z, ctx)
            assert defect.terms() == reference_jacobi_defect(
                x, y, z, ctx, skew if skewed else None).terms()
            assert bool(defect) == skewed


@pytest.mark.parametrize("skewed", [False, True])
def test_zero_brackets_match_reference(monkeypatch, skewed):
    # an empty operand and a single pair that vanishes give the zero
    # element at once; [L(m), L(m)] vanishes only under the true constant
    if skewed:
        skewed_constant(monkeypatch)
    rng = SplitMix64(26)
    zero, d2 = AlgebraElement(), AlgebraElement.derivation()
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        singles = [rng.fraction(nonzero=True) * AlgebraElement.basis(m) for m in index_box(2)]
        operands = [zero, d2, Fraction(-5, 3) * d2, *singles]
        operands += [sample_element(rng) for _ in range(3)]
        pairs = [(zero, x) for x in operands] + [(x, zero) for x in operands]
        pairs += [(d2, d2), (Fraction(3, 4) * d2, -d2)]
        pairs += [(x, c * x) for x in singles for c in (1, Fraction(-2, 9))]
        vanished = 0
        for x, y in pairs:
            result = bracket(x, y, ctx)
            assert result.terms() == reference_bracket(x, y, ctx, skew if skewed else None).terms()
            if not result:
                assert (result._nums, result._den) == ({}, 1)
                vanished += 1
        assert vanished >= 2 * len(operands) + 2
        assert (vanished == len(pairs)) == (not skewed)


@pytest.mark.parametrize("skewed", [False, True])
def test_jacobi_defect_matches_reference_when_inner_brackets_vanish(monkeypatch, skewed):
    # every triple of the radius-1 box, D2 and the zero element in which an
    # inner bracket vanishes; the [::5] stride of the box test skips most
    if skewed:
        skewed_constant(monkeypatch)
    gens = [AlgebraElement.basis(m) for m in index_box(1)]
    gens += [AlgebraElement.derivation(), AlgebraElement()]
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)

        def br(u, v):
            return reference_bracket(u, v, ctx, skew if skewed else None)

        all_vanish = some_vanish = 0
        for x, y, z in itertools.product(gens, repeat=3):
            inner = [br(y, z), br(z, x), br(x, y)]
            if all(inner):
                continue
            defect = jacobi_defect(x, y, z, ctx)
            assert defect.terms() == reference_jacobi_defect(
                x, y, z, ctx, skew if skewed else None).terms()
            if not defect:
                assert (defect._nums, defect._den) == ({}, 1)
            some_vanish += 1
            all_vanish += not any(inner)
        assert all_vanish > 50 and some_vanish > all_vanish


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
    assert str(x) == "3/2*L(1,0) - D2"
    assert parse_element("3/2*L(1,0) - D2", ctx) == x
    assert parse_element("L(-1,2)", ctx) == L(-1, 2)
    assert parse_element("-D2 + 2*L(0,1)", ctx) == 2 * L(0, 1) - AlgebraElement.derivation()
    # D1 normalizes to (1/q) L(0,0)
    assert parse_element("D1", ctx) == Fraction(1, 2) * L(0, 0)
    assert parse_element("4*D1", ctx) == 2 * L(0, 0)
    assert str(AlgebraElement()) == "0"


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
        assert parse_element(str(x), ctx) == x


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


def test_basis_key_contract():
    m = IndexPair(1, -2)
    gen = BasisL(m)
    assert repr(gen) == "BasisL(m=IndexPair(m1=1, m2=-2))"
    assert hash(gen) == hash((m,)) == hash(((1, -2),))
    assert gen == BasisL(IndexPair(1, -2)) and gen != BasisL(IndexPair(-2, 1))
    assert gen.m is m
    with pytest.raises(AttributeError):
        gen.m = IndexPair(0, 0)
    with pytest.raises(AttributeError):
        gen.extra = 1


def test_element_keys_are_generators():
    rng = SplitMix64(26)
    ctx = AlgebraContext(Fraction(5, 7))
    for _ in range(20):
        x, y = sample_element(rng), sample_element(rng)
        for element in (x, y, bracket(x, y, ctx), jacobi_defect(x, y, L(1, 1), ctx)):
            for gen in element.terms():
                assert gen is D2 or (type(gen) is BasisL and type(gen.m) is IndexPair)
