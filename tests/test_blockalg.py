import itertools
from fractions import Fraction

import pytest

from blockmod import blockalg, suites
from blockmod.blockalg import (D2, AlgebraContext, AlgebraElement, BasisL, ConstantTable,
                               box_generators, bracket, jacobi_defect, parse_element,
                               structure_constant)
from blockmod.poly import IndexPair, ParseError, index_box
from blockmod.prng import SplitMix64
from blockmod.suites import ACCEPTANCE_Q_VALUES

from oracles import generator_jacobi_defect

ORACLE_Q_VALUES = (*ACCEPTANCE_Q_VALUES, Fraction(-1, 3))


def L(m1, m2):
    return AlgebraElement.basis(IndexPair(m1, m2))


def G(m1, m2):
    return BasisL(IndexPair(m1, m2))


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
    # non-unit coefficients on one generator each: one term pair, at most
    # one term out
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


def element(gen):
    return AlgebraElement({gen: 1})


def table_defects(ctx, radius):
    """(generator triple, kernel defect) for every ordered triple of the radius-R
    table, in ``itertools.product`` order; the table reads the constant as it
    is patched now."""
    table = ConstantTable(ctx, radius)
    gens = table.generators
    for ijk in itertools.product(range(len(gens)), repeat=3):
        yield tuple(gens[i] for i in ijk), jacobi_defect(*ijk, table)


def test_constant_table_index_proof():
    # constants[rows[i] + cols[j] + cols[k]] is b*c(m, n + k) for m, n, k at
    # positions i, j, k of the box, and constants[rows[i] + cols[k]] is
    # b*c(m, k): the column of a sum is the sum of the columns
    for radius in (0, 1, 2):
        box = index_box(radius)
        for q in (Fraction(5, 7), Fraction(-2)):
            a, b = q.numerator, q.denominator
            table = ConstantTable(AlgebraContext(q), radius)
            assert table.generators == box_generators(radius) and table.den == b
            assert len(table.constants) == (2 * radius + 1) ** 2 * (4 * radius + 1) ** 2
            for i, m in enumerate(box):
                for j, n in enumerate(box):
                    assert table.constants[table.rows[i] + table.cols[j]] == \
                        structure_constant(m, n, a, b)
                    for k, k_ in enumerate(box):
                        assert table.constants[table.rows[i] + table.cols[j] + table.cols[k]] \
                            == structure_constant(m, n + k_, a, b)


def test_jacobi_defect_matches_three_bracket_sum_on_the_box(monkeypatch):
    # with the true constant every defect is 0 (criterion 01 checks that);
    # the skewed one gives nonzero defects, so every generator triple of the
    # radius-1 table, with D2 in each place, is compared with the reference's
    # three brackets and with the per-triple oracle on real values
    skewed_constant(monkeypatch)
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        nonzero = set()
        for triple, defect in table_defects(ctx, 1):
            assert defect.terms() == reference_jacobi_defect(
                *map(element, triple), ctx, skew).terms(), triple
            assert defect == generator_jacobi_defect(*triple, ctx), triple
            if defect:
                nonzero.add(tuple(gen is D2 for gen in triple))
        # all-L triples and the three rotations of one D2 give nonzero defects
        assert nonzero == {(False, False, False), (True, False, False),
                           (False, True, False), (False, False, True)}


def generator_sum(x, y, z, ctx):
    """The sum of a*b*c * jacobi_defect(u, v, w) over the terms a*u of x,
    b*v of y and c*w of z: the defect of x, y, z by trilinearity."""
    total = AlgebraElement()
    for (u, a), (v, b), (w, c) in itertools.product(x.terms().items(), y.terms().items(),
                                                    z.terms().items()):
        total = total + a * b * c * generator_jacobi_defect(u, v, w, ctx)
    return total


@pytest.mark.parametrize("skewed", [False, True])
def test_jacobi_defect_matches_three_bracket_sum_on_multi_term_elements(monkeypatch, skewed):
    # the generator defects, weighted by the coefficients, add up to the
    # reference's three brackets on multi-term elements: the trilinearity
    # that lets the sweeps check generators only; the skewed constant makes
    # the terms nonzero, so they meet and cancel on shared generators
    if skewed:
        skewed_constant(monkeypatch)
    rng = SplitMix64(25)
    # two generator triples land on L(m+n+k') when n + k' = n' + k
    m, n, n_, k = IndexPair(1, -1), IndexPair(0, 2), IndexPair(2, 1), IndexPair(-1, 1)
    k_ = n_ + k - n
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)
        cases = [(sample_element(rng), sample_element(rng), sample_element(rng))
                 for _ in range(15)]
        cases.append((L(*m) + Fraction(3, 4) * AlgebraElement.derivation(), 5 * L(*n),
                      L(*k) + L(*(m + k))))
        # scaled so that the two land with opposite coefficients and cancel
        j1 = generator_jacobi_defect(BasisL(m), BasisL(n), BasisL(k_), ctx).terms()
        j2 = generator_jacobi_defect(BasisL(m), BasisL(n_), BasisL(k), ctx).terms()
        ratio = j1[BasisL(m + n + k_)] / j2[BasisL(m + n + k_)] if skewed else 1
        cases.append((L(*m), L(*n) + ratio * L(*n_), L(*k) - L(*k_)))
        for x, y, z in cases:
            defect = generator_sum(x, y, z, ctx)
            assert defect == reference_jacobi_defect(x, y, z, ctx, skew if skewed else None)
            assert bool(defect) == skewed
        # the last case's two contributions on L(m+n+k') cancel
        assert BasisL(m + n + k_) not in defect.terms()


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
    # every generator triple of the radius-1 table in which an inner bracket
    # vanishes, under both constants: the defect matches the reference, and
    # a zero defect is the empty shared zero element
    if skewed:
        skewed_constant(monkeypatch)
    for q in ORACLE_Q_VALUES:
        ctx = AlgebraContext(q)

        def br(u, v):
            return reference_bracket(u, v, ctx, skew if skewed else None)

        all_vanish = some_vanish = 0
        for triple, defect in table_defects(ctx, 1):
            x, y, z = map(element, triple)
            inner = [br(y, z), br(z, x), br(x, y)]
            if all(inner):
                continue
            assert defect.terms() == reference_jacobi_defect(
                x, y, z, ctx, skew if skewed else None).terms()
            if not defect:
                assert defect is blockalg._ZERO and (defect._nums, defect._den) == ({}, 1)
            some_vanish += 1
            all_vanish += not any(inner)
        assert all_vanish > 10 and some_vanish > all_vanish


def positions(table, *gens):
    return [table.generators.index(gen) for gen in gens]


def test_jacobi_defect_zero_is_shared_and_stays_empty():
    # a vanishing defect is one shared zero element, not a fresh one; no
    # sum, negation or scaling may write into it
    ctx = AlgebraContext(Fraction(5, 7))
    table = ConstantTable(ctx, 2)
    d2 = AlgebraElement.derivation()
    zero = jacobi_defect(*positions(table, G(1, 0), G(0, 1), G(1, 1)), table)
    assert zero == AlgebraElement() and (zero._nums, zero._den) == ({}, 1)
    assert jacobi_defect(*positions(table, D2, D2, G(2, 1)), table) is zero
    assert jacobi_defect(*positions(table, G(1, 0), D2, G(0, 1)), table) is zero
    assert jacobi_defect(*positions(table, D2, D2, D2), table) is zero
    [check] = suites.jacobi_suite([Fraction(5, 7)], radius=1)
    assert check.status == "pass"
    x = Fraction(3, 2) * L(2, -1) - d2
    assert zero + x == x and x + zero == x and zero - x == -x and x - zero == x
    assert zero + zero == 0 and -zero == 0 and zero * Fraction(-4, 9) == 0
    assert 3 * zero == 0 and zero * 1 == 0 and zero * 0 == 0
    assert zero + x + zero - x == 0 and (zero + x) * 2 == 2 * x
    assert (zero._nums, zero._den) == ({}, 1)
    assert jacobi_defect(*positions(table, G(1, 0), G(0, 1), G(1, 1)), table) is zero
    assert parse_element("0", ctx) is zero


@pytest.mark.parametrize("bad", [L(1, 2), G(1, 2), "junk", 1.0])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_jacobi_defect_rejects_a_non_generator_argument(bad, position):
    # the oracle takes generators: an element or any other value is neither
    # BasisL nor D2, beside two L's or an L and D2; the kernel takes positions
    # in its table, and any non-int beside the same pairs raises too
    ctx = AlgebraContext(Fraction(5, 7))
    table = ConstantTable(ctx, 2)
    for others in ([G(1, 1), G(2, 1)], [G(1, 1), D2], [D2, D2]):
        triple = others[:position] + [bad] + others[position:]
        if type(bad) is not BasisL:
            with pytest.raises(TypeError, match="BasisL or D2"):
                generator_jacobi_defect(*triple, ctx)
        at = positions(table, *others)
        with pytest.raises(TypeError):
            jacobi_defect(*(at[:position] + [bad] + at[position:]), table)


@pytest.mark.parametrize("skewed", [False, True])
def test_jacobi_defect_reads_every_position_a_list_accepts(monkeypatch, skewed):
    # rows and cols hold None at D2's slot, so position p means
    # table.generators[p] for negative p too: -1 is D2 and -count is the
    # first L; the skewed constant makes the defects nonzero, so a wrong
    # row read shows
    if skewed:
        skewed_constant(monkeypatch)
    for q in (Fraction(5, 7), Fraction(-2)):
        ctx = AlgebraContext(q)
        table = ConstantTable(ctx, 1)
        gens = table.generators
        count = len(gens)
        assert table.rows[-1] is None and table.cols[-1] is None
        assert len(table.rows) == len(table.cols) == count
        nonzero = 0
        for ijk in itertools.product(range(-count, count), repeat=3):
            defect = jacobi_defect(*ijk, table)
            assert defect == generator_jacobi_defect(*(gens[p] for p in ijk), ctx), ijk
            nonzero += bool(defect)
        assert bool(nonzero) == skewed
        with pytest.raises(IndexError):
            jacobi_defect(0, count, 0, table)


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
    table = ConstantTable(AlgebraContext(Fraction(1)), 2)
    assert jacobi_defect(*positions(table, D2, G(1, 0), G(0, 1)), table) == 0
    assert jacobi_defect(*positions(table, G(1, 0), G(1, 0), G(2, 2)), table) == 0


def test_jacobi_small_grid():
    for q in (Fraction(5, 7), Fraction(2)):
        table = ConstantTable(AlgebraContext(q), 2)
        count = len(table.generators)
        for i in range(0, count, 5):
            for j in range(0, count, 3):
                for k in range(0, count, 4):
                    assert jacobi_defect(i, j, k, table) == 0


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
    # a bare 0 term is the zero element, as it prints
    for zero in ("0", "-0", "0/3", "0 - 0"):
        assert parse_element(zero, ctx) == AlgebraElement()
    assert parse_element("0 + L(1,0) - 0", ctx) == L(1, 0)


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
    for bad in ["", "L(1)", "L(1,2", "3*", "D3", "L(a,b)", "2 L(1,0)", "1/0*D2",
                "1", "-2/3", "0 0", "0/0", "L(1,0) + 1"]:
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
        defects = [generator_jacobi_defect(u, v, G(1, 1), ctx)
                   for u in x.terms() for v in y.terms()]
        for value in (x, y, bracket(x, y, ctx), *defects):
            for gen in value.terms():
                assert gen is D2 or (type(gen) is BasisL and type(gen.m) is IndexPair)
