from fractions import Fraction

import pytest

from blockmod.blockalg import AlgebraContext, AlgebraElement, parse_element
from blockmod.exactnum import ParseError, parse_rational, rat
from blockmod.poly import IndexPair, Poly2, parse_poly2
from blockmod.prng import SplitMix64


def test_textbook_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(-2, 3) * Fraction(3, 2) == -1
    assert -Fraction(4, 6) == Fraction(-2, 3)


def test_canonical_form():
    # reduced, positive denominator, zero as 0/1
    value = Fraction(2, -4)
    assert value.numerator == -1 and value.denominator == 2
    zero = Fraction(0, 5)
    assert zero.numerator == 0 and zero.denominator == 1
    assert Fraction(2, 4) == Fraction(1, 2)


def test_parse_format_round_trip():
    for text in ["0", "5", "-3", "5/6", "-22/7", "+4/6"]:
        value = parse_rational(text)
        assert parse_rational(str(value)) == value
    assert rat("5/7") == Fraction(5, 7)
    assert rat(4) == 4


def test_parse_errors():
    for bad in ["", "a", "1/2/3", "1.5", "2/-3", "--3"]:
        with pytest.raises(ParseError):
            parse_rational(bad)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rational("1/0")


LITERALS = {"0": Fraction(0), "5": Fraction(5), "-3": Fraction(-3), "5/6": Fraction(5, 6),
            "+4/6": Fraction(2, 3), "1/0": None, "1.5": None, "2/-3": None, "1/2/3": None}


@pytest.mark.parametrize("literal", list(LITERALS))
def test_one_literal_rule_for_every_grammar(literal):
    # parse_rational, the polynomial grammar and the element grammar share
    # one literal rule, so they accept and reject the same literals
    value = LITERALS[literal]
    ctx = AlgebraContext(Fraction(1))
    l00 = AlgebraElement.basis(IndexPair(0, 0))
    cases = [(lambda: parse_rational(literal), lambda v: v),
             (lambda: parse_poly2(literal), Poly2.const),
             (lambda: parse_element(literal + "*L(0,0)", ctx), lambda v: v * l00)]
    for parse, expected in cases:
        if value is None:
            with pytest.raises(ParseError):
                parse()
        else:
            assert parse() == expected(value)


def test_field_axioms_randomized():
    rng = SplitMix64(7)
    for _ in range(200):
        a = rng.fraction()
        b = rng.fraction()
        c = rng.fraction()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1
