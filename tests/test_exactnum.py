from fractions import Fraction

import pytest

from blockmod.blockalg import AlgebraContext, AlgebraElement, parse_element
from blockmod.exactnum import PARSE_ECHO_WIDTH, ParseError, parse_rational
from blockmod.poly import IndexPair, Poly2, parse_poly1, parse_poly2
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


def test_parse_errors():
    for bad in ["", "a", "1/2/3", "1.5", "2/-3", "--3"]:
        with pytest.raises(ParseError):
            parse_rational(bad)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rational("1/0")


WIDE = "9" * 3001


@pytest.mark.parametrize("parse, text", [
    (parse_rational, WIDE),                       # over the literal ceiling
    (parse_rational, "1 " + WIDE),                # a long unexpected token
    (parse_rational, "1/" + WIDE),
    (parse_poly2, "d1^" + WIDE),                  # exponents obey the literal ceiling
    (parse_poly2, "d1 + " + "x" * 3001),          # a long unknown variable
    (parse_poly1, "t + " * 1000 + "$"),           # an error at the far end
    (lambda text: parse_element(text, AlgebraContext(Fraction(1))), f"L({WIDE},0)"),
    (lambda text: parse_element(text, AlgebraContext(Fraction(1))), "M" * 3001),
])
def test_parse_errors_echo_a_bounded_excerpt(parse, text):
    with pytest.raises(ParseError) as info:
        parse(text)
    message = str(info.value)
    # the message template, the input and any echoed token are clipped to
    # PARSE_ECHO_WIDTH characters each; the whole text is 3,001+ characters
    assert len(message) <= 80 + 2 * (PARSE_ECHO_WIDTH + 8)
    assert f"at position {info.value.position} in " in message


def test_parse_error_excerpt_surrounds_the_position():
    text = "d1 + " * 20 + "$" + " + d2" * 20
    with pytest.raises(ParseError) as info:
        parse_poly2(text)
    assert info.value.position == 100
    shown = text[100 - PARSE_ECHO_WIDTH // 2:100 + PARSE_ECHO_WIDTH // 2]
    assert str(info.value) == f"unexpected character '$' (at position 100 in ...{shown!r}...)"
    # a text within the width is echoed whole, as before
    with pytest.raises(ParseError, match=r"zero denominator \(at position 2 in '1/0'\)$"):
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
