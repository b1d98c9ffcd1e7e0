"""Property-based tests: generated inputs instead of listed cases.

Runs only where ``hypothesis`` is installed, derandomized so that the
suite stays deterministic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blockmod.blockalg import D2, AlgebraContext, AlgebraElement, BasisL, parse_element
from blockmod.closure import SubspaceBasis
from blockmod.poly import IndexPair, Poly2, parse_poly2

from oracles import CheckedEchelon, rational_span_insert

ENTRY_BOUND = 1 << 256
small = st.integers(-3, 3)
large = st.integers(-ENTRY_BOUND, ENTRY_BOUND)
entry = st.one_of(st.just(0), small, large)

# zero, small and 300-bit rationals, well inside the literal and print ceilings
coefficient = st.builds(Fraction, st.one_of(st.just(0), small, st.integers(-(1 << 300), 1 << 300)),
                        st.one_of(st.integers(1, 9), st.integers(1, 1 << 300)))
index = st.builds(IndexPair, st.integers(-1000, 1000), st.integers(-1000, 1000))
generator = st.one_of(st.just(D2), st.builds(BasisL, index))


@st.composite
def insert_streams(draw):
    """A dimension 1..12 and a stream of rows: fresh rows, and integer
    combinations of the rows the stream has inserted so far (in the span)."""
    dim = draw(st.integers(1, 12))
    fresh = st.lists(entry, min_size=dim, max_size=dim)
    combination = st.lists(st.tuples(st.integers(0, 31), st.one_of(small, large)),
                           min_size=1, max_size=3)
    ops = draw(st.lists(st.one_of(fresh.map(lambda row: ("fresh", row)),
                                  combination.map(lambda terms: ("combination", terms))),
                        min_size=1, max_size=16))
    return dim, ops


def as_poly(row):
    """Column r as the monomial d1^r: graded-lex order then ranks columns as the echelon does."""
    return Poly2({(r, 0): c for r, c in enumerate(row) if c})


@hypothesis.settings(derandomize=True, database=None, max_examples=120, deadline=None)
@hypothesis.given(insert_streams())
def test_int_echelon_agrees_with_both_oracles_after_every_insert(stream):
    dim, ops = stream
    echelon = CheckedEchelon(dim)       # the fraction-free oracle and the invariants
    basis = SubspaceBasis((), dim - 1)
    inserted = []
    for kind, data in ops:
        if kind == "fresh":
            row = data
        else:
            row = [0] * dim
            for index, c in data:
                if inserted:
                    row = [x + c * y for x, y in zip(row, inserted[index % len(inserted)])]
        inserted.append(list(row))
        stored = echelon.insert(row)
        before, basis = basis, rational_span_insert(basis, as_poly(row))
        assert (stored is None) == (basis is before)
        monic = tuple(as_poly([Fraction(x, r[p]) for x in r]) for p, r in echelon.rows)
        assert monic == basis.vectors
    assert echelon.added == basis.dimension <= dim


@hypothesis.settings(derandomize=True, database=None, max_examples=120, deadline=None)
@hypothesis.given(st.dictionaries(generator, coefficient, max_size=6),
                  st.fractions().filter(bool))
@hypothesis.example({}, Fraction(1))
@hypothesis.example({D2: Fraction(0)}, Fraction(-2, 3))
def test_element_print_parse_round_trip(terms, q):
    # no terms, or only zero coefficients, give the zero element, printed as 0
    x = AlgebraElement(terms)
    assert parse_element(x.format(), AlgebraContext(q)) == x


@hypothesis.settings(derandomize=True, database=None, max_examples=120, deadline=None)
@hypothesis.given(st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                                  coefficient, max_size=8))
@hypothesis.example({})
def test_poly2_print_parse_round_trip(terms):
    f = Poly2(terms)
    assert parse_poly2(str(f)) == f
