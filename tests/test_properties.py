"""Property-based tests: generated inputs instead of listed cases.

Runs only where ``hypothesis`` is installed, derandomized so that the
suite stays deterministic.
"""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from blockmod import cli
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


# --- command-line fuzz ------------------------------------------------------------
# Cheap subcommands only, at scales that keep one run within milliseconds:
# closure at D <= 2 and replay at radius <= 1 (both always given, so the
# larger defaults never run).  Each token is drawn from a (valid, invalid)
# pair of lists: half of the examples use valid tokens only, so that runs
# reach the library and its checks, not only the parsers.
ELEMENTS = (["L(1,0)", "D2", "3/2*L(0,1) - D2", "-L(2,-1)", "0"], ["L(1", "L(1001,0)", "x"])
POLYS = (["d1", "d1^2 + d2", "1", "0", "-2*d1*d2"], ["d1^-1", "(d1", "d3"])
TRIPLES = (["1,1,0", "1,2,1/2", "2,3,-1", "1,1,1"], ["0,1,1", "1,1", "a,b,c"])
SMALL = (["-3", "-1", "0", "1", "2", "3"], ["x", "1.5"])
SHARED = {
    "--q": (["1", "5/7", "-2", "3/2"], ["0", "1/0", "x"]),
    "--alpha": (["0", "1", "1/2", "-1/3"], ["2/0"]),
    "--lambda": (["1,1", "2,3", "-1/2,3"], ["0,1", "1"]),
    "--rng-seed": (["1", "7", "-3"], ["x"]),
}
# subcommand: (positional tokens, options always given, optional options)
CHEAP = {
    "bracket": ([ELEMENTS, ELEMENTS], {}, {}),
    "act": ([ELEMENTS, POLYS], {}, {}),
    "iso": ([], {"--left": TRIPLES, "--right": TRIPLES}, {}),
    "witt": ([], {"--i-min": SMALL, "--i-max": SMALL},
             {"--m": (["1,0", "2,3", "-1,4"], ["0,1", "1", "x,y", "1001,0"])}),
    "closure": ([], {"--seed": POLYS, "--D": (["1", "2"], ["-1", "0", "17", "x"])},
                {"--B": (["1", "2", "1000000000"], ["-1", "0"])}),
    "replay": ([], {"--radius": (["1"], ["-1", "0", "x"])},
               {"--eq": (["all", "commutator", "coefficients", "control"], ["bogus"]),
                "--pairs": (["1", "5"], ["-2", "0", "x"])}),
}
JUNK = ["--bogus", "--", "-x", "--q", "L(1,0)", "d1", "7"]


@st.composite
def cli_argv(draw):
    """A subcommand, its tokens and some shared options in any order; in a
    mixed example any token may be invalid, and then at most one token is
    dropped or one junk token inserted."""
    mixed = draw(st.booleans())

    def token(choices):
        valid, invalid = choices
        return draw(st.sampled_from(valid + invalid if mixed else valid))

    command = draw(st.sampled_from(sorted(CHEAP)))
    positionals, required, optional = CHEAP[command]
    words = [token(choices) for choices in positionals]
    options = [(flag, token(choices)) for flag, choices in required.items()]
    for flag, choices in {**optional, **SHARED}.items():
        if draw(st.booleans()):
            options.append((flag, token(choices)))
    options = draw(st.permutations(options))
    argv = [command, *words, *itertools.chain.from_iterable(options)]
    edit = draw(st.sampled_from(["none", "drop", "insert"])) if mixed else "none"
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "insert":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@hypothesis.settings(derandomize=True, database=None, max_examples=150,
                     deadline=timedelta(seconds=2))
@hypothesis.given(cli_argv())
@hypothesis.example(["replay", "--radius", "0"])            # ValueError from the library
@hypothesis.example(["witt", "--i-min", "1", "--i-max", "-1"])
@hypothesis.example(["replay", "--radius", "1", "--eq", "control", "--alpha", "1"])   # exit 1
def test_cli_exits_cleanly_on_generated_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == "" and err, argv
        return
    assert code in (0, 1) and err == "", (argv, code, err)
    report = json.loads(out)        # the whole of stdout is one JSON document
    assert list(report) == ["command", "config", "checks", "overall"]
    assert report["overall"] == ("pass" if code == 0 else "fail")
