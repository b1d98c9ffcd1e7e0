"""The benchmark's tracer and timing ticks look blockmod functions up by name.

``perfbench/layers.py`` wraps every name in ``LAYERS`` and
``perfbench/child.py`` every name in ``TICKS``; both raise when a name is
missing.  This test only reads those tables, so a renamed or deleted
function shows up here instead of as a broken ``--trace 1`` run.
"""

import importlib
import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from blockmod import blockalg, identities, omega, poly, suites
from blockmod.blockalg import AlgebraContext
from blockmod.omega import ParamSet
from blockmod.poly import IndexPair, index_box

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
child = _load("child")

BINDINGS = sorted({(module, qualname)
                   for _, module, qualnames in layers.LAYERS for qualname in qualnames}
                  | set(child.TICKS))


@pytest.mark.parametrize("module, qualname", BINDINGS)
def test_benchmark_binding_resolves(module, qualname):
    owner = importlib.import_module(f"blockmod.{module}")
    for part in qualname.split("."):
        assert hasattr(owner, part), f"blockmod.{module}.{qualname} is missing"
        owner = getattr(owner, part)
    assert callable(owner)


def test_benchmark_bindings_are_distinct_functions():
    # the tracer replaces every binding of each named function; two names that
    # resolve to one object (say a method both carriers inherit) would be wrapped
    # twice, and every call would count twice
    owners = {}
    for module, qualname in BINDINGS:
        original = layers.resolve(importlib.import_module(f"blockmod.{module}"), qualname)
        owners.setdefault(id(original), []).append(f"{module}.{qualname}")
    shared = [names for names in owners.values() if len(names) > 1]
    assert not shared, f"names bound to one function: {shared}"


@pytest.mark.parametrize("module, qualname",
                         [binding for binding in BINDINGS if "." in binding[1]])
def test_benchmark_methods_have_their_own_body(module, qualname):
    # a method inherited from a shared base would be one function under two
    # class names (see above), and calls on the base's other subclasses would
    # be counted too: each class named in the tables defines the method
    # itself, and no other blockmod class binds that function
    owner = importlib.import_module(f"blockmod.{module}")
    *classes, method = qualname.split(".")
    for part in classes:
        owner = getattr(owner, part)
    assert method in vars(owner), f"blockmod.{module}.{qualname} is inherited"
    original = vars(owner)[method]
    holders = {value for mod in layers.blockmod_modules().values() for value in vars(mod).values()
               if isinstance(value, type) and any(v is original for v in vars(value).values())}
    assert holders == {owner}, f"blockmod.{module}.{qualname} is bound in {holders}"


def test_constant_table_reads_each_constant_once_and_the_kernel_reads_none(monkeypatch):
    # building the table of one q reads blockalg.structure_constant through
    # the module global (where the skewed-constant tests of test_blockalg.py
    # patch it) once per (u, v), u in the radius-R box and v in the
    # radius-2R box; jacobi_defect then reads only the table, and calls no
    # bracket
    calls = []
    constant = blockalg.structure_constant

    def counting(m, n, a, b):
        calls.append(1)
        return constant(m, n, a, b)

    def no_bracket(x, y, ctx):
        raise AssertionError("jacobi_defect called bracket")

    monkeypatch.setattr(blockalg, "structure_constant", counting)
    monkeypatch.setattr(blockalg, "bracket", no_bracket)
    ctx = AlgebraContext(Fraction(5, 7))
    for radius in (0, 1, 2):
        calls.clear()
        table = blockalg.ConstantTable(ctx, radius)
        assert len(calls) == (2 * radius + 1) ** 2 * (4 * radius + 1) ** 2
        calls.clear()
        for triple in itertools.product(range(len(table.generators)), repeat=3):
            blockalg.jacobi_defect(*triple, table)
        assert calls == []
    calls.clear()
    checks = suites.jacobi_suite([Fraction(5, 7), Fraction(-2)], radius=1)
    assert [c.witness for c in checks] == ["1000 triples, all defects zero"] * 2
    assert len(calls) == 2 * 9 * 25


def test_image_table_builds_each_image_once_and_the_kernel_builds_none(monkeypatch):
    # building one omega.ImageTable calls the image once per index of the
    # radius-2R box, in box order; the rest of the scan calls no image,
    # builds no generator image, adds no IndexPair and composes no action
    # or bracket: every case reads the table's integer carriers
    p = ParamSet(Fraction(5, 7), Fraction(2, 3), -3, Fraction(1, 2))
    polys = suites.sample_axiom_polys(3, count=2)
    images = {m: omega.action_on_one(m, p) for m in index_box(4)}
    built = []

    def counted_image(m, params):
        built.append(m)
        return images[m]

    def forbidden(*args, **kwargs):
        raise AssertionError("the axiom scan built an image, an index or a composition")

    for radius in (0, 1, 2):
        built.clear()
        omega.ImageTable(p, radius, counted_image)
        assert built == index_box(2 * radius)
        built.clear()
        with monkeypatch.context() as patched:
            for owner, name in ((omega, "generator_image"), (omega, "action_on_one"),
                                (IndexPair, "__add__"), (omega, "act"), (blockalg, "bracket")):
                patched.setattr(owner, name, forbidden)
            count, failure = suites.axiom_grid_scan(p, polys, radius, counted_image)
        assert (count, failure) == (((2 * radius + 1) ** 2 + 1) ** 2 * len(polys), None)
        assert built == index_box(2 * radius)


def test_axiom_suite_calls_the_kernel_once_per_case_through_the_module_global(monkeypatch):
    # the benchmark counts module-axiom cases, and ticks its clock, at
    # omega.module_axiom_defect: the suite calls it through the module global
    # once per case, ((2R+1)^2 + 1)^2 * len(polys) per parameter set, on
    # positions into that set's one table; at the module-axioms workload's
    # scale (radius 2, three parameter sets, one poly) that is 676 per set
    tables = []
    kernel = omega.module_axiom_defect

    def counted(i, j, f, table):
        tables.append(table)
        return kernel(i, j, f, table)

    monkeypatch.setattr(omega, "module_axiom_defect", counted)
    params = suites.acceptance_param_sets(2)
    for radius, count in ((1, 2), (2, 1)):
        tables.clear()
        polys = suites.sample_axiom_polys(3, count=count)
        checks = suites.module_axiom_suite(params, polys, radius=radius)
        assert all(c.ok for c in checks)
        per_set = ((2 * radius + 1) ** 2 + 1) ** 2 * count
        assert [tables.count(t) for t in dict.fromkeys(tables)] == [per_set] * len(params)
    assert len(tables) == 3 * 676


def test_jacobi_suite_calls_the_kernel_once_per_triple_through_the_module_global(monkeypatch):
    # the benchmark counts Jacobi triples, and ticks its clock, at
    # blockalg.jacobi_defect: the suite calls it through the module global
    # once per ordered triple, ((2R+1)^2 + 1)^3 per q; at radius 2 over the
    # five acceptance q that is the count the jacobi workload gates on
    calls = []
    kernel = blockalg.jacobi_defect

    def counted(*args):
        calls.append(args[:3])
        return kernel(*args)

    monkeypatch.setattr(blockalg, "jacobi_defect", counted)
    for radius in (0, 1, 2):
        calls.clear()
        checks = suites.jacobi_suite(suites.ACCEPTANCE_Q_VALUES, radius=radius)
        assert all(c.ok for c in checks)
        per_q = ((2 * radius + 1) ** 2 + 1) ** 3
        assert len(calls) == len(suites.ACCEPTANCE_Q_VALUES) * per_q
        assert calls[:per_q] == list(itertools.product(range((2 * radius + 1) ** 2 + 1),
                                                       repeat=3))
    assert len(calls) == 87_880


def test_clean_jacobi_suite_takes_no_truth_test_of_a_term_map(monkeypatch):
    # every zero that jacobi_defect returns is the shared zero, which
    # first_defect tests by identity: a clean sweep makes no Python-level
    # _TermMap.__bool__ call, where a per-triple truth test would make G^3
    truth_tests = []
    truth = poly._TermMap.__bool__

    def counted(self):
        truth_tests.append(1)
        return truth(self)

    monkeypatch.setattr(poly._TermMap, "__bool__", counted)
    assert not blockalg.AlgebraElement() and truth_tests == [1]
    truth_tests.clear()
    checks = suites.jacobi_suite([Fraction(5, 7), Fraction(-2)], radius=1)
    assert [c.witness for c in checks] == ["1000 triples, all defects zero"] * 2
    assert truth_tests == []


def test_clean_axiom_scan_and_commutator_replay_take_no_truth_test_of_a_term_map(monkeypatch):
    # every zero that module_axiom_defect and commutator_defect return is
    # omega._ZERO, which the axiom scan and the commutator replay test by
    # identity: once the polynomials are sampled, a clean radius-2 axiom
    # suite and the commutator replay make no Python-level _TermMap.__bool__
    # call, where a truth test per case would make one or two
    truth_tests = []
    truth = poly._TermMap.__bool__

    def counted(self):
        truth_tests.append(1)
        return truth(self)

    params = suites.acceptance_param_sets(2)
    polys = suites.sample_axiom_polys(3, count=1)
    monkeypatch.setattr(poly._TermMap, "__bool__", counted)
    checks = suites.module_axiom_suite(params, polys, radius=2)
    assert [c.witness.split(";")[0] for c in checks] == \
        ["676 (pair, poly) cases, all defects zero"] * 3
    assert truth_tests == []

    scan, replays = suites.first_defect, []

    def counted_scan(kernel, cases, zero=None):
        before = len(truth_tests)
        count, failure = scan(kernel, cases, zero)
        if kernel is identities.replay_commutator:
            replays.append((count, failure, len(truth_tests) - before))
        return count, failure

    monkeypatch.setattr(suites, "first_defect", counted_scan)
    suites.replay_suite(params, rng_seed=8, radius=2, pair_cap=40)
    assert replays == [(40 + 3 * len(suites.exceptional_indices(p)), None, 0) for p in params]


def test_coefficient_replay_makes_no_commutator_replay_call(monkeypatch):
    # the four replay_* functions share the layer identities.replay: the
    # coefficient replay builds its one commutator defect through
    # omega.commutator_defect, never through replay_commutator, so the
    # layer's calls count each coefficient case once
    built = []
    delta = identities.commutator_defect

    def counted(*args, **kwargs):
        built.append(args[:2])
        return delta(*args, **kwargs)

    def no_replay(*args, **kwargs):
        raise AssertionError("the coefficient replay called replay_commutator")

    monkeypatch.setattr(identities, "commutator_defect", counted)
    monkeypatch.setattr(identities, "replay_commutator", no_replay)
    p = ParamSet(Fraction(5, 7), 2, 3, Fraction(1, 2))
    pairs = [(IndexPair(2, -1), IndexPair(-1, 3)), (IndexPair(0, 1), IndexPair(1, 0))]
    for m, n in pairs:
        assert identities.replay_coefficient_identities(m, n, p) == (0, 0, 0)
    assert built == pairs


def test_replay_suite_builds_each_image_and_paired_product_once(monkeypatch):
    # at the quick report's replay scale, one replay_suite call builds each
    # generator image once per index and parameter set (80 images, where
    # rebuilding them per case made 722) and each paired product once per
    # single index, for both single-index replays (53, against 106); the
    # benchmark's identities.replay layer still sees one kernel call per case
    built, products, calls = [], [], {}
    image, product = omega.generator_image, identities.paired_product

    def counted_image(m, p, variant=False):
        built.append((m, p))
        return image(m, p, variant)

    def counted_product(m, p, *args):
        products.append((m, p))
        return product(m, p, *args)

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)
        return call

    monkeypatch.setattr(omega, "generator_image", counted_image)
    monkeypatch.setattr(identities, "paired_product", counted_product)
    anchors = {"replay_commutator": "commutator-replay",
               "replay_pair_difference": "pair-difference-replay",
               "replay_separated_form": "separated-form-replay",
               "replay_coefficient_identities": "coefficient-replay"}
    for name in anchors:
        calls[name] = 0
        monkeypatch.setattr(identities, name, counted(name, getattr(identities, name)))
    params = suites.acceptance_param_sets(7)[:2]
    checks = suites.replay_suite(params, rng_seed=8, radius=2, pair_cap=40)
    assert all(c.ok for c in checks)
    assert len(built) == len(set(built)) == 80
    singles = [(m, p) for p in params for m in index_box(2) + suites.exceptional_indices(p)]
    assert products == singles and len(products) == 53
    # each check's witness opens with the number of cases it scanned
    cases = {name: sum(int(c.witness.split()[0]) for c in checks if c.anchor == anchor)
             for name, anchor in anchors.items()}
    assert calls == cases
    assert calls["replay_commutator"] == sum(40 + 3 * len(suites.exceptional_indices(p))
                                             for p in params)

    # the isomorphism grid builds the radius-1 images of its ten points once
    # (90, against 448 when each decision built its own) and decides its
    # 100 ordered pairs with one omega.iso_check call each
    built.clear()
    decisions = []
    decide = omega.iso_check

    def counted_check(*args):
        decisions.append(args[:2])
        return decide(*args)

    monkeypatch.setattr(omega, "iso_check", counted_check)
    (check,) = suites.iso_rigidity_suite(Fraction(5, 7))
    assert check.ok
    assert len(built) == len(set(built)) <= 90
    assert len(decisions) == 100
