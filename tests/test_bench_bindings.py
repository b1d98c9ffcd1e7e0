"""The benchmark's tracer and timing ticks look blockmod functions up by name.

``perfbench/layers.py`` wraps every name in ``LAYERS`` and
``perfbench/child.py`` every name in ``TICKS``; both raise when a name is
missing.  This test only reads those tables, so a renamed or deleted
function shows up here instead of as a broken ``--trace 1`` run.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from blockmod import blockalg, suites
from blockmod.blockalg import AlgebraContext, AlgebraElement
from blockmod.poly import IndexPair

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


def test_jacobi_defect_makes_six_bracket_calls(monkeypatch):
    # perfbench/test_fidelity.py pins blockalg.bracket.calls == 6 * triples;
    # the tracer counts calls through the module global, as patched here
    from fractions import Fraction

    from blockmod import blockalg, suites
    from blockmod.blockalg import AlgebraContext, AlgebraElement
    from blockmod.poly import IndexPair

    calls = []
    bracket = blockalg.bracket

    def counting(x, y, ctx):
        calls.append(1)
        return bracket(x, y, ctx)

    monkeypatch.setattr(blockalg, "bracket", counting)
    ctx = AlgebraContext(Fraction(5, 7))
    d2 = AlgebraElement.derivation()
    x = AlgebraElement.basis(IndexPair(1, -1))
    y = Fraction(2, 3) * AlgebraElement.basis(IndexPair(0, 2)) - d2
    for triple in [(x, x, x), (x, y, d2), (y, y, y), (d2, d2, x), (AlgebraElement(), x, y)]:
        calls.clear()
        blockalg.jacobi_defect(*triple, ctx)
        assert len(calls) == 6
    calls.clear()
    [check] = suites.jacobi_suite([Fraction(5, 7)], radius=1)
    assert check.status == "pass" and check.witness == "1000 triples, all defects zero"
    assert len(calls) == 6 * 1000
