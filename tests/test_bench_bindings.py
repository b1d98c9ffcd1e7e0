"""The benchmark's tracer and timing ticks look blockmod functions up by name.

``perfbench/layers.py`` wraps every name in ``LAYERS`` and
``perfbench/child.py`` every name in ``TICKS``; both raise when a name is
missing.  This test only reads those tables, so a renamed or deleted
function shows up here instead of as a broken ``--trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
