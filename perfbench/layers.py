"""Outside-in layer tracing for the blockmod benchmark.

The benchmark measures blockmod without editing it: this module wraps
layer functions from the outside and counts calls, inclusive time
(``busy_s``) and self time (``self_s``: inclusive time minus the time
spent in wrapped callees).  A ``from``-import copies a reference, and a
class may bind one function under two names (``__radd__ = __add__``), so
every wrapper replaces *every* binding of the original function that a
blockmod module or class holds; otherwise calls through the copy would
go uncounted.

Metric names follow ``<module>.<function>.<stat>``.  Several originals
may feed one layer (the four ``replay_*`` functions are
``identities.replay``); a layer's inclusive time counts only its
outermost activation, so nested or recursive calls are not double
counted.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer, module, qualified names).  Each layer reports calls, busy_s and
# self_s; the hooks below add layer-specific counters.
LAYERS = (
    ("closure.closure", "closure", ("closure",)),
    ("closure.insert", "closure", ("_IntEchelon.insert",)),
    ("closure.act_image", "closure", ("_ActTable.image",)),
    ("closure.span_insert", "closure", ("span_insert",)),
    ("poly.shifted", "poly", ("Poly2.shifted", "Poly1.shifted")),
    ("poly.mul", "poly", ("Poly2.__mul__", "Poly1.__mul__")),
    ("poly.add", "poly", ("Poly2.__add__", "Poly1.__add__")),
    ("omega.module_axiom_defect", "omega", ("module_axiom_defect",)),
    ("omega.act", "omega", ("act",)),
    ("omega.iso_check", "omega", ("iso_check",)),
    ("omega.witt_restrict", "omega", ("witt_restrict",)),
    ("blockalg.jacobi_defect", "blockalg", ("jacobi_defect",)),
    ("blockalg.bracket", "blockalg", ("bracket",)),
    ("identities.replay", "identities",
     ("replay_commutator", "replay_pair_difference", "replay_separated_form",
      "replay_coefficient_identities")),
    ("identities.difference", "identities", ("difference_solve", "difference_check")),
    ("suites.jacobi_suite", "suites", ("jacobi_suite",)),
    ("suites.module_axiom_suite", "suites", ("module_axiom_suite",)),
    ("suites.variant_control_suite", "suites", ("variant_control_suite",)),
    ("suites.closure_dichotomy_suite", "suites", ("closure_dichotomy_suite",)),
    ("suites.witt_restriction_suite", "suites", ("witt_restriction_suite",)),
    ("suites.replay_suite", "suites", ("replay_suite",)),
    ("suites.commutator_variant_control", "suites", ("commutator_variant_control",)),
    ("suites.iso_rigidity_suite", "suites", ("iso_rigidity_suite",)),
    ("suites.difference_equation_suite", "suites", ("difference_equation_suite",)),
    ("suites.full_report", "suites", ("full_report",)),
    ("cli.run", "cli", ("run",)),
    ("cli.report_to_json", "cli", ("report_to_json",)),
)

BLOCKMOD_MODULES = ("poly", "blockalg", "omega", "closure", "identities", "suites", "cli")


def blockmod_modules():
    return {name: importlib.import_module(f"blockmod.{name}") for name in BLOCKMOD_MODULES}


def resolve(module, qualname: str):
    owner = module
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def patch_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Replace every binding of ``original`` in blockmod's modules and classes.

    Returns the replaced bindings as ``(owner, name, original)`` for
    :func:`restore`.
    """
    patches = []
    for module in blockmod_modules().values():
        owners = [module] + [value for value in vars(module).values()
                             if isinstance(value, type) and value.__module__ == module.__name__]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, name, replacement)
                    patches.append((owner, name, original))
    return patches


def restore(patches) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


# Counters beyond calls and time, and the hooks that update them from a result.
COUNTERS = {"closure.insert": ("added", "peak_bits"), "poly.shifted": ("terms",)}


def _insert_hook(counters: dict[str, int], result) -> None:
    if result is not None:
        counters["added"] += 1
        bits = max(abs(x).bit_length() for x in result[1])
        counters["peak_bits"] = max(counters["peak_bits"], bits)


def _shifted_hook(counters: dict[str, int], result) -> None:
    counters["terms"] += len(result.terms())


HOOKS = {"closure.insert": _insert_hook, "poly.shifted": _shifted_hook}


class Layer:
    __slots__ = ("calls", "busy", "self_time", "depth", "counters")

    def __init__(self, counters=()):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.counters = dict.fromkeys(counters, 0)


class Tracer:
    """Wraps every layer in :data:`LAYERS`; one instance per process."""

    def __init__(self):
        self.layers = {name: Layer(COUNTERS.get(name, ())) for name, _, _ in LAYERS}
        self._stack: list[float] = []      # time spent in wrapped callees, per frame
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = blockmod_modules()
        for name, module_name, qualnames in LAYERS:
            for qualname in qualnames:
                original = resolve(modules[module_name], qualname)
                wrapper = self._wrap(original, self.layers[name], HOOKS.get(name))
                patches = patch_everywhere(original, wrapper)
                if not patches:
                    raise RuntimeError(f"no binding of blockmod.{module_name}.{qualname}")
                self._patches += patches

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    def _wrap(self, original, layer: Layer, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            layer.calls += 1
            layer.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layer.self_time += elapsed - stack.pop()
                layer.depth -= 1
                if layer.depth == 0:
                    layer.busy += elapsed
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(layer.counters, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_s"] = layer.busy
            out[f"{name}.self_s"] = layer.self_time
            for counter, value in layer.counters.items():
                out[f"{name}.{counter}"] = value
        insert = self.layers["closure.insert"]
        out["closure.insert.added_ratio"] = (
            insert.counters["added"] / insert.calls if insert.calls else 0.0)
        return out

