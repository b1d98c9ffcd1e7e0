"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

Usage: child.py WORKLOAD SEED TRACED SPAWNED MODE

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s``
covers interpreter start, the blockmod import and input generation.
MODE ``setup`` stops there; MODE ``pass`` then runs the timed phase and
the correctness gate.  Both times are also given at nominal host speed,
scaled with the reference loop of ``reference.py``: the set-up by one
reference timed right after it, the timed phase segment by segment
(see :class:`reference.SpeedClock`).  The last line of standard output
is one JSON object describing the pass.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Functions at whose calls an untraced pass may close a timing segment:
# the suites, and the per-case kernels of the three kernel workloads.
TICKS = (
    ("blockalg", "jacobi_defect"),
    ("omega", "module_axiom_defect"),
    ("closure", "_IntEchelon.insert"),
) + tuple(("suites", name) for name in (
    "jacobi_suite", "module_axiom_suite", "variant_control_suite",
    "closure_dichotomy_suite", "witt_restriction_suite", "replay_suite",
    "commutator_variant_control", "iso_rigidity_suite", "difference_equation_suite"))


def install_ticks(clock) -> list:
    """Make every binding of each :data:`TICKS` function tick ``clock`` before and after.

    Returns the replaced bindings for :func:`layers.restore`.
    """
    import layers

    modules = layers.blockmod_modules()
    patches = []
    for module_name, qualname in TICKS:
        original = layers.resolve(modules[module_name], qualname)

        def ticking(*args, _original=original, **kwargs):
            clock.tick()
            try:
                return _original(*args, **kwargs)
            finally:
                clock.tick()

        replaced = layers.patch_everywhere(original, ticking)
        if not replaced:
            raise RuntimeError(f"no binding of blockmod.{module_name}.{qualname}")
        patches += replaced
    return patches


def main(argv: list[str]) -> int:
    workload, seed, traced, spawned, mode = argv
    sys.path.insert(0, str(SRC))
    import blockmod
    if Path(blockmod.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported blockmod from {blockmod.__file__}, not from {SRC}")
    import layers
    import reference
    import workloads

    spec = workloads.WORKLOADS[workload]
    inputs = spec.build(int(seed))
    setup_s = time.monotonic() - float(spawned)
    result = {"setup_s": setup_s,
              "setup_norm_s": setup_s * reference.NOMINAL_S / reference.reference_s()}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    clock = reference.SpeedClock()
    tracer = None
    if traced == "1":
        # no segments: reference loops inside wrapped layers would count as their time
        tracer = layers.Tracer()
        tracer.install()
    else:
        install_ticks(clock)
    probe = workloads.Probe()
    probe.install(workload)

    clock.start()
    outcome = spec.run(inputs)
    clock.stop()
    result["wall_s"] = clock.wall_s
    result["wall_norm_s"] = clock.norm_s
    result["ref_s"] = clock.refs

    cases, gate = spec.gate(inputs, outcome, probe)
    result["cases"] = cases
    result["gate"] = gate
    if hasattr(spec, "digest"):
        result["digest"] = spec.digest(outcome)
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
