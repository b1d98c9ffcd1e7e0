"""Fidelity of the traced run and of the segmented timing: tracing must count
what the suites do, and neither may change what the suites return.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
workloads run here at reduced sizes so the module takes about half a minute.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child        # noqa: E402
import layers       # noqa: E402
import reference    # noqa: E402
import workloads    # noqa: E402
from blockmod import suites    # noqa: E402

SEED = 7
SMALL = {
    "jacobi": {"radius": 1},
    "module-axioms": {"radius": 1},
    "closure": {"D": 3, "B": 4},
    "report-quick": {},
}


def small(name: str):
    spec = type(workloads.WORKLOADS[name])()
    vars(spec).update(SMALL[name])
    return spec


def run(name: str, tracer: layers.Tracer | None = None,
        clock: reference.SpeedClock | None = None):
    """One pass in this process; every patch is undone afterwards."""
    spec = small(name)
    probe = workloads.Probe()
    ticks = []
    if tracer is not None:
        tracer.install()
    if clock is not None:
        ticks = child.install_ticks(clock)
        clock.start()
    probe.install(name)
    try:
        inputs = spec.build(SEED)
        outcome = spec.run(inputs)
        cases, gate = spec.gate(inputs, outcome, probe)
    finally:
        probe.uninstall()
        layers.restore(ticks)
        if tracer is not None:
            tracer.uninstall()
    if clock is not None:
        clock.stop()
    return outcome, cases, gate, probe


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_returns_the_same_checks(name):
    plain, plain_cases, plain_gate, _ = run(name)
    traced, traced_cases, traced_gate, _ = run(name, layers.Tracer())
    assert traced == plain
    assert traced_cases == plain_cases
    assert all(ok for _, ok in plain_gate), plain_gate
    assert all(ok for _, ok in traced_gate), traced_gate


@pytest.mark.parametrize("name", list(SMALL))
def test_segmented_timing_returns_the_same_checks(name):
    plain, plain_cases, _, _ = run(name)
    clock = reference.SpeedClock()
    timed, timed_cases, timed_gate, _ = run(name, clock=clock)
    assert timed == plain
    assert timed_cases == plain_cases
    assert all(ok for _, ok in timed_gate), timed_gate
    assert clock.wall_s > 0 and clock.norm_s > 0
    assert len(clock.refs) >= 2


def test_traced_counts_equal_the_suites_counts():
    tracer = layers.Tracer()
    _, cases, _, probe = run("jacobi", tracer)
    assert tracer.layers["blockalg.jacobi_defect"].calls == cases == probe.jacobi_calls
    assert tracer.layers["blockalg.bracket"].calls == 6 * cases

    tracer = layers.Tracer()
    _, cases, _, probe = run("module-axioms", tracer)
    assert tracer.layers["omega.module_axiom_defect"].calls == cases == sum(probe.grid_counts)

    tracer = layers.Tracer()
    _, cases, _, probe = run("closure", tracer)
    # the suite reaches the engine only through its own from-import
    assert tracer.layers["closure.closure"].calls == cases == len(probe.closures)


def test_insert_added_matches_closure_diagnostics():
    tracer = layers.Tracer()
    tracer.install()
    insert = tracer.layers["closure.insert"]
    engine = suites.closure
    seen = []

    def recorded(seeds, *args, **kwargs):
        before = insert.counters["added"]
        basis, result = engine(seeds, *args, **kwargs)
        seen.append((insert.counters["added"] - before, len(seeds), result.diagnostics))
        return basis, result

    patches = layers.patch_everywhere(engine, recorded)
    try:
        spec = small("closure")
        spec.run(spec.build(SEED))
    finally:
        layers.restore(patches)
        tracer.uninstall()

    assert seen
    for added, seeds, diagnostics in seen:
        match = re.search(r"additions per pass=\[([\d, ]*)\]", diagnostics)
        assert match, f"closure diagnostics no longer list additions per pass: {diagnostics}"
        per_pass = [int(x) for x in match.group(1).split(",") if x.strip()]
        # every nonzero seed is one more echelon addition before the first pass
        assert added == sum(per_pass) + seeds
    assert 0 < insert.counters["added"] <= insert.calls


def test_every_metric_in_benchmark_json_is_produced():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(layers.Tracer().metrics()) | {"trace.overhead_s"}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    assert not missing
