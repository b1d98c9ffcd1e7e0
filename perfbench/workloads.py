"""The four benchmark workloads: inputs, the timed call, and the correctness gate.

Inputs come from the benchmark's own ``random.Random(seed)``, never from
blockmod's sampler, so one seed denotes the same inputs at every commit.
blockmod receives only the generated inputs; the closure suite, which
samples its seed polynomials internally, receives an integer seed drawn
from the same stream.  ``jacobi`` and ``report-quick`` have no random
input.

Each workload is a class with three steps:

* ``build(seed)`` (set-up, untimed) returns the inputs;
* ``run(inputs)`` (timed) calls blockmod's public entry points;
* ``gate(inputs, outcome, probe)`` returns ``(cases, checks)``, the
  number of verification cases done and a list of ``(name, ok)`` pairs.
  It never reads witness prose, so a reworded report still passes.

``probe`` holds facts recorded by :class:`Probe` at the suites' call
sites (case counts, closure tags), which the gate compares against
counts computed here from the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from blockmod import blockalg, cli, suites
from blockmod.omega import ParamSet
from blockmod.poly import Poly2

import layers

# The five q values of the Jacobi acceptance criterion (integral, rational,
# negative, half-integral, large).
ACCEPTANCE_Q_VALUES = (Fraction(1), Fraction(5, 7), Fraction(-2), Fraction(3, 2), Fraction(7))


def _fraction(rng: random.Random, num_bound: int, den_bound: int,
              nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        if value or not nonzero:
            return value


def _param_set(rng: random.Random, q_mode: str) -> ParamSet:
    if q_mode == "integer":
        q = Fraction(rng.choice([1, 2, 3, -1, -2, -3]))
    elif q_mode == "half-integer":
        q = Fraction(rng.choice([1, 3, -1, -3]), 2)
    else:
        q = _fraction(rng, 9, 9, nonzero=True)
    return ParamSet(q=q, lambda1=_fraction(rng, 5, 5, nonzero=True),
                    lambda2=_fraction(rng, 5, 5, nonzero=True),
                    alpha=_fraction(rng, 5, 5))


class Probe:
    """Records, at the suites' call sites, the facts the gates compare.

    Unlike the tracer it takes no timings; it is installed in untraced
    and traced passes alike.  ``jacobi_defect`` calls are counted with a
    bare increment, which costs well under 1% of a Jacobi pass.
    """

    def __init__(self):
        self.jacobi_calls = 0
        self.grid_counts: list[int] = []
        self.closures: list[tuple[str, int]] = []
        self._patches: list = []

    def install(self, workload: str) -> None:
        if workload == "jacobi":
            defect = blockalg.jacobi_defect

            def counted(*args, **kwargs):
                self.jacobi_calls += 1
                return defect(*args, **kwargs)

            self._patches += layers.patch_everywhere(defect, counted)
        elif workload == "module-axioms":
            scan = suites.axiom_grid_scan

            def scanned(*args, **kwargs):
                count, failure = scan(*args, **kwargs)
                self.grid_counts.append(count)
                return count, failure

            self._patches += layers.patch_everywhere(scan, scanned)
        elif workload == "closure":
            engine = suites.closure

            def closed(*args, **kwargs):
                basis, result = engine(*args, **kwargs)
                self.closures.append((result.tag.value, result.dimension))
                return basis, result

            self._patches += layers.patch_everywhere(engine, closed)

    def uninstall(self) -> None:
        layers.restore(self._patches)
        self._patches = []


def _all_ok(checks) -> list[tuple[str, bool]]:
    return [(f"{c.anchor}: {c.name}", c.ok) for c in checks]


class Jacobi:
    """``jacobi_suite`` over the five acceptance q values at radius 2."""

    radius = 2

    def build(self, seed: int):
        return ACCEPTANCE_Q_VALUES

    def run(self, q_values):
        return suites.jacobi_suite(q_values, radius=self.radius)

    def gate(self, q_values, checks, probe: Probe):
        generators = (2 * self.radius + 1) ** 2 + 1
        triples = len(q_values) * generators ** 3
        gate = _all_ok(checks)
        gate.append(("one check per q", len(checks) == len(q_values)))
        gate.append(("triples per q", probe.jacobi_calls == triples))
        return triples, gate


class ModuleAxioms:
    """``module_axiom_suite`` on the radius-2 grid.

    Three parameter sets in the acceptance flavours (integral,
    half-integral and generic q) and one degree-4 polynomial on a fixed
    support.  Only the coefficients are random: the cost of a case grows
    with the number and degree of the terms, and a random support made
    one seed take 2.5x as long as another.
    """

    radius = 2
    support = ((0, 0), (1, 1), (3, 1))

    def build(self, seed: int):
        rng = random.Random(seed)
        params = [_param_set(rng, mode) for mode in ("integer", "half-integer", "generic")]
        poly = Poly2({mono: _fraction(rng, 9, 4, nonzero=True) for mono in self.support})
        return params, [poly]

    def run(self, inputs):
        params, polys = inputs
        return suites.module_axiom_suite(params, polys, radius=self.radius)

    def gate(self, inputs, checks, probe: Probe):
        params, polys = inputs
        cases = ((2 * self.radius + 1) ** 2 + 1) ** 2 * len(polys)
        gate = _all_ok(checks)
        gate.append(("one check per parameter set", len(checks) == len(params)))
        gate.append(("cases per parameter set", probe.grid_counts == [cases] * len(params)))
        return cases * len(params), gate


class Closure:
    """``closure_dichotomy_suite`` at D=5, B=7 for alpha in {0, 1/2}."""

    D, B = 5, 7
    runs = 1            # FULL runs and OMEGA_PRIME runs per alpha

    def build(self, seed: int):
        rng = random.Random(seed)
        return [(ParamSet(1, 1, 1, alpha), rng.getrandbits(32))
                for alpha in (Fraction(0), Fraction(1, 2))]

    def run(self, jobs):
        checks = []
        for params, rng_seed in jobs:
            checks += suites.closure_dichotomy_suite(
                params, D=self.D, B=self.B, runs_full=self.runs, runs_sub=self.runs,
                rng_seed=rng_seed)
        return checks

    def gate(self, jobs, checks, probe: Probe):
        full = (self.D + 1) * (self.D + 2) // 2
        per_alpha = [("FULL", full)] * self.runs + [("OMEGA_PRIME", full - 1)] * self.runs
        expected = per_alpha * len(jobs)
        gate = _all_ok(checks)
        gate.append(("three checks per alpha", len(checks) == 3 * len(jobs)))
        gate.append(("tags and dimensions", probe.closures == expected))
        return len(expected), gate


class ReportQuick:
    """``blockmod report --level quick`` through ``cli.main`` in a fresh process.

    The report runs at the CLI's default rng seed, as a user types it.  Its
    cost depends on the shapes of the polynomials that seed samples: over
    four rng seeds the terms produced by ``Poly2.shifted`` ranged from 23k
    to 40k.
    """

    def build(self, seed: int):
        return ["report", "--level", "quick"]

    def run(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def gate(self, argv, outcome, probe: Probe):
        code, text = outcome
        gate = [("exit code 0", code == 0)]
        try:
            report = json.loads(text)
        except ValueError:
            return 1, gate + [("stdout is one JSON report", False)]
        statuses = [check["status"] for check in report["checks"]]
        gate.append(('overall == "pass"', report["overall"] == "pass"))
        gate += [(f"check {i} passes", status == "pass") for i, status in enumerate(statuses)]
        return len(statuses), gate

    @staticmethod
    def digest(outcome) -> str:
        return hashlib.sha256(outcome[1].encode()).hexdigest()


WORKLOADS = {
    "jacobi": Jacobi(),
    "module-axioms": ModuleAxioms(),
    "closure": Closure(),
    "report-quick": ReportQuick(),
}
