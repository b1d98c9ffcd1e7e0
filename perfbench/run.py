"""blockmod benchmark: end-to-end timings and, traced, per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload jacobi --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every pass runs in a fresh child process (``child.py``), one at a time,
so blockmod's module-level caches never carry over from one pass to the
next and ``peak_rss_mb`` is the peak resident memory of one pass (from
``os.wait4``).  The run repeats passes on the same seed-derived inputs
until ``--seconds`` are used up (at least three passes) and reports
medians.  Before every pass it starts a child that only sets up, so
``setup_s`` is a median over many set-ups spread over the run.  Every
time is reported at nominal host speed, scaled in the child with the
reference loop of ``reference.py``; the unscaled times stay in the raw
samples and the summary.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, medians over the traced passes, plus
``trace.overhead_s`` (median traced minus median untraced wall time, both
at nominal host speed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error and every raw sample to
``perfbench/out/``.  The exit code is 0 when every correctness gate
held, 1 when one failed and 2 when the blockmod sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("jacobi", "module-axioms", "closure", "report-quick")
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2     # each round is one untraced and one traced pass
DEADLINE_S = 170        # a run must end within 180 s
POLL_S = 0.005


def run_child(workload: str, seed: int, traced: bool, mode: str, timeout: float) -> dict:
    """Run one child to completion; returns its JSON result plus rusage."""
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed),
               "1" if traced else "0"]
    spawned = time.monotonic()
    child = subprocess.Popen(command + [repr(spawned), mode], stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE)
    deadline = spawned + timeout
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            child.kill()
            pid, status, usage = os.wait4(child.pid, 0)
            break
        time.sleep(POLL_S)
    child.returncode = os.waitstatus_to_exitcode(status)
    output = child.stdout.read().decode()
    child.stdout.close()
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"crashed": f"exit code {child.returncode}"}
    result = json.loads(lines[-1])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024       # ru_maxrss is in KiB
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """All children of one run; returns the raw samples."""
    start = time.monotonic()

    def left() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    kinds = (False, True) if traced else (False,)
    min_rounds = MIN_TRACED_ROUNDS if traced else MIN_PASSES
    setups, passes = [], []
    rounds = 0
    while True:
        for kind in kinds:
            # a set-up-only child before every pass spreads the set-up
            # samples over the run, like the passes
            setups.append(run_child(workload, seed, False, "setup", left()))
            result = run_child(workload, seed, kind, "pass", left())
            result["traced"] = kind
            passes.append(result)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
        if elapsed > DEADLINE_S / 2:
            break
    return {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
            "setups": setups, "passes": passes}


def judge(raw: dict) -> tuple[bool, int, int, list[str]]:
    """Correctness over every pass: (correct, attempted, failed, failures)."""
    attempted = failed = 0
    failures = []
    sizes = [len(p["gate"]) for p in raw["passes"] if "gate" in p]
    for index, sample in enumerate(raw["setups"] + raw["passes"]):
        if "crashed" in sample:
            size = max(sizes, default=1)
            attempted += size
            failed += size
            failures.append(f"child {index}: {sample['crashed']}")
    for index, sample in enumerate(raw["passes"]):
        for name, ok in sample.get("gate", ()):
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"pass {index}: {name}")
    digests = {p["digest"] for p in raw["passes"] if "digest" in p}
    if digests:
        attempted += 1
        if len(digests) != 1:
            failed += 1
            failures.append("stdout differs between passes of one run")
    return failed == 0, attempted, failed, failures


def end_to_end(raw: dict) -> dict[str, tuple[float, int]]:
    """Median and sample count of each end-to-end metric, and of the unscaled times."""
    passes = [p for p in raw["passes"] if "wall_s" in p and not p["traced"]]
    children = [p for p in raw["setups"] + raw["passes"] if "setup_s" in p]
    samples = {
        "wall_norm_s": [p["wall_norm_s"] for p in passes],
        "cases_per_norm_s": [p["cases"] / p["wall_norm_s"] for p in passes],
        "setup_s": [p["setup_norm_s"] for p in children],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        # unscaled, for the summary only
        "raw wall_s": [p["wall_s"] for p in passes],
        "raw setup_s": [p["setup_s"] for p in children],
    }
    return {name: (statistics.median(values), len(values))
            for name, values in samples.items() if values}


def per_layer(raw: dict) -> dict[str, tuple[float, int]]:
    """Median of each layer metric over the traced passes, plus the tracing overhead."""
    traced = [p for p in raw["passes"] if "layers" in p]
    out = {}
    for name in (traced[0]["layers"] if traced else ()):
        out[name] = (statistics.median(p["layers"][name] for p in traced), len(traced))
    walls = {kind: [p["wall_norm_s"] for p in raw["passes"]
                    if "wall_s" in p and p["traced"] is kind]
             for kind in (False, True)}
    if walls[False] and walls[True]:
        out["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]), len(walls[True]))
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    raw = measure(workload, seed, seconds, traced)
    correct, attempted, failed, failures = judge(raw)
    wanted = spec["per_layer" if traced else "end_to_end"]
    measured = per_layer(raw) if traced else end_to_end(raw)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            correct = False
            failures.append(f"metric {metric['name']} was not measured")
            continue
        value, _ = measured[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    OUT.mkdir(exist_ok=True)
    raw_path = OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"
    raw_path.write_text(json.dumps(raw, indent=1) + "\n")

    print(f"{workload}: seed {seed}, {len(raw['passes'])} passes, "
          f"failed_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4g}",
          file=sys.stderr)
    shown = [(m["name"], m["unit"]) for m in wanted]
    if not traced:
        shown += [("raw wall_s", "s"), ("raw setup_s", "s")]
    for name, unit in shown:
        if name in measured:
            value, count = measured[name]
            print(f"  {name:<40} {value:>14.6g} {unit:<6} (median of {count})",
                  file=sys.stderr)
    for failure in failures[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(f"  raw samples: {raw_path.relative_to(ROOT)}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "blockmod" / "__init__.py").is_file():
        print(f"error: blockmod sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
               for name in WORKLOADS}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
