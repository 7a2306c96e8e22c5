"""The repository benchmark: four seeded workloads, host and modeled metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --ref-nominal-s S [--workload W] [--seed N]
                             [--seconds T] [--trace 0|1]

Without ``--workload`` every workload runs, one after another, each in
its own single-threaded process.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it print every metric by name with its unit.  A correctness
violation withholds the metrics and exits non-zero.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the
per-layer ones from a separate run whose layer entry points are wrapped
from outside (see ``layers.py``).  ``NOTES.md`` says why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("social", "tpcc", "read_heavy", "chaos")

#: ``--trace 1`` measures this share of the untraced interval, in each
#: of its three runs: per-layer shares need fewer commands than the
#: bounded end-to-end metrics, and the run must stay within 180 s.
TRACE_FRACTION = 0.25


def run_one(args) -> int:
    """One workload in this process; prints its metrics, returns the
    exit status."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from bench import END_TO_END_UNITS, Bench, per_layer_units
    from layers import LAYERS

    seconds = args.seconds * TRACE_FRACTION if args.trace else args.seconds
    bench = Bench(args.workload, args.seed, seconds, args.ref_nominal_s)
    if args.trace:
        units = per_layer_units(LAYERS)
        metrics = bench.per_layer(ROOT / ".perfbench_out")
    else:
        units = END_TO_END_UNITS
        metrics = bench.end_to_end()
    for problem in bench.problems:
        print(f"CORRECTNESS VIOLATION [{args.workload}]: {problem}", file=sys.stderr)
    if bench.problems:
        print(json.dumps({
            "correct": False, "attempted": max(1, bench.attempted),
            "failed": bench.failed, "metrics": {},
        }))
        return 1
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    for name, value in bench.diagnostics.items():
        print(f"# {args.workload} {name} = {value:.6g}")
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--ref-nominal-s", repr(args.ref_nominal_s),
        ]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        results[workload] = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0:
            status = proc.returncode
    valid = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in valid),
        "attempted": max(1, sum(r["attempted"] for r in valid)),
        "failed": sum(r["failed"] for r in valid),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, result in results.items() if result is not None
            for name, metric in result["metrics"].items()
        },
    }))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ref-nominal-s", type=float, required=True,
        help="nominal seconds of one reference-loop pass (BENCHMARK.json)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not args.ref_nominal_s > 0:
        parser.error("--ref-nominal-s must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
