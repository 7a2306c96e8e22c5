"""Tests of the benchmark itself (not of the program)::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import layers
import measure
import run
import scenarios
from refloop import ReferenceLoop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NOMINAL = BENCHMARK["command"][BENCHMARK["command"].index("--ref-nominal-s") + 1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Short runs: a fraction of a virtual second each.
TINY = 0.3


def _run_to_end(scenario, chunked: bool) -> None:
    if chunked:
        measure.run_chunked(scenario.system, scenario.drain_end, scenario.chunk)
    else:
        scenario.system.run(until=scenario.drain_end)


def test_reference_loop_imports_nothing_from_the_program():
    tree = ast.parse((HERE / "refloop.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "gc", "random", "time"}


def test_reference_loop_allocates_no_gc_tracked_objects():
    loop = ReferenceLoop()
    loop.run()
    gc.disable()
    try:
        before = gc.get_count()
        loop.run()
        assert gc.get_count() == before
    finally:
        gc.enable()


def test_reference_loop_pauses_and_restores_the_collector():
    loop = ReferenceLoop()
    assert gc.isenabled()
    assert loop.seconds(1000) > 0
    assert gc.isenabled()


@pytest.mark.parametrize("name", ["tpcc", "chaos"])
def test_chunked_run_gives_the_single_run_digest(name):
    single = scenarios.build(name, 3, TINY)
    _run_to_end(single, chunked=False)
    chunked = scenarios.build(name, 3, TINY)
    _run_to_end(chunked, chunked=True)
    assert single.system.total_completed() > 0
    assert measure.monitor_digest(single.system) == measure.monitor_digest(
        chunked.system
    )


def test_wrapper_does_not_change_the_run_and_is_removed():
    originals = {
        (owner, attribute): vars(owner)[attribute]
        for points in layers.layer_entry_points().values()
        for owner, attribute in points
    }
    plain = scenarios.build("social", 4, TINY)
    _run_to_end(plain, chunked=True)
    tracer = layers.LayerTracer()
    with tracer:
        wrapped = scenarios.build("social", 4, TINY)
        _run_to_end(wrapped, chunked=True)
    assert measure.monitor_digest(plain.system) == measure.monitor_digest(
        wrapped.system
    )
    for (owner, attribute), original in originals.items():
        assert vars(owner)[attribute] is original
    calls = dict(zip(tracer.layers, tracer.calls))
    for layer in ("sim.kernel", "sim.network", "consensus", "multicast",
                  "core.server", "core.oracle", "core.client", "smr.footprint",
                  "smr.fastcopy", "workloads.app", "workloads.gen",
                  "partitioning"):
        assert calls[layer] > 0, layer
    # Self times partition the root spans' time exactly.
    roots = sum(
        d for d, p in zip(tracer.span_dur, tracer.span_parent) if p == -1
    )
    assert sum(tracer.self_ns) == roots


def test_from_import_bindings_are_wrapped():
    import repro.core.oracle
    import repro.core.server
    import repro.smr.statemachine

    bound = [
        repro.core.server.copy_value,
        repro.smr.statemachine.copy_value,
        repro.core.oracle.partition_graph,
    ]
    with layers.LayerTracer():
        assert repro.core.server.copy_value is not bound[0]
        assert repro.smr.statemachine.copy_value is not bound[1]
        assert repro.core.oracle.partition_graph is not bound[2]
    assert repro.core.server.copy_value is bound[0]


def test_gate_passes_a_clean_run_and_fires_on_planted_divergence():
    scenario = scenarios.build("read_heavy", 5, TINY)
    _run_to_end(scenario, chunked=True)
    clean = measure.gate(scenario)
    assert clean.correct, clean.problems
    assert clean.attempted > 0 and clean.failed == 0

    replica = scenario.system.servers("p0")[1]
    var, value = next(iter(replica.store.items()))
    replica.store.put(var, ("planted", value))
    planted = measure.gate(scenario)
    assert not planted.correct
    assert any("divergence" in p for p in planted.problems)


def test_gate_fires_on_a_stuck_client():
    scenario = scenarios.build("tpcc", 5, TINY)
    _run_to_end(scenario, chunked=True)
    scenario.system.clients[0].done = False
    assert not measure.gate(scenario).correct


def test_seed_derivation_is_deterministic_and_seed_dependent():
    assert scenarios.Seeds.derive(1) == scenarios.Seeds.derive(1)
    assert scenarios.Seeds.derive(1) != scenarios.Seeds.derive(2)


def test_metric_names_and_units_match_the_benchmark_file():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == bench.END_TO_END_UNITS
    assert per_layer == bench.per_layer_units(layers.LAYERS)
    for name in list(e2e) + list(per_layer):
        assert NAME.match(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(scenarios.WORKLOADS)
    assert run.WORKLOADS == scenarios.WORKLOADS


def _bench(tmp_root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--ref-nominal-s", NOMINAL, *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _bench(
        ROOT, "--workload", "tpcc", "--seed", "2", "--seconds", "0.4",
        "--trace", trace,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    key = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            re.fullmatch(rf"tpcc {re.escape(name)} = \S+ {re.escape(unit)}", line)
            for line in lines
        ), name


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench(tmp_path, "--workload", "social", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
