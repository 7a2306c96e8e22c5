"""One workload's runs and the metrics computed from them.

Everything here runs in the workload's own process: ``run.py`` puts the
program's ``src`` directory on the path before importing this module.
"""

from __future__ import annotations

import gc
import resource
import statistics
from pathlib import Path

import scenarios
from layers import LayerTracer
from measure import (
    CorrectedClock,
    Interval,
    Mark,
    gate,
    monitor_digest,
    percentile,
    run_chunked,
)
from refloop import ReferenceLoop

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "host_cmds_per_s": "cmd/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_tput_cps": "cmd/s",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
}

#: Stages of the program's own span tree reported as virtual-time waits.
STAGES = ("queue", "borrow", "multicast-order", "oracle-lookup")


def per_layer_units(layers) -> dict:
    units = {}
    for layer in layers:
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls_per_cmd"] = "1/cmd"
    units.update({
        "sim.events_per_cmd": "1/cmd",
        "sim.network.msgs_per_cmd": "1/cmd",
        "sim.network.drop_frac": "ratio",
        "consensus.values_per_batch": "1/batch",
        "multicast.multi_frac": "ratio",
        "core.server.objects_per_cmd": "1/cmd",
        "core.server.lane_occupancy": "ratio",
        "core.oracle.queries_per_cmd": "1/cmd",
        "core.client.cache_hit_frac": "ratio",
        "core.client.retries_per_cmd": "1/cmd",
        "core.client.failed_frac": "ratio",
        "core.client.latency_samples": "count",
        "partitioning.plans": "count",
        "partitioning.objects_moved": "count",
        "compartment.local_ok_frac": "ratio",
        "compartment.probes_per_read": "1/read",
        "recovery.snapshot_transfers": "count",
    })
    for stage in STAGES:
        units[f"stage.{stage}.p50_ms"] = "ms"
    units["trace.overhead"] = "ratio"
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


class Bench:
    """One workload's runs; everything here happens in this process."""

    def __init__(self, workload: str, seed: int, seconds: float, nominal_s: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.nominal_s = nominal_s
        self.reference = ReferenceLoop()
        for _ in range(5):  # first passes run cold
            self.reference.seconds()
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self.diagnostics: dict = {}

    def _clock(self):
        return CorrectedClock(self.reference, self.nominal_s)

    def setup(self, clock=None, tracing: bool = False):
        """Build the scenario and run its warm-up, timed on ``clock``."""
        gc.collect()
        args = (self.workload, self.seed, self.seconds, tracing)
        if clock is None:
            scenario = scenarios.build(*args)
        else:
            scenario = clock.time(scenarios.build, *args)
        run_chunked(scenario.system, scenario.warmup_end, scenario.chunk, clock)
        return scenario

    def measure(self, scenario, label: str, on_interval_end=None):
        """Timed measured interval, untimed drain, correctness gate.
        ``on_interval_end()`` runs before the drain.  Returns (interval,
        clock)."""
        system = scenario.system
        gc.collect()
        start = Mark.take(system)
        clock = self._clock()
        run_chunked(system, scenario.measure_end, scenario.chunk, clock)
        end = Mark.take(system)
        interval = Interval.between(
            system, start, end, scenario.measure_end - scenario.warmup_end
        )
        if on_interval_end is not None:
            on_interval_end()
        system.run(until=scenario.drain_end)
        result = gate(scenario)
        self.problems += [f"{label}: {p}" for p in result.problems]
        self.attempted += result.attempted
        self.failed += result.failed
        return interval, clock

    # -- end-to-end -------------------------------------------------------------

    def end_to_end(self) -> dict:
        # Each set-up is short (0.1-1 s), so its few reference passes are
        # pooled: every set-up's raw seconds are corrected by the mean
        # reference pass over all of them.
        raw, ref_s, passes = [], 0.0, 0
        scenario = None
        for _ in range(SETUP_REPEATS):
            scenario = None  # free the previous system before building
            clock = self._clock()
            scenario = self.setup(clock)
            raw.append(clock.raw_s)
            ref_s += clock.ref_s
            passes += clock.passes
        setup_s = statistics.median(raw) * self.nominal_s / (ref_s / passes)
        interval, clock = self.measure(scenario, "measured run")
        commands = interval.commands
        latencies = interval.latencies
        p99 = percentile(latencies, 99)
        self.diagnostics = {
            "host.raw_cmds_per_s": _ratio(commands, clock.raw_s),
            "host.ref_s": clock.mean_ref_s,
            "host.raw_s": clock.raw_s,
            "failed_frac": _ratio(self.failed, self.attempted),
            "latency_samples": len(latencies),
            "samples_beyond_p99": sum(1 for v in latencies if v > p99),
            "measured_virtual_s": interval.virtual_s,
        }
        return {
            "host_cmds_per_s": commands / clock.corrected_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_tput_cps": commands / interval.virtual_s,
            "sim_p50_ms": percentile(latencies, 50) * 1000,
            "sim_p99_ms": p99 * 1000,
        }

    # -- per layer --------------------------------------------------------------

    def per_layer(self, out_dir: Path) -> dict:
        """Untraced reference run, wrapped run, program-traced run."""
        plain = self.setup()
        _, plain_clock = self.measure(plain, "untraced run")
        plain_digest = monitor_digest(plain.system)
        plain = None

        tracer = LayerTracer()
        with tracer:
            wrapped = self.setup()
            tracer.reset()
            interval, clock = self.measure(wrapped, "wrapped run", tracer.freeze)
        if monitor_digest(wrapped.system) != plain_digest:
            self.problems.append("wrapped run diverged from the untraced run")
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{self.workload}.tsv.gz")
        stages = self._stage_waits()
        return self._layer_metrics(
            tracer, interval, wrapped.system, stages,
            clock.corrected_s / plain_clock.corrected_s,
        )

    def _stage_waits(self) -> dict:
        """Median virtual duration of each stage span that started in the
        measured interval, from ``SystemConfig(tracing=True)`` spans."""
        scenario = self.setup(tracing=True)
        self.measure(scenario, "program-traced run")
        durations = {stage: [] for stage in STAGES}
        for span in scenario.system.tracer.spans:
            if (
                span.name in durations
                and span.start >= scenario.warmup_end
                and span.start < scenario.measure_end
                and span.duration is not None
            ):
                durations[span.name].append(span.duration)
        return {
            stage: (percentile(values, 50) * 1000 if values else 0.0)
            for stage, values in durations.items()
        }

    def _layer_metrics(self, tracer, interval, system, stages, overhead):
        commands = interval.commands
        frozen = tracer.frozen
        self_ns = frozen.self_ns
        calls = frozen.calls
        traced_ns = sum(self_ns)
        metrics = {}
        for index, layer in enumerate(tracer.layers):
            metrics[f"{layer}.self_share"] = _ratio(self_ns[index], traced_ns)
            metrics[f"{layer}.calls_per_cmd"] = _ratio(calls[index], commands)
        sent = interval.delta("sent")
        lanes = system.config.execution_lanes
        busy = interval.delta("executed") * system.config.service_time
        capacity = len(system.partition_names) * lanes * interval.virtual_s
        reads = interval.counter("reads", "event=local_attempt")
        metrics.update({
            "sim.events_per_cmd": _ratio(interval.delta("events"), commands),
            "sim.network.msgs_per_cmd": _ratio(sent, commands),
            "sim.network.drop_frac": _ratio(interval.delta("dropped"), sent),
            "consensus.values_per_batch": _ratio(
                frozen.batched_values, frozen.batches
            ),
            "multicast.multi_frac": _ratio(
                interval.counter("multi_partition_commands"), commands
            ),
            "core.server.objects_per_cmd": _ratio(
                interval.counter("objects_exchanged"), commands
            ),
            "core.server.lane_occupancy": _ratio(busy, capacity),
            "core.oracle.queries_per_cmd": _ratio(
                interval.counter("oracle_queries_total"), commands
            ),
            "core.client.cache_hit_frac": max(
                0.0, 1.0 - _ratio(interval.counter("oracle_queries_total"), commands)
            ),
            "core.client.retries_per_cmd": _ratio(interval.delta("retries"), commands),
            "core.client.failed_frac": _ratio(self.failed, self.attempted),
            "core.client.latency_samples": len(interval.latencies),
            "partitioning.plans": interval.counter("plans_applied"),
            "partitioning.objects_moved": interval.counter("plan_objects_moved"),
            "compartment.local_ok_frac": _ratio(
                interval.counter("reads", "event=local_ok"), reads
            ),
            "compartment.probes_per_read": _ratio(
                frozen.message_types["SeqProbe"], reads
            ),
            "recovery.snapshot_transfers": interval.counter("snapshot_fetches"),
        })
        for stage, value in stages.items():
            metrics[f"stage.{stage}.p50_ms"] = value
        metrics["trace.overhead"] = overhead
        return metrics
