"""Timing, interval accounting and the correctness gate.

Host timings are corrected for machine speed: the simulation runs in
short virtual-time chunks, each followed by one pass of the fixed
reference loop, and corrected seconds are

    raw simulator seconds x nominal reference seconds / mean reference seconds

Chunking does not change the run: ``Simulator.run(until=...)`` tiles
virtual time contiguously, so a chunked run ends in the same state as
one unchunked call (the benchmark's tests check the digests).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

from repro.sim.monitor import Histogram
from repro.smr.command import ReplyStatus

from refloop import ReferenceLoop


class CorrectedClock:
    """Accumulates raw simulator seconds and reference-loop seconds."""

    def __init__(self, reference: ReferenceLoop, nominal_s: float) -> None:
        if not nominal_s > 0:
            raise ValueError("nominal reference seconds must be positive")
        self.reference = reference
        self.nominal_s = nominal_s
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.passes = 0

    def time(self, fn, *args):
        """Run ``fn(*args)``, add its wall time, then time one reference
        pass; returns ``fn``'s result."""
        start = time.perf_counter()
        result = fn(*args)
        self.raw_s += time.perf_counter() - start
        self.ref_s += self.reference.seconds()
        self.passes += 1
        return result

    @property
    def mean_ref_s(self) -> float:
        return self.ref_s / self.passes

    @property
    def corrected_s(self) -> float:
        return self.raw_s * self.nominal_s / self.mean_ref_s


def chunk_bounds(start: float, end: float, chunk: float) -> list:
    """Chunk end times from ``start`` to exactly ``end``."""
    n = max(1, math.ceil((end - start) / chunk - 1e-9))
    return [start + (end - start) * (i + 1) / n for i in range(n)]


def run_chunked(system, end: float, chunk: float, clock: CorrectedClock = None) -> None:
    """Advance ``system`` to virtual time ``end`` in chunks, timing each
    chunk on ``clock`` when one is given."""
    for bound in chunk_bounds(system.sim.now, end, chunk):
        if clock is None:
            system.run(until=bound)
        else:
            clock.time(system.run, bound)


def monitor_digest(system) -> str:
    """SHA-256 of the monitor snapshot: equal digests, equal runs."""
    snapshot = json.dumps(system.monitor.snapshot(), sort_keys=True, default=str)
    return hashlib.sha256(snapshot.encode()).hexdigest()


def latency_samples(system) -> list:
    """The monitor's raw client latency observations, in completion
    order.  Read without ``Monitor.histogram``, which would register an
    empty histogram and change the snapshot being compared."""
    histogram = system.monitor._histograms.get("latency")
    return histogram._samples if histogram is not None else []


@dataclass
class Mark:
    """Cumulative program counters at one virtual instant."""

    answered: int
    retries: int
    latency_samples: int
    executed: float
    events: int
    sent: int
    dropped: int
    counters: dict = field(default_factory=dict)

    @classmethod
    def take(cls, system) -> "Mark":
        clients = system.clients
        monitor = system.monitor
        net = system.net.stats()
        return cls(
            answered=sum(c.completed + c.failed - c.gave_up for c in clients),
            retries=sum(c.retries + c.timeouts for c in clients),
            latency_samples=len(latency_samples(system)),
            executed=sum(s.total() for s in monitor.labeled_series("tput").values()),
            events=system.sim.events_processed,
            sent=net["sent"],
            dropped=net["dropped"],
            counters=dict(monitor.counters()),
        )


@dataclass
class Interval:
    """Program counters over one measured interval."""

    start: Mark
    end: Mark
    virtual_s: float
    #: Client-observed latencies (virtual seconds) of commands completed
    #: in the interval, in completion order.
    latencies: list

    @classmethod
    def between(cls, system, start: Mark, end: Mark, virtual_s: float) -> "Interval":
        samples = latency_samples(system)
        return cls(
            start, end, virtual_s,
            list(samples[start.latency_samples:end.latency_samples]),
        )

    @property
    def commands(self) -> int:
        return self.end.answered - self.start.answered

    def delta(self, attribute: str) -> int:
        return getattr(self.end, attribute) - getattr(self.start, attribute)

    def counter(self, prefix: str, *labels: str) -> float:
        """Increase of every counter named ``prefix`` (with or without
        labels) whose key contains all of ``labels``."""

        def total(counters):
            return sum(
                value for key, value in counters.items()
                if (key == prefix or key.startswith(prefix + "{"))
                and all(label in key for label in labels)
            )

        return total(self.end.counters) - total(self.start.counters)


def percentile(values: list, q: float) -> float:
    """The program's own exact percentile (NaN for no values)."""
    histogram = Histogram("benchmark")
    histogram.extend(values)
    return histogram.percentile(q)


@dataclass
class GateResult:
    attempted: int
    failed: int
    problems: list

    @property
    def correct(self) -> bool:
        return not self.problems


def gate(scenario) -> GateResult:
    """Correctness gate, called from outside after the drain.

    Violations: a stuck client, an inconsistency found by the workload's
    ``verify`` (replica agreement, single ownership; learner mirrors on
    read_heavy).  Failed commands -- give-ups and NOK replies that are
    not the application's specified outcome -- are counted, not gated.
    """
    system = scenario.system
    problems = [f"client {c.name} stuck" for c in system.clients if not c.done]
    problems += scenario.verify(system)
    attempted = failed = 0
    for client in system.clients:
        for status, result in client.results.values():
            attempted += 1
            if status != ReplyStatus.OK and not scenario.expected_nok(result):
                failed += 1
    return GateResult(attempted, failed, problems)
