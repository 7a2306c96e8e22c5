"""The four benchmark workloads, built from one ``--seed``.

Every workload is a closed loop: each simulated client sends its next
command only after the previous reply.  Clients are actors inside the
one process (no threads, no sockets).  The benchmark derives the graph,
workload, system and chaos seeds from its own seed and hands the program
only the generated inputs.

Virtual-time layout of one run::

    0 ........ warmup_end ........ measure_end ........ drain_end
       set-up       measured interval        clients stop; in-flight
       (caches,     (metrics)                commands finish; checks
       oracle graph,
       first plan)

``measure_end - warmup_end`` is ``seconds * VIRTUAL_PER_SECOND[name]``:
the virtual work is fixed by ``--seconds`` and the workload, never by
how fast the host happens to be, so the modeled metrics of one seed are
exactly repeatable and a host speed-up shows only in the host metrics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.compartment import CompartmentConfig
from repro.core import DynaStarSystem, SystemConfig
from repro.experiments import compartment as compartment_experiment
from repro.experiments import overload as overload_experiment
from repro.experiments.compartment import ReadHeavyWorkload
from repro.experiments.harness import make_social_graph, warehouse_aligned_placement
from repro.faults import ChaosConfig, ChaosInjector, generate_for_system
from repro.sim.latency import ConstantLatency, lan_default
from repro.smr import KeyValueApp
from repro.workloads.social import ChirperApp, ChirperWorkload
from repro.workloads.tpcc import TPCCApp, TPCCConfig, TPCCWorkload

WORKLOADS = ("social", "tpcc", "read_heavy", "chaos")

#: Virtual seconds measured per requested wall second, calibrated so a
#: run's measured interval takes roughly ``--seconds`` on a 2-core VM.
VIRTUAL_PER_SECOND = {
    "social": 1.2,
    "tpcc": 0.7,
    "read_heavy": 2.5,
    "chaos": 5.0,
}

#: Virtual length of one timed chunk; each chunk is followed by one
#: reference-loop pass (about 50-100 ms of simulation per chunk).
CHUNK = {"social": 0.1, "tpcc": 0.05, "read_heavy": 0.2, "chaos": 0.5}

#: Virtual warm-up: location caches fill, the oracle's workload graph
#: forms, and on social the first repartitioning plan applies.
WARMUP = {"social": 2.0, "tpcc": 0.5, "read_heavy": 0.5, "chaos": 1.0}

#: Virtual time after ``measure_end`` for in-flight commands to finish
#: (chaos: the longest client backoff is 2 s).
DRAIN = {"social": 2.0, "tpcc": 2.0, "read_heavy": 2.0, "chaos": 10.0}

#: NOK replies that are the application's specified outcome, not a
#: failure: TPC-C's 1% New-Order "unused item" rollback.
_TPCC_ROLLBACK = "TPCC_ABORT_INVALID_ITEM"


@dataclass(frozen=True)
class Seeds:
    graph: int
    workload: int
    system: int
    chaos: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        rng = random.Random(seed)
        return cls(*(rng.randrange(1, 2**31) for _ in range(4)))


@dataclass
class Scenario:
    name: str
    system: DynaStarSystem
    warmup_end: float
    measure_end: float
    drain_end: float
    chunk: float
    #: Whether a NOK result is an expected application outcome.
    expected_nok: Callable[[object], bool]
    #: Outside-in consistency check; returns violation descriptions.
    verify: Callable[[DynaStarSystem], list]


def _no_expected_nok(result) -> bool:
    return False


def _tpcc_rollback(result) -> bool:
    return _TPCC_ROLLBACK in str(result)


def verify_partitions(system) -> list:
    """Replica agreement within each partition and single ownership."""
    try:
        return overload_experiment.verify_consistency(system)
    except AssertionError as exc:  # all_store_variables: doubly owned
        return [str(exc)]


def verify_compartment(system) -> list:
    """As :func:`verify_partitions`, plus learner-mirror convergence and
    variable conservation."""
    try:
        return compartment_experiment.verify_consistency(system)
    except AssertionError as exc:
        return [str(exc)]


def _social(seeds: Seeds, measure: float, tracing: bool):
    graph = make_social_graph(300, seed=seeds.graph)
    system = DynaStarSystem(
        ChirperApp(graph),
        SystemConfig(
            n_partitions=2,
            seed=seeds.system,
            placement="random",
            repartition_enabled=True,
            repartition_threshold=1500,
            service_time=0.002,
            latency=lan_default(),
            execution_lanes=1,
            tracing=tracing,
        ),
    )
    # Activity skew 0.5 rather than the paper's 0.95: at 0.95 the few
    # most active users decide a seed's figures (one seed in eight ran
    # 25% slower), and the benchmark compares medians across seeds.
    workload = ChirperWorkload(graph, mix="mix", rho=0.5, seed=seeds.workload)
    return system, [workload] * 8, _no_expected_nok, verify_partitions


def _tpcc(seeds: Seeds, measure: float, tracing: bool):
    config = TPCCConfig(n_warehouses=2)
    system = DynaStarSystem(
        TPCCApp(config),
        SystemConfig(
            n_partitions=2,
            seed=seeds.system,
            placement=warehouse_aligned_placement(config),
            repartition_enabled=True,
            repartition_threshold=4000,
            service_time=0.004,
            latency=lan_default(),
            execution_lanes=4,
            tracing=tracing,
        ),
    )
    workload = TPCCWorkload(config, seed=seeds.workload)
    return system, [workload] * 24, _tpcc_rollback, verify_partitions


def _read_heavy(seeds: Seeds, measure: float, tracing: bool):
    n_keys = 16
    keys = [f"k{i:02d}" for i in range(n_keys)]
    system = DynaStarSystem(
        KeyValueApp({key: i for i, key in enumerate(keys)}),
        SystemConfig(
            n_partitions=2,
            seed=seeds.system,
            latency=ConstantLatency(0.001),
            # Keys alternate between the partitions: a seeded random
            # placement could put 11 of the 16 keys on one partition and
            # decide the seed's throughput by itself.
            placement={key: i % 2 for i, key in enumerate(keys)},
            repartition_enabled=False,
            service_time=0.002,
            client_timeout=0.25,
            client_timeout_cap=2.0,
            # With constant delay and service time an unqueued read takes
            # exactly 6 ms, and at lighter load the median read exactly
            # that for every seed.  Seeded think time and enough clients
            # to keep the learners queued make the latencies continuous.
            client_think_time=0.001,
            idempotency_keys=True,
            # Checkpoints every 100 decided instances per group: with
            # chaos outside the driver's workloads, this is where the
            # recovery layer's capture path is measured.
            checkpoint_interval=100,
            tracing=tracing,
            compartment=CompartmentConfig(
                enabled=True, n_proxy_leaders=2, n_learners=3, lease_enabled=True
            ),
        ),
    )
    workloads = [
        ReadHeavyWorkload(
            keys, 0.9, seed=seeds.workload * 1000 + i, client_tag=f"c{i}"
        )
        for i in range(32)
    ]
    return system, workloads, _no_expected_nok, verify_compartment


def _chaos(seeds: Seeds, measure: float, tracing: bool):
    graph = make_social_graph(150, seed=seeds.graph)
    system = DynaStarSystem(
        ChirperApp(graph),
        SystemConfig(
            n_partitions=2,
            seed=seeds.system,
            placement="random",
            repartition_enabled=True,
            repartition_threshold=6000,
            service_time=0.002,
            latency=lan_default(),
            loss_probability=0.02,
            client_timeout=0.25,
            client_timeout_cap=2.0,
            checkpoint_interval=100,
            tracing=tracing,
        ),
    )
    # Fault windows cover the whole measured interval at a fixed rate
    # (per group: a replica and an acceptor crash every ~4 virtual
    # seconds).  Every window closes a second before the interval ends.
    start = WARMUP["chaos"]
    span = measure - 1.0
    windows = max(1, round(span / 4.0))
    chaos = ChaosConfig(
        duration=start + span,
        start_after=start,
        replica_crashes_per_group=windows,
        acceptor_crashes_per_group=windows,
        link_cuts=2 * windows,
        oneway_cuts=windows,
        loss_bursts=windows,
        delay_spikes=windows,
        max_downtime=1.5,
    )
    schedule = generate_for_system(system, chaos, seed=seeds.chaos)
    ChaosInjector(system, schedule).arm()
    workload = ChirperWorkload(graph, mix="mix", seed=seeds.workload)
    return system, [workload] * 8, _no_expected_nok, verify_partitions


_BUILDERS = {
    "social": _social,
    "tpcc": _tpcc,
    "read_heavy": _read_heavy,
    "chaos": _chaos,
}


def build(name: str, seed: int, seconds: float, tracing: bool = False) -> Scenario:
    """Construct the system and its clients; nothing has run yet.

    ``tracing`` turns on the program's own span recorder
    (``SystemConfig.tracing``), used only for the stage waits.
    """
    seeds = Seeds.derive(seed)
    warmup = WARMUP[name]
    measure = round(seconds * VIRTUAL_PER_SECOND[name], 6)
    system, workloads, expected_nok, verify = _BUILDERS[name](
        seeds, measure, tracing
    )
    measure_end = warmup + measure
    for workload in workloads:
        system.add_client(workload, stop_at=measure_end)
    return Scenario(
        name=name,
        system=system,
        warmup_end=warmup,
        measure_end=measure_end,
        drain_end=measure_end + DRAIN[name],
        chunk=CHUNK[name],
        expected_nok=expected_nok,
        verify=verify,
    )
