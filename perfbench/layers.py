"""Outside-in per-layer tracing: wrap each layer's public entry points.

The program itself is not changed.  :class:`LayerTracer` patches the
entry points below at class level and at their ``from``-import bindings
(``repro.core.server.copy_value`` is a different binding from
``repro.smr.fastcopy.copy_value``: patching only the defining module
would silently miss the calls).  Each wrapped call becomes a span with a
parent and a command id; a layer's self time is its spans' time minus
the time their child spans cover.  ``sim.kernel`` wraps
``Simulator.run``, the root of every span, so its self time is the
residual no other layer claims.

Besides messages, the kernel enters a layer through actor timers (lane
completions, batch flushes, client timeouts).  Every callback given to
``Actor.set_timer`` passes through ``Actor._guard``; the tracer wraps
it there, charged to the layer of the module that defined the callback.

Patch before the system is built: the network keeps bound
``on_message`` methods of the actors it registers.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.compartment.learner import ReadLearner
from repro.compartment.proxy import ProxyLeader
from repro.consensus.paxos import Acceptor, Batch, PaxosReplica
from repro.core.client import DynaStarClient, Workload
from repro.core.oracle import OracleReplica
from repro.core.server import PartitionServer
from repro.multicast.basecast import MulticastReplica
from repro.sim.actors import Actor
from repro.sim.events import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.smr import KeyValueApp
from repro.smr.statemachine import AppStateMachine
from repro.workloads.social import ChirperApp
from repro.workloads.tpcc import TPCCApp

_APPS = (AppStateMachine, ChirperApp, TPCCApp, KeyValueApp)
_REPLICAS = (PaxosReplica, MulticastReplica, PartitionServer, OracleReplica)


def _subclasses(cls) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _methods(classes, *names):
    """``(owner, attribute)`` for every class that defines the method
    itself; inherited definitions are wrapped once, at their owner."""
    return [
        (cls, name)
        for cls in dict.fromkeys(classes)
        for name in names
        if name in vars(cls)
    ]


def _bindings(attribute, *modules):
    return [(importlib.import_module(module), attribute) for module in modules]


def layer_entry_points() -> dict:
    """Layer name -> ``[(owner, attribute), ...]`` to wrap.  Owners are
    classes or modules.  Layer names are this repository's module
    names."""
    return {
        "sim.kernel": [(Simulator, "run")],
        "sim.network": [(Network, "send"), (Network, "_deliver")],
        "sim.latency": _methods(_subclasses(LatencyModel), "sample"),
        "consensus": _methods([Acceptor, PaxosReplica], "on_message")
        + [(PaxosReplica, "deliver_value")],
        "multicast": _methods([MulticastReplica], "deliver_value", "on_app_message"),
        "core.server": _methods(
            [PartitionServer], "on_message", "adeliver", "on_app_message",
            "deliver_value",
        ),
        "core.oracle": _methods([OracleReplica], "on_message", "adeliver"),
        "core.client": [(DynaStarClient, "on_message")],
        "smr.footprint": _methods(_APPS, "variables_of", "read_variables_of"),
        "smr.fastcopy": _bindings(
            "copy_value", "repro.core.server", "repro.smr.statemachine"
        ),
        "workloads.app": _methods(_APPS[1:], "execute"),
        "workloads.gen": _methods(_subclasses(Workload), "next_command"),
        "partitioning": _bindings("partition_graph", "repro.core.oracle"),
        "compartment": [(ProxyLeader, "on_message"), (ReadLearner, "on_message")],
        "recovery": _methods(_REPLICAS, "capture_app_state", "install_app_state")
        + _bindings("flatten_sections", "repro.consensus.paxos")
        + _bindings("assemble_sections", "repro.consensus.paxos"),
    }


LAYERS = tuple(layer_entry_points())


def module_layer(module: str):
    """The layer a ``repro`` module belongs to, or None: ``core`` and
    ``sim`` layers are named by two components, the others by one."""
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    name = ".".join(parts[1:3]) if parts[1] in ("core", "sim") else parts[1]
    return name if name in LAYERS else None


def callback_layer(callback, actor):
    """Layer of a timer callback: where it was defined, else the
    actor's own module."""
    function = getattr(callback, "__func__", callback)
    return module_layer(getattr(function, "__module__", None)) or module_layer(
        type(actor).__module__
    )


def _command_id(args):
    """The uid of the first argument that carries one (a Command, or a
    message about one); None when no argument does."""
    for arg in args:
        uid = getattr(arg, "uid", None)
        if isinstance(uid, str):
            return uid
        command = getattr(arg, "command", None)
        uid = getattr(command, "uid", None)
        if isinstance(uid, str):
            return uid
    return None


@dataclass(frozen=True)
class Frozen:
    """The tracer's totals at the end of the measured interval."""

    self_ns: list
    calls: list
    message_types: Counter
    batches: int
    batched_values: int
    spans: int


class LayerTracer:
    """Wraps the entry points while installed; keeps spans in memory.

    Spans are columns: layer index, start (ns), duration (ns), parent
    span index (-1 for a root) and command id (inherited from the parent
    when the call's own arguments name none).
    """

    def __init__(self) -> None:
        self.layers = LAYERS
        self._saved: list = []
        self.message_types: Counter = Counter()
        self.batches = 0
        self.batched_values = 0
        self._stack: list = []
        self.frozen = None
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (called after warm-up)."""
        n = len(self.layers)
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.span_layer = array("b")
        self.span_start = array("q")
        self.span_dur = array("q")
        self.span_parent = array("l")
        self.span_cmd: list = []
        self.message_types.clear()
        self.batches = 0
        self.batched_values = 0

    # -- installation ------------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        for index, (layer, points) in enumerate(layer_entry_points().items()):
            if not points:
                raise RuntimeError(f"layer {layer} has no entry point to wrap")
            for owner, attribute in points:
                original = vars(owner)[attribute]
                self._saved.append((owner, attribute, original))
                wrapper = self._wrap(index, original)
                if attribute == "send" and owner is Network:
                    wrapper = self._tally_sends(wrapper)
                setattr(owner, attribute, wrapper)
        self._wrap_timers()
        return self

    def _wrap_timers(self) -> None:
        guard = vars(Actor)["_guard"]
        index = {layer: i for i, layer in enumerate(self.layers)}
        tracer = self

        def traced_guard(actor, callback):
            layer = callback_layer(callback, actor)
            if layer is not None:
                callback = tracer._wrap(index[layer], callback)
            return guard(actor, callback)

        self._saved.append((Actor, "_guard", guard))
        Actor._guard = traced_guard

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, index: int, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            cmd = _command_id(args)
            if cmd is None and parent is not None:
                cmd = parent[2]
            sid = len(tracer.span_layer)
            tracer.span_layer.append(index)
            tracer.span_parent.append(parent[1] if parent is not None else -1)
            tracer.span_cmd.append(cmd)
            tracer.span_dur.append(0)
            frame = [0, sid, cmd]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                tracer.span_dur[sid] = duration
                tracer.self_ns[index] += duration - frame[0]
                tracer.calls[index] += 1
                if parent is not None:
                    parent[0] += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _tally_sends(self, send):
        """Count message types on ``Network.send`` and the batch size of
        every Paxos ``Accept`` (the consensus layer's batching)."""
        tracer = self

        def tallied(net, src, dst, message, *args, **kwargs):
            kind = type(message).__name__
            tracer.message_types[kind] += 1
            if kind == "Accept" and isinstance(message.value, Batch):
                tracer.batches += 1
                tracer.batched_values += len(message.value.values)
            return send(net, src, dst, message, *args, **kwargs)

        tallied.__wrapped__ = send
        return tallied

    # -- results -------------------------------------------------------------

    def freeze(self) -> None:
        """Keep the totals so far; later calls (the drain) still run
        wrapped but are not reported."""
        self.frozen = Frozen(
            list(self.self_ns), list(self.calls), Counter(self.message_types),
            self.batches, self.batched_values, len(self.span_layer),
        )

    def write_spans(self, path) -> int:
        """Write the spans up to :meth:`freeze` (all when not frozen) as
        gzipped TSV (span, layer, start_ns, dur_ns, parent, command);
        returns the number written."""
        names = self.layers
        count = self.frozen.spans if self.frozen else len(self.span_layer)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tlayer\tstart_ns\tdur_ns\tparent\tcommand\n")
            for sid in range(count):
                layer = self.span_layer[sid]
                fh.write(
                    f"{sid}\t{names[layer]}\t{self.span_start[sid]}\t"
                    f"{self.span_dur[sid]}\t{self.span_parent[sid]}\t"
                    f"{self.span_cmd[sid] or ''}\n"
                )
        return count
