"""Fixed reference loop used to correct host timings for machine speed.

On a shared VM the same seeded run's wall time drifts by tens of
percent between processes, and process CPU time drifts with it.  The
benchmark therefore follows every short chunk of simulation with this
loop and reports simulator seconds scaled by ``nominal / measured``
reference seconds.  The loop imitates the simulator's hot path --
pointer chasing through slotted objects, attribute loads, small Python
calls and int-keyed dict lookups -- so that cache and frequency
contention slow both alike.

It imports nothing from ``repro``, allocates no GC-tracked object while
timed, and runs with the collector paused.
"""

from __future__ import annotations

import gc
import random
import time

#: Iterations of one timed reference pass (about 10 ms on a 2-core VM).
ITERATIONS = 30_000
_NODES = 1 << 12
_KEYS = 1 << 11


class _Node:
    __slots__ = ("a", "b", "nxt")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b
        self.nxt = None


def _step(acc: int, node: _Node) -> int:
    return (acc + node.a * 3 - node.b) & 0xFFFFFF


class ReferenceLoop:
    """Prebuilt state for the loop; :meth:`seconds` times one pass."""

    def __init__(self, seed: int = 5) -> None:
        rng = random.Random(seed)
        nodes = [_Node(i, (i * 2654435761) & 0xFFFF) for i in range(_NODES)]
        order = list(range(_NODES))
        rng.shuffle(order)
        for i, j in enumerate(order):
            nodes[order[i - 1]].nxt = nodes[j]
        self._start = nodes[0]
        self._nodes = nodes
        self._table = {rng.getrandbits(40): i for i in range(_KEYS)}
        keys = list(self._table)
        rng.shuffle(keys)
        self._keys = keys

    def run(self, iterations: int = ITERATIONS) -> int:
        """One pass of the loop; returns a checksum so it cannot be
        optimised away."""
        node = self._start
        table = self._table
        keys = self._keys
        mask = _KEYS - 1
        step = _step
        acc = 0
        for i in range(iterations):
            acc = step(acc, node) + table[keys[(i * 7919) & mask]]
            node = node.nxt
        return acc

    def seconds(self, iterations: int = ITERATIONS) -> float:
        """Wall seconds of one pass, with the collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.run(iterations)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
