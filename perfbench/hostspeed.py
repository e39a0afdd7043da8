"""Host-speed probes: fixed pure-Python workloads timed during each unit.

The benchmark host is shared, and its speed drifts by up to ~1.7x over
seconds to tens of seconds (the same interpreter loop measured 43-100 ms
within one minute).  A wall-clock figure taken on such a host measures
the neighbours as much as the simulator.  So while a unit runs, a
:class:`Sampler` thread takes a ~1-2 ms probe every ``PERIOD_S``, and the
unit's time, less the probes' own time, is divided by the host's
slowdown over the unit:

    slowdown = geometric mean over probe kinds of
               median(probe times inside the unit) / reference time

Neighbours slow different code by different amounts, so there are two
kinds of probe: ``loop`` (a small heap-and-generator event loop plus dict
churn, cache-resident) and ``memory`` (pseudo-random hops across 20k
objects and a 20k-entry heap, a working set of several MB, like the
1000-node runs).  On units of paper-suite and scale-1000 over 160 s
of a noisy host, the per-unit spread (interquartile range over median)
was 15-40% raw, 8-16% scaled by ``loop`` alone and 6-11% by the two
together.  Both probes live entirely in the benchmark, so no change to
``src/`` can speed them up or slow them down.
"""

from __future__ import annotations

import heapq
import math
import statistics
import threading
import time
from typing import Callable, List, Tuple

__all__ = ["PERIOD_S", "REFERENCE_S", "Sampler", "scale"]

#: Seconds between probes while a unit runs (the probes take ~5% of it,
#: which is subtracted again).
PERIOD_S = 0.025

#: Median time of each probe kind at the reference host speed, measured
#: on a 2-CPU x86-64 container under CPython 3.11 while the benchmark was
#: defined.  Constants, so scaled times from different runs and commits
#: compare directly.
REFERENCE_S = {"loop": 0.0013, "memory": 0.0012}

_LOOP_STEPS = 1000
_MEMORY_STEPS = 400
_MEMORY_OBJECTS = 20_000


class _Clock:
    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


def _process(clock: _Clock, index: int):
    delay = 1.0 + (index % 7) * 0.5
    while True:
        yield clock.now + delay


def _loop_probe() -> None:
    """64 generator processes on a heap, then dict churn over 1k keys."""
    clock = _Clock()
    procs = [_process(clock, i) for i in range(64)]
    heap = [(next(proc), i, i) for i, proc in enumerate(procs)]
    heapq.heapify(heap)
    seq = len(procs)
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(_LOOP_STEPS):
        clock.now, _, index = pop(heap)
        seq += 1
        push(heap, (procs[index].send(None), seq, index))
    table: dict = {}
    total = 0
    for i in range(_LOOP_STEPS * 4):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)


class _Node:
    __slots__ = ("time", "visits", "pending")

    def __init__(self) -> None:
        self.time = 0.0
        self.visits = 0
        self.pending: list = []


class _World:
    """State the ``memory`` probe walks; built once per sampler."""

    def __init__(self) -> None:
        n = _MEMORY_OBJECTS
        self.nodes = [_Node() for _ in range(n)]
        self.heap = [(float(i % 97), i, i) for i in range(n)]
        heapq.heapify(self.heap)
        self.seq = n

    def probe(self) -> None:
        heap, nodes, n = self.heap, self.nodes, len(self.nodes)
        pop, push = heapq.heappop, heapq.heappush
        seq = self.seq
        for _ in range(_MEMORY_STEPS):
            when, _, index = pop(heap)
            node = nodes[index]
            node.visits += 1
            node.time = when
            hop = (index * 7919 + node.visits * 104729) % n
            seq += 1
            item = (when + 1.0 + (hop % 13) * 0.25, seq, hop)
            push(heap, item)
            node.pending.append(item)
            if len(node.pending) > 3:
                node.pending.clear()
        self.seq = seq


class Sampler:
    """Takes the probes in turn every :data:`PERIOD_S` on a thread.

    Use as a context manager around the timed work; then
    :meth:`slowdown` gives the host's slowdown over any interval inside
    it, and :meth:`busy` the time the probes themselves took from it.
    """

    def __init__(self) -> None:
        world = _World()
        self._probes: List[Tuple[str, Callable[[], None]]] = [
            ("loop", _loop_probe),
            ("memory", world.probe),
        ]
        #: (start, duration, kind) of each probe, in start order.
        self.samples: List[Tuple[float, float, str]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="hostspeed", daemon=True
        )

    def _loop(self) -> None:
        turn = 0
        while not self._stop.wait(PERIOD_S):
            kind, probe = self._probes[turn % len(self._probes)]
            turn += 1
            start = time.perf_counter()
            probe()
            self.samples.append((start, time.perf_counter() - start, kind))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _window(self, start: float, end: float, kind: str) -> List[float]:
        """Durations of ``kind`` probes that started inside [start, end];
        if none did, of the three nearest the interval's middle."""
        of_kind = [(s, d) for s, d, k in list(self.samples) if k == kind]
        inside = [d for s, d in of_kind if start <= s <= end]
        if inside:
            return inside
        middle = (start + end) / 2
        nearest = sorted(of_kind, key=lambda sd: abs(sd[0] - middle))[:3]
        if not nearest:
            raise RuntimeError(f"no {kind} host-speed samples")
        return [d for _, d in nearest]

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than the reference the host ran over
        [start, end]: the geometric mean over probe kinds."""
        logs = [
            math.log(
                statistics.median(self._window(start, end, kind))
                / REFERENCE_S[kind]
            )
            for kind, _ in self._probes
        ]
        return math.exp(statistics.fmean(logs))

    def busy(self, start: float, end: float) -> float:
        """Seconds spent probing in this process during [start, end]."""
        return sum(d for s, d, _ in list(self.samples) if start <= s <= end)


def scale(seconds: float, slowdown: float) -> float:
    """``seconds`` of work rescaled to the reference host speed."""
    return seconds / slowdown
