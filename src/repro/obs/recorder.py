"""Wiring the span tracer and metric timelines into a live run.

:class:`ObsRecorder` is a
:class:`~repro.experiments.runner.RunInstrumentation` that attaches
*passive* observers to the stack as it is built:

* the per-disk ``request_observer`` (queue-wait and service spans —
  write requests appear with their own kind, for free),
* the per-daemon ``action_observer`` (daemon CPU slices), and its
  writeback-flusher sibling (the ``("writeback", node)`` lane),
* the file server's ``obs_read_observer`` (demand-read spans),
  ``obs_write_observer`` (write spans), and ``throttle_observer``
  (foreground dirty-throttle / write-through stalls, also on the
  writeback lane),
* a :class:`~repro.obs.timeline.TimelineSampler` clock observer that
  snapshots cache occupancy, prefetched-unused count, per-disk queue
  depth, and per-node CPU busy state on sim-time boundaries, and
* — on faulted runs — a per-disk *fault lane* assembled post-run from
  the resilience layer's event log: breaker open/half-open segments,
  detector fail-slow windows, and zero-length error/timeout/retry
  markers, so degraded periods render alongside the demand stalls they
  cause.

Every hook is a plain callback slot that defaults to ``None`` — the
simulator pays one ``is not None`` test per completion when tracing is
off, and *no* callback ever creates an event, draws randomness, or
mutates simulation state.  That is the invariant that keeps an
obs-enabled run's event-trace hash bit-identical to a bare run's (see
``tests/obs/test_determinism.py``).

Zero-overhead-when-disabled is therefore literal: nothing in this module
is imported by the simulation hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .attribution import attribution_digest
from .spans import SpanLog, Track
from .timeline import TimelineRegistry, TimelineSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import ExperimentConfig
    from ..experiments.runner import RunResult
    from ..faults.layer import ResilienceLayer
    from ..fs.cache import BlockCache
    from ..fs.fileserver import FileServer
    from ..machine.disk import Disk, DiskRequest
    from ..machine.machine import Machine
    from ..machine.node import Node
    from ..sim.core import Environment
    from ..sim.process import Process

__all__ = ["ObsConfig", "ObsData", "ObsRecorder", "run_with_obs"]

#: Fault-log kinds rendered as zero-length markers on the fault lane
#: (breaker transitions become segments, failslow windows come from the
#: detector instead so a still-open flag is closed at run end).
_FAULT_MARKS = ("error", "timeout", "retry", "exhausted")


@dataclass(frozen=True)
class ObsConfig:
    """Observability tunables."""

    #: Sim-time ms between timeline samples.
    sample_interval: float = 50.0

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")


@dataclass
class ObsData:
    """Everything one observed run captured, ready for export."""

    label: str
    total_time: float
    n_nodes: int
    n_disks: int
    #: Node ids that ran a prefetch daemon.
    daemon_nodes: List[int]
    spans: SpanLog
    timelines: TimelineRegistry
    #: Node ids that ran a writeback flusher daemon (read-write,
    #: write-back runs only).
    flusher_nodes: List[int] = field(default_factory=list)
    #: Disk ids with a fault lane (every disk of a faulted run — each
    #: has a breaker — and empty on fault-free runs).
    fault_disks: List[int] = field(default_factory=list)
    #: Per-node wall-time decomposition (see :mod:`repro.obs.attribution`).
    attribution: List[dict] = field(default_factory=list)
    #: Provenance digest of the attribution payload.
    digest: str = ""


def _disk_queue_gauge(disk: "Disk") -> Callable[[], float]:
    def read() -> float:
        return float(disk.pending)

    return read


def _node_cpu_gauge(node: "Node") -> Callable[[], float]:
    def read() -> float:
        return float(node.cpu.count)

    return read


class ObsRecorder:
    """Passive run instrumentation: spans + metric timelines."""

    def __init__(self, config: ObsConfig = ObsConfig()) -> None:
        self.config = config
        self.spans = SpanLog()
        self.timelines = TimelineRegistry()
        self._env: Optional["Environment"] = None
        self._machine: Optional["Machine"] = None
        self._cache: Optional["BlockCache"] = None
        self._sampler: Optional[TimelineSampler] = None
        self._daemon_nodes: List[int] = []
        self._flusher_nodes: List[int] = []
        # One shared track tuple per lane, built in on_wired, so a span
        # costs no fresh tuple.
        self._node_tracks: Dict[int, Track] = {}
        self._daemon_tracks: Dict[int, Track] = {}
        self._writeback_tracks: Dict[int, Track] = {}
        self._disk_tracks: Dict[int, Track] = {}
        self._reads = self.timelines.counter("reads.completed")
        self._actions = self.timelines.counter("prefetch.actions")
        self._read_latency = self.timelines.histogram("read.latency")
        self._writes = self.timelines.counter("writes.completed")
        self._flush_actions = self.timelines.counter("writeback.actions")
        self._write_latency = self.timelines.histogram("write.latency")

    # -- RunInstrumentation hooks ---------------------------------------------

    def on_environment(self, env: "Environment") -> None:
        self._env = env

    def on_wired(
        self, env: "Environment", machine: "Machine", cache: "BlockCache"
    ) -> None:
        self._machine = machine
        self._cache = cache
        self.timelines.register_gauge(
            "cache.occupancy", lambda: float(len(cache.table))
        )
        self.timelines.register_gauge(
            "cache.prefetched_unused",
            lambda: float(cache.unused_prefetched),
        )
        self.timelines.register_gauge(
            "cache.dirty", lambda: float(cache.dirty_count)
        )
        for disk in machine.disks:
            self._disk_tracks[disk.disk_id] = ("disk", disk.disk_id)
            disk.request_observer = self._on_disk_request
            self.timelines.register_gauge(
                f"disk{disk.disk_id}.queue", _disk_queue_gauge(disk)
            )
        for node in machine.nodes:
            node_id = node.node_id
            self._node_tracks[node_id] = ("node", node_id)
            self._daemon_tracks[node_id] = ("daemon", node_id)
            self._writeback_tracks[node_id] = ("writeback", node_id)
            self.timelines.register_gauge(
                f"node{node.node_id}.cpu", _node_cpu_gauge(node)
            )
            if node.daemon is not None:
                node.daemon.action_observer = self._on_daemon_action
                self._daemon_nodes.append(node.node_id)
            if node.flusher is not None:
                node.flusher.action_observer = self._on_flusher_action
                self._flusher_nodes.append(node.node_id)
        self._sampler = TimelineSampler(
            self.timelines, self.config.sample_interval
        )
        env.add_clock_observer(self._sampler, self._sampler.interval)

    def on_apps(
        self,
        env: "Environment",
        server: "FileServer",
        apps: List["Process"],
    ) -> None:
        server.obs_read_observer = self._on_read
        server.obs_write_observer = self._on_write
        server.throttle_observer = self._on_throttle

    # -- passive observers ----------------------------------------------------

    def _on_read(
        self,
        node_id: int,
        block: int,
        outcome: str,
        latency: float,
        ref_index: int,
    ) -> None:
        env = self._env
        if env is None:  # pragma: no cover - hooks precede any read
            return
        now = env.now
        self.spans.add(
            self._node_tracks[node_id],
            f"read b{block}",
            f"read:{outcome}",
            now - latency,
            now,
            block=block,
            ref_index=ref_index,
        )
        self._reads.inc()
        self._read_latency.observe(latency)

    def _on_write(
        self,
        node_id: int,
        block: int,
        outcome: str,
        latency: float,
        ref_index: int,
    ) -> None:
        env = self._env
        if env is None:  # pragma: no cover - hooks precede any write
            return
        now = env.now
        self.spans.add(
            self._node_tracks[node_id],
            f"write b{block}",
            f"write:{outcome}",
            now - latency,
            now,
            block=block,
            ref_index=ref_index,
        )
        self._writes.inc()
        self._write_latency.observe(latency)

    def _on_throttle(
        self, node_id: int, start: float, end: float, reason: str
    ) -> None:
        self.spans.add(
            self._writeback_tracks[node_id],
            f"stall:{reason}",
            "writeback:stall",
            start,
            end,
        )

    def _on_flusher_action(
        self, node_id: int, start: float, end: float, outcome: str
    ) -> None:
        self.spans.add(
            self._writeback_tracks[node_id],
            outcome,
            "writeback:action",
            start,
            end,
        )
        self._flush_actions.inc()

    def _on_disk_request(
        self, disk_id: int, request: "DiskRequest"
    ) -> None:
        track = self._disk_tracks[disk_id]
        kind = request.kind.value
        start = request.start_time
        complete = request.complete_time
        if start is None or complete is None:  # pragma: no cover
            return
        if start > request.enqueue_time:
            self.spans.add(
                track,
                f"queue b{request.block}",
                "disk:queue",
                request.enqueue_time,
                start,
                kind=kind,
                node=request.node_id,
            )
        self.spans.add(
            track,
            f"{kind} b{request.block}",
            "disk:service",
            start,
            complete,
            kind=kind,
            node=request.node_id,
            error=request.error,
        )

    def _on_daemon_action(
        self, node_id: int, start: float, end: float, outcome: str
    ) -> None:
        self.spans.add(
            self._daemon_tracks[node_id],
            outcome,
            "daemon:action",
            start,
            end,
        )
        self._actions.inc()

    # -- post-run assembly -----------------------------------------------------

    def finalize(self, result: "RunResult") -> ObsData:
        """Close out sampling and assemble the exportable artifact.

        Called once, after the simulation has run to completion; folds
        in the idle-period spans (barrier waits, I/O stalls, overrun)
        that only exist as node records once the run is over.
        """
        env = self._env
        machine = self._machine
        if env is None or machine is None:
            raise RuntimeError(
                "finalize() before the recorder was wired into a run"
            )
        if self._sampler is not None:
            self._sampler.finalize(env.now)
        for node in machine.nodes:
            track = self._node_tracks[node.node_id]
            for period in node.idle_periods:
                self.spans.add(
                    track,
                    f"wait:{period.kind.value}",
                    f"wait:{period.kind.value}",
                    period.start,
                    period.necessary_end,
                )
                if period.overrun > 0:
                    self.spans.add(
                        track,
                        "overrun",
                        "overrun",
                        period.necessary_end,
                        period.resume,
                    )
        resilience = (
            self._cache.resilience if self._cache is not None else None
        )
        fault_disks: List[int] = []
        if resilience is not None:
            fault_disks = sorted(resilience.breakers)
            self._add_fault_spans(resilience, env.now)
        return ObsData(
            label=result.config.label,
            total_time=result.total_time,
            n_nodes=len(machine.nodes),
            n_disks=len(machine.disks),
            daemon_nodes=list(self._daemon_nodes),
            spans=self.spans,
            timelines=self.timelines,
            flusher_nodes=list(self._flusher_nodes),
            fault_disks=fault_disks,
            attribution=list(result.node_attribution),
            digest=result.obs_digest
            or attribution_digest(result.node_attribution),
        )

    def _add_fault_spans(
        self, resilience: "ResilienceLayer", end: float
    ) -> None:
        """One fault-lifecycle lane per disk, assembled post-run.

        Breaker open/half-open segments are replayed from the fault
        event log (every transition is recorded there with its sim
        time), fail-slow windows come from the detector (a live flag is
        closed at ``end``), and individual error/timeout/retry/
        exhausted events become zero-length markers.  Everything here
        is a read of state the run already produced — the lane cannot
        have perturbed the schedule it depicts.
        """
        live: Dict[int, Tuple[float, str]] = {}
        for event in resilience.log.events:
            track = ("fault", event.disk)
            if event.kind == "breaker":
                prior = live.pop(event.disk, None)
                if prior is not None:
                    start, state = prior
                    self.spans.add(
                        track,
                        f"breaker {state}",
                        "fault:breaker",
                        start,
                        event.time,
                    )
                state = event.detail.partition("->")[2]
                if state != "closed":
                    live[event.disk] = (event.time, state)
            elif event.kind in _FAULT_MARKS:
                self.spans.add(
                    track,
                    event.kind,
                    f"fault:{event.kind}",
                    event.time,
                    event.time,
                    attempt=event.attempt,
                    detail=event.detail,
                )
        for disk_id, (start, state) in sorted(live.items()):
            self.spans.add(
                ("fault", disk_id),
                f"breaker {state}",
                "fault:breaker",
                start,
                end,
            )
        for disk_id, start, stop in resilience.detector.all_windows(end):
            self.spans.add(
                ("fault", disk_id),
                "fail-slow",
                "fault:failslow",
                start,
                stop,
            )


def run_with_obs(
    config: "ExperimentConfig",
    sample_interval: float = 50.0,
) -> Tuple["RunResult", ObsData]:
    """Run one configuration with full observability attached.

    Returns ``(result, obs_data)``.  The run executes the exact same
    event schedule as an unobserved run of the same config — tracing is
    passive — so its measures match the bare run bit for bit.
    """
    from ..experiments.runner import run_experiment

    recorder = ObsRecorder(ObsConfig(sample_interval=sample_interval))
    result = run_experiment(config, instrument=recorder)
    return result, recorder.finalize(result)
