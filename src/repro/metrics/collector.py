"""Run-level metric collection.

Gathers every measure the paper defines (Section IV-C):

* overall completion time (the primary metric);
* average time to read a block, overall and per node (the per-node split
  feeds the benefit-distribution analysis behind Fig. 1 / the lfp anomaly);
* cache hit ratio, split into *ready* and *unready* hits, plus hit-wait
  times;
* average effective disk access time (delegated to the Disk objects);
* blocks prefetched vs demand-fetched;
* per-idle-kind necessary/actual idle times and prefetch overrun
  (delegated to the Nodes);
* prefetch action lengths and failure reasons;
* synchronization waits (delegated to the Barrier);
* fault-injection counters (per-disk errors / retries / timeouts and
  circuit-breaker transitions) — all zero on healthy runs;
* write-path counters (write latencies, dirty peak, flushes by reason,
  throttle stalls — docs/writes.md) — all zero on read-only runs, and
  kept strictly apart from the read-side tallies so every paper-facing
  read measure means exactly what it meant before writes existed.

The collector is write-mostly during a run; derived ratios are computed on
demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.monitor import Tally

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = ["RunMetrics"]


class RunMetrics:
    """Accumulates the measurements of one experimental run."""

    def __init__(self, env: "Environment", n_nodes: int) -> None:
        self.env = env
        self.n_nodes = n_nodes

        # Block reads.
        self.read_times = Tally("read_time")
        self.read_times_by_node: List[Tally] = [
            Tally(f"read_time.node{i}", keep_samples=False)
            for i in range(n_nodes)
        ]

        # Cache outcome counters.
        self.hits_ready = 0
        self.hits_unready = 0
        self.misses = 0
        self.hits_ready_by_node = [0] * n_nodes
        self.hits_unready_by_node = [0] * n_nodes
        self.misses_by_node = [0] * n_nodes

        #: Positive waits on unready hits (the hit-wait time).
        self.hit_wait = Tally("hit_wait", keep_samples=False)

        # Fetch counters.
        self.blocks_demand_fetched = 0
        self.blocks_prefetched = 0
        #: Prefetched blocks evicted or invalidated before their first
        #: demand hit (wasted prefetches that left the cache mid-run;
        #: blocks still unused when the run ends are counted separately
        #: by the runner from the cache's live budget).
        self.prefetch_unused_evictions = 0
        #: Prefetches killed by a failed fetch (retry exhaustion on a
        #: fail-stopped disk) — written off, distinct from ordinary
        #: unused evictions: the block never arrived at all.
        self.prefetch_write_offs = 0

        # Prefetch actions.
        self.prefetch_action_times = Tally(
            "prefetch_action", keep_samples=False
        )
        self.failed_action_times = Tally(
            "failed_prefetch_action", keep_samples=False
        )
        self.prefetch_outcomes: Dict[str, int] = {}

        # Synchronization (filled in by the workload at run end).
        self.sync_waits = Tally("sync_wait", keep_samples=False)

        # Fault injection (populated by the resilience layer; all empty
        # on healthy runs).
        self.disk_errors: Dict[int, int] = {}
        self.disk_retries: Dict[int, int] = {}
        self.disk_timeouts: Dict[int, int] = {}
        #: ``(time, disk_id, old_state, new_state)`` in event order.
        self.breaker_transitions: List[Tuple[float, int, str, str]] = []
        #: Fail-slow detector flag transitions,
        #: ``(time, disk_id, "detected"|"cleared")`` in event order.
        self.failslow_events: List[Tuple[float, int, str]] = []

        # Write path (all zero on read-only runs; docs/writes.md).
        self.write_times = Tally("write_time")
        self.write_hits = 0
        self.write_misses = 0
        self.write_hits_by_node = [0] * n_nodes
        self.write_misses_by_node = [0] * n_nodes
        #: High-water mark of the dirty-block count.
        self.dirty_peak = 0
        #: Writebacks *started*, by reason: "background" (flusher),
        #: "throttle" (dirty_ratio stall), "eviction" (clean-before-
        #: reclaim), "write-through".
        self.flushes_by_reason: Dict[str, int] = {}
        #: Writebacks whose disk write completed.
        self.flushes_completed = 0
        #: Writebacks that exhausted their retries (block stayed dirty).
        self.flush_failures = 0
        #: Foreground dirty-ratio stalls (the Linux throttle).
        self.throttle_stalls = Tally("throttle_stall", keep_samples=False)
        # Flusher-daemon actions (the writeback twin of prefetch actions).
        self.flush_action_times = Tally("flush_action", keep_samples=False)
        self.failed_flush_action_times = Tally(
            "failed_flush_action", keep_samples=False
        )
        self.flush_outcomes: Dict[str, int] = {}

        # Run span.
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    # -- recording ------------------------------------------------------------

    def begin_run(self) -> None:
        self.start_time = self.env.now

    def end_run(self) -> None:
        self.end_time = self.env.now

    def record_read(self, node_id: int, duration: float) -> None:
        self.read_times.record(duration)
        self.read_times_by_node[node_id].record(duration)

    def record_ready_hit(self, node_id: int) -> None:
        self.hits_ready += 1
        self.hits_ready_by_node[node_id] += 1

    def record_unready_hit(self, node_id: int) -> None:
        self.hits_unready += 1
        self.hits_unready_by_node[node_id] += 1

    def record_hit_wait(self, wait: float) -> None:
        self.hit_wait.record(wait)

    def record_miss(self, node_id: int) -> None:
        self.misses += 1
        self.misses_by_node[node_id] += 1
        self.blocks_demand_fetched += 1

    def record_prefetch_issued(self) -> None:
        self.blocks_prefetched += 1

    def record_unused_prefetch_eviction(self) -> None:
        """One prefetched block left the cache without a demand hit."""
        self.prefetch_unused_evictions += 1

    def record_prefetch_write_off(self) -> None:
        """One in-flight prefetch died with its disk (fetch failure)."""
        self.prefetch_write_offs += 1

    def record_prefetch_action(
        self, duration: float, outcome: str
    ) -> None:
        """One prefetch action (successful or not) of ``duration`` ms."""
        self.prefetch_outcomes[outcome] = (
            self.prefetch_outcomes.get(outcome, 0) + 1
        )
        if outcome == "success":
            self.prefetch_action_times.record(duration)
        else:
            self.failed_action_times.record(duration)

    def record_write(self, node_id: int, duration: float) -> None:
        """One application-visible write latency (see
        :meth:`~repro.fs.fileserver.FileServer.write_block` for what the
        latency includes per write mode)."""
        self.write_times.record(duration)

    def record_write_hit(self, node_id: int) -> None:
        """A write found its block's buffer present (ready or unready)."""
        self.write_hits += 1
        self.write_hits_by_node[node_id] += 1

    def record_write_miss(self, node_id: int) -> None:
        """A write allocated a fresh dirty buffer (no read I/O)."""
        self.write_misses += 1
        self.write_misses_by_node[node_id] += 1

    def record_dirty_level(self, count: int) -> None:
        if count > self.dirty_peak:
            self.dirty_peak = count

    def record_flush(self, reason: str) -> None:
        """One writeback started (reason: background / throttle /
        eviction / write-through)."""
        self.flushes_by_reason[reason] = (
            self.flushes_by_reason.get(reason, 0) + 1
        )

    def record_flush_complete(self) -> None:
        self.flushes_completed += 1

    def record_flush_failure(self) -> None:
        self.flush_failures += 1

    def record_throttle_stall(self, duration: float) -> None:
        """One foreground dirty-ratio stall of ``duration`` ms."""
        self.throttle_stalls.record(duration)

    def record_flush_action(self, duration: float, outcome: str) -> None:
        """One flusher-daemon action (successful or not)."""
        self.flush_outcomes[outcome] = (
            self.flush_outcomes.get(outcome, 0) + 1
        )
        if outcome == "success":
            self.flush_action_times.record(duration)
        else:
            self.failed_flush_action_times.record(duration)

    def record_disk_error(self, disk_id: int) -> None:
        """One errored disk completion observed by the resilience layer."""
        self.disk_errors[disk_id] = self.disk_errors.get(disk_id, 0) + 1

    def record_retry(self, disk_id: int) -> None:
        """One retry (re-issue after error/timeout + backoff)."""
        self.disk_retries[disk_id] = self.disk_retries.get(disk_id, 0) + 1

    def record_timeout(self, disk_id: int) -> None:
        """One per-request timeout expiry."""
        self.disk_timeouts[disk_id] = self.disk_timeouts.get(disk_id, 0) + 1

    def record_breaker_transition(
        self, disk_id: int, old_state: str, new_state: str
    ) -> None:
        self.breaker_transitions.append(
            (self.env.now, disk_id, old_state, new_state)
        )

    def record_failslow(self, disk_id: int, transition: str) -> None:
        """One fail-slow detector flag transition."""
        self.failslow_events.append((self.env.now, disk_id, transition))

    # -- derived quantities -----------------------------------------------------

    @property
    def total_disk_errors(self) -> int:
        return sum(self.disk_errors.values())

    @property
    def total_retries(self) -> int:
        return sum(self.disk_retries.values())

    @property
    def total_timeouts(self) -> int:
        return sum(self.disk_timeouts.values())

    @property
    def breaker_opens(self) -> int:
        """Number of closed/half-open -> open transitions."""
        return sum(
            1 for _, _, _, new in self.breaker_transitions if new == "open"
        )

    @property
    def failslow_detections(self) -> int:
        """Number of fail-slow windows the online detector opened."""
        return sum(
            1 for _, _, what in self.failslow_events if what == "detected"
        )

    @property
    def total_accesses(self) -> int:
        return self.hits_ready + self.hits_unready + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses finding a buffer reserved for their block
        (ready *or* unready — the paper's generous definition)."""
        total = self.total_accesses
        if total == 0:
            return 0.0
        return (self.hits_ready + self.hits_unready) / total

    @property
    def miss_ratio(self) -> float:
        return 1.0 - self.hit_ratio

    @property
    def ready_hit_fraction(self) -> float:
        """Fraction of all accesses served by ready hits."""
        total = self.total_accesses
        return self.hits_ready / total if total else 0.0

    @property
    def unready_hit_fraction(self) -> float:
        """Fraction of all accesses served by unready hits."""
        total = self.total_accesses
        return self.hits_unready / total if total else 0.0

    @property
    def avg_read_time(self) -> float:
        return self.read_times.mean

    @property
    def avg_hit_wait(self) -> float:
        """Mean positive wait over *unready* hits (0 when none occurred)."""
        return self.hit_wait.mean

    @property
    def avg_hit_wait_all_hits(self) -> float:
        """Mean hit-wait over **all** hits, counting ready hits as zero —
        the paper's definition ("ready buffer hits have a zero hit-wait
        time", Section V-A)."""
        hits = self.hits_ready + self.hits_unready
        if hits == 0:
            return 0.0
        return self.hit_wait.total / hits

    @property
    def total_time(self) -> float:
        if self.start_time is None or self.end_time is None:
            raise RuntimeError("run not complete")
        return self.end_time - self.start_time

    @property
    def total_fetches(self) -> int:
        """Disk reads issued (demand + prefetch)."""
        return self.blocks_demand_fetched + self.blocks_prefetched

    @property
    def total_writes(self) -> int:
        return self.write_hits + self.write_misses

    @property
    def flush_count(self) -> int:
        """Writebacks started, over all reasons."""
        return sum(self.flushes_by_reason.values())

    @property
    def avg_write_time(self) -> float:
        return self.write_times.mean

    @property
    def throttle_stall_time(self) -> float:
        """Total time foreground writers spent in dirty-ratio stalls."""
        return self.throttle_stalls.total

    def per_node_mean_read_times(self) -> List[float]:
        return [t.mean for t in self.read_times_by_node]

    def benefit_imbalance(self) -> float:
        """Spread of per-node mean read times: (max - min) / overall mean.

        Zero when prefetching benefits are perfectly evenly distributed;
        large values flag the Fig. 1(b) pathology.
        """
        means = [t.mean for t in self.read_times_by_node if t.count]
        if not means or self.read_times.mean == 0:
            return 0.0
        return (max(means) - min(means)) / self.read_times.mean
