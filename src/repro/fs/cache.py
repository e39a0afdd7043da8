"""The RAPID Transit block cache.

Structure (Section IV-A/IV-D of the paper):

* **Demand buffers** — one per processor (an RU set of size one), managed
  by :class:`~repro.fs.replacement.RUSetPolicy` ("toss-immediately"): a
  processor's demand fetch reuses its own buffer.  Paper total: 20.
* **Prefetch buffers** — three per node, usable only for prefetching.
  They are homed on a node (NUMA) but globally allocatable.  Paper total:
  60, bringing the cache to 80 blocks.
* **Global prefetched-unused budget** — at most ``prefetch_unused_limit``
  blocks may be prefetched-but-not-yet-read at once (paper: 3/processor =
  60).  A prefetch that would exceed it fails.  This budget is the shared
  resource whose uneven consumption produces the lfp slowdown pathology
  (Section V-B).

All metadata operations (hash lookup, buffer allocation, table update)
happen under a single **metadata lock** held for a costed interval; genuine
queueing on this lock reproduces the shared-data-structure contention the
paper observed (prefetch actions slowing from ~5 ms to ~22 ms under
I/O-bound load, Section V-C).

Buffer-state semantics give the paper's *generous* hit definition: finding
a buffer **reserved** for the desired block counts as a hit even when the
I/O is still outstanding (an *unready hit*); the requester then waits out
the remaining I/O — the hit-wait time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Generator, List, Optional

from ..analysis.invariants import invariant
from ..faults.errors import WriteFailedError
from ..machine.disk import RequestKind
from ..sim.events import Event
from ..sim.monitor import Tally
from ..sim.resources import Resource
from .buffer import DATA_PRESENT, Buffer, BufferPool, BufferState
from .file import File
from .replacement import GlobalLRUPolicy, ReplacementPolicy, RUSetPolicy
from .trace import Trace, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.layer import ResilienceLayer
    from ..machine.machine import Machine
    from ..metrics.collector import RunMetrics
    from ..prefetch.policy import PrefetchPolicy
    from .writeback import WritebackConfig

__all__ = ["CacheConfig", "LookupOutcome", "BlockCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Cache sizing and policy parameters."""

    #: Demand buffers per node (paper: 1 — the toss-immediately RU set).
    demand_buffers_per_node: int = 1

    #: Prefetch-only buffers per node (paper: 3).
    prefetch_buffers_per_node: int = 3

    #: Global cap on prefetched-but-unused blocks.  ``None`` means
    #: 3 per node, the paper's setting.
    prefetch_unused_limit: Optional[int] = None

    #: Replacement policy: "ru-set" (paper) or "global-lru" (ablation).
    replacement: str = "ru-set"

    #: Record a full access trace for offline analysis.
    record_trace: bool = True

    def __post_init__(self) -> None:
        if self.demand_buffers_per_node <= 0:
            raise ValueError("demand_buffers_per_node must be positive")
        if self.prefetch_buffers_per_node < 0:
            raise ValueError("prefetch_buffers_per_node must be >= 0")
        if (
            self.prefetch_unused_limit is not None
            and self.prefetch_unused_limit < 0
        ):
            raise ValueError("prefetch_unused_limit must be >= 0")
        if self.replacement not in ("ru-set", "global-lru"):
            raise ValueError(f"unknown replacement {self.replacement!r}")

    def make_replacement(self) -> ReplacementPolicy:
        if self.replacement == "ru-set":
            return RUSetPolicy()
        return GlobalLRUPolicy()

    def unused_limit_for(self, n_nodes: int) -> int:
        if self.prefetch_unused_limit is not None:
            return self.prefetch_unused_limit
        return self.prefetch_buffers_per_node * n_nodes


@dataclass
class LookupOutcome:
    """Result of the demand-side lookup for one block access (reads via
    :meth:`BlockCache.lookup_and_begin`, writes via
    :meth:`BlockCache.write_begin`)."""

    #: "ready" | "unready" | "miss"
    kind: str
    buffer: Buffer
    #: For "unready" and (read-side) "miss": event firing when the data
    #: are in.  A write-side miss has no event — the buffer is assigned
    #: dirty with no read I/O.
    ready_event: Optional[Event] = None


class BlockCache:
    """Shared block cache with demand and prefetch paths.

    The costed entry points are generators meant to be driven with
    ``yield from`` by a process that currently *holds its node's CPU*:

    * :meth:`lookup_and_begin` — demand-side lookup / fetch initiation;
    * :meth:`finish_read` — post-wait accounting for unready hits/misses;
    * :meth:`copy_out` — buffer-to-user copy;
    * :meth:`prefetch_action` — one complete prefetch attempt.
    """

    def __init__(
        self,
        env,
        machine: "Machine",
        file: File,
        config: CacheConfig,
        metrics: "RunMetrics",
    ) -> None:
        self.env = env
        self.machine = machine
        self.file = file
        self.config = config
        self.metrics = metrics
        self.costs = machine.costs
        self.memory = machine.memory

        n_nodes = machine.n_nodes
        self.replacement = config.make_replacement()
        self.unused_limit = config.unused_limit_for(n_nodes)

        self.metadata_lock = Resource(env, capacity=1)
        self.table: Dict[int, Buffer] = {}
        self.unused_prefetched = 0
        #: Buffers currently holding the prefetch budget (invariant check).
        self._budget_holders: set[int] = set()

        self.demand_rusets: List[List[Buffer]] = []
        self.prefetch_sets: List[List[Buffer]] = []
        index = 0
        for node in range(n_nodes):
            ruset = []
            for _ in range(config.demand_buffers_per_node):
                ruset.append(Buffer(env, index, node, BufferPool.DEMAND))
                index += 1
            self.demand_rusets.append(ruset)
        for node in range(n_nodes):
            pset = []
            for _ in range(config.prefetch_buffers_per_node):
                pset.append(Buffer(env, index, node, BufferPool.PREFETCH))
                index += 1
            self.prefetch_sets.append(pset)
        self.n_buffers = index

        self._freed = Event(env)
        self.trace: Optional[Trace] = Trace() if config.record_trace else None
        #: Time demand requests spent waiting for an evictable buffer.
        self.alloc_waits = Tally("alloc_wait", keep_samples=False)
        #: Optional callback ``(node_id, block)`` invoked on every demand
        #: access — feeds on-the-fly predictor policies.
        self.access_observer = None
        #: Optional callback ``(fetched_by, block, reason)`` invoked when
        #: a prefetched block leaves the cache before its first demand
        #: hit — the waste signal the adaptive policy's feedback loop
        #: shrinks on.  ``reason`` is "evicted" (replacement victim /
        #: invalidation) or "fetch_failed" (the disk died mid-fetch and
        #: the prefetch is written off).  Must be passive (no events, no
        #: randomness).
        self.unused_prefetch_observer = None
        #: Optional :class:`~repro.faults.layer.ResilienceLayer`.  When
        #: set (fault-injection runs), block fetches are routed through
        #: its retry/timeout machinery and prefetch issuance is gated by
        #: its per-disk circuit breakers.
        self.resilience: Optional["ResilienceLayer"] = None

        # -- write path (armed by configure_writeback; see docs/writes.md).
        #: Write-path tunables; ``None`` until a read-write run arms them.
        self.writeback: Optional["WritebackConfig"] = None
        #: Foreground-throttle threshold in blocks (``None`` = unarmed:
        #: writes never throttle — unit tests poking write_begin directly).
        self.dirty_limit: Optional[int] = None
        #: Background-flush threshold in blocks.
        self.dirty_background_limit = 0
        #: Buffers currently in state DIRTY (not WRITING: a block leaves
        #: the count when its flush starts and re-enters only if a write
        #: lands mid-flush).
        self.dirty_count = 0
        #: Dirty buffers in first-dirtied order (flush oldest first).
        #: May hold stale entries for buffers no longer DIRTY — consumers
        #: skip them lazily via :meth:`_pop_flushable`.
        self._dirty_queue: Deque[Buffer] = deque()
        #: Optional callback ``(node_id, dirty_count, background_limit)``
        #: fired when a write newly dirties a buffer — the dirty-pressure
        #: signal the adaptive prefetch policy's AIMD loop shrinks on.
        #: Must be passive (no events, no randomness).
        self.write_pressure_observer = None

    # ------------------------------------------------------------------ util

    def _signal_freed(self) -> None:
        """Wake processes waiting for any buffer to become evictable."""
        event, self._freed = self._freed, Event(self.env)
        event.succeed()

    def _op_time(self, local_refs: int, remote_refs: int) -> float:
        """Cost of one locked metadata operation.

        The fixed structure-walk component runs at local speed only in
        the optimized (replicated) layout; the naive layout pays the
        remote penalty on it too.
        """
        return (
            self.costs.cache_metadata_op * self.memory.structure_multiplier()
            + self.memory.reference_time(local_refs, remote_refs)
        )

    def contains(self, block: int) -> bool:
        """Uncosted membership check (policy-side peeking)."""
        return block in self.table

    def buffer_for(self, block: int) -> Optional[Buffer]:
        """The buffer currently holding ``block`` (None if absent)."""
        return self.table.get(block)

    def _release_budget(self, buffer: Buffer) -> None:
        """Return a prefetched-unused block's budget on its first use."""
        if buffer.index in self._budget_holders:
            self._budget_holders.discard(buffer.index)
            self.unused_prefetched -= 1
            invariant(
                self.unused_prefetched >= 0,
                "prefetch-unused budget went negative",
                self.unused_prefetched,
            )

    def _note_unused_eviction(
        self, buffer: Buffer, reason: str = "evicted"
    ) -> None:
        """Account a prefetched block leaving the cache before its first
        demand hit (caller is about to invalidate/abort the buffer).

        A "fetch_failed" departure is a *write-off* — the block never
        arrived — and is booked separately from ordinary unused
        evictions so waste and fault damage stay distinguishable.
        """
        if (
            buffer.fetch_kind is RequestKind.PREFETCH
            and buffer.read_count == 0
            and buffer.block is not None
        ):
            if reason == "fetch_failed":
                self.metrics.record_prefetch_write_off()
            else:
                self.metrics.record_unused_prefetch_eviction()
            if self.unused_prefetch_observer is not None:
                self.unused_prefetch_observer(
                    buffer.fetched_by, buffer.block, reason
                )

    def _evict(self, victim: Buffer) -> None:
        """Detach the victim's current block (caller holds the lock)."""
        if victim.block is not None:
            current = self.table.get(victim.block)
            if current is victim:
                del self.table[victim.block]
        if victim.state is not BufferState.EMPTY:
            self._note_unused_eviction(victim)
            self._release_budget(victim)  # defensive; unused are protected
            victim.invalidate()

    # ----------------------------------------------------- write-path state

    def configure_writeback(self, config: "WritebackConfig") -> None:
        """Arm the write path: fix the dirty thresholds in blocks.
        Read-only runs never call this, so ``dirty_limit`` stays ``None``
        and every write-path branch stays dead."""
        self.writeback = config
        self.dirty_limit = config.dirty_limit_for(self.n_buffers)
        self.dirty_background_limit = config.background_limit_for(
            self.n_buffers
        )

    @property
    def write_mode(self) -> str:
        return (
            self.writeback.write_mode
            if self.writeback is not None
            else "write-back"
        )

    @property
    def throttle_needed(self) -> bool:
        """Must the foreground writer flush synchronously before its
        write returns (the Linux ``dirty_ratio`` stall)?"""
        return (
            self.dirty_limit is not None
            and self.write_mode == "write-back"
            and self.dirty_count >= self.dirty_limit
        )

    def _note_newly_dirty(
        self, buffer: Buffer, node_id: Optional[int] = None
    ) -> None:
        """A buffer just transitioned into DIRTY: count it, queue it for
        flushing, and (when a writer caused it) fire the dirty-pressure
        observer.  ``node_id`` is None for interrupt-context transitions
        (re-dirty at flush completion, flush failure)."""
        self.dirty_count += 1
        self._dirty_queue.append(buffer)
        self.metrics.record_dirty_level(self.dirty_count)
        if node_id is not None and self.write_pressure_observer is not None:
            self.write_pressure_observer(
                node_id, self.dirty_count, self.dirty_background_limit
            )

    def _pop_flushable(self) -> Optional[Buffer]:
        """Pop the oldest buffer that is still DIRTY, discarding stale
        queue entries (blocks already flushed or mid-writeback)."""
        queue = self._dirty_queue
        while queue:
            buffer = queue.popleft()
            if buffer.state is BufferState.DIRTY:
                return buffer
        return None

    def _begin_flush(
        self, buffer: Buffer, node_id: int, reason: str
    ) -> Event:
        """Start a writeback (caller holds the metadata lock and has
        taken ``buffer`` off the dirty queue): DIRTY -> WRITING plus the
        dirty accounting.  The caller must still pay the disk-enqueue
        cost and call :meth:`_issue_write`; until then the returned write
        event exists but cannot fire."""
        event = buffer.start_writeback()
        self.dirty_count -= 1
        invariant(
            self.dirty_count >= 0,
            "dirty counter went negative",
            self.dirty_count,
        )
        self.metrics.record_flush(reason)
        return event

    def _issue_write(self, buffer: Buffer, node_id: int) -> None:
        """Send the writeback to the block's disk — through the
        resilience layer's retry machinery under a fault plan."""
        block = buffer.block
        invariant(block is not None, "writeback of an empty buffer", buffer)
        disk = self.machine.disk_for_block(self.file.disk_for(block))
        if self.resilience is not None:
            self.resilience.fetch(
                disk,
                block,
                RequestKind.WRITE,
                node_id,
                on_success=lambda buf=buffer: self._write_complete(buf),
                on_failure=lambda exc, buf=buffer: self.write_failed(
                    buf, exc
                ),
            )
            return
        request = disk.submit(block, RequestKind.WRITE, node_id)
        request.done.callbacks.append(
            lambda ev, buf=buffer: self._write_complete(buf)
        )

    def _write_complete(self, buffer: Buffer) -> None:
        """Disk-write completion (interrupt context — uncosted): the
        buffer comes out clean unless a write landed mid-flush, in which
        case it goes straight back on the dirty queue."""
        clean = buffer.writeback_complete()
        self.metrics.record_flush_complete()
        if clean:
            self._signal_freed()  # now evictable
        else:
            self._note_newly_dirty(buffer)

    def write_failed(self, buffer: Buffer, error: BaseException) -> None:
        """A writeback exhausted its retries (interrupt context): the
        data are still in memory, so the block simply returns to the
        dirty queue; the write event is *failed* so any foreground flush
        waiter has ``error`` raised into it.  With no waiters (a
        background flush) the defused failure is inert and the block
        awaits a later flush attempt."""
        block = buffer.block
        event = buffer.writeback_failed()
        self._note_newly_dirty(buffer)
        self.metrics.record_flush_failure()
        event.fail(
            WriteFailedError(
                f"writeback of block {block} failed permanently: {error}"
            )
        )
        event.defuse()

    # --------------------------------------------------------- demand path

    def lookup_and_begin(
        self, node_id: int, block: int
    ) -> Generator[Event, None, LookupOutcome]:
        """Demand-side lookup; caller holds its CPU and is inside the
        memory system (``memory.enter()`` done by the file server).

        Returns a :class:`LookupOutcome`.  For a miss the disk request has
        been enqueued; the caller waits on ``ready_event`` either way.

        Concurrency contract: at most one demand read may be in flight
        per node (the paper's one-user-process-per-node model).  The
        allocation wait below holds the node's CPU; a second reader on
        the same node could otherwise block its sibling's completion
        (which needs that CPU to unpin its buffer).
        """
        if self.access_observer is not None:
            self.access_observer(node_id, block)
        wait_start = self.env.now
        lock_req = self.metadata_lock.request()
        yield lock_req
        # Hash probe: mostly local with one remote reference.
        yield self.env.batched_timeout(self._op_time(local_refs=1, remote_refs=1))

        while True:
            buffer = self.table.get(block)
            if buffer is not None and buffer.state in DATA_PRESENT:
                # READY, or dirty/writing-back: data served from memory.
                self._release_budget(buffer)
                buffer.record_use()
                buffer.pin()  # held across the copy
                self.metrics.record_ready_hit(node_id)
                self.metadata_lock.release(lock_req)
                return LookupOutcome(kind="ready", buffer=buffer)

            if buffer is not None:  # FETCHING: unready hit
                self._release_budget(buffer)
                buffer.pin()  # protect while we wait
                self.metrics.record_unready_hit(node_id)
                event = buffer.ready_event
                self.metadata_lock.release(lock_req)
                return LookupOutcome(
                    kind="unready", buffer=buffer, ready_event=event
                )

            # Miss so far: find a demand buffer.  If everything is pinned,
            # wait for a release and *re-check the table* — the block may
            # have been fetched by another node in the meantime.
            victim = self.replacement.demand_victim(self, node_id)
            if victim is not None:
                break
            yield from self._reclaim_wait(node_id, lock_req)
            lock_req = self.metadata_lock.request()
            yield lock_req

        self.metrics.record_miss(node_id)
        self.alloc_waits.record(self.env.now - wait_start)

        # Allocation + table update: another costed metadata operation.
        yield self.env.batched_timeout(self._op_time(local_refs=1, remote_refs=2))
        self._evict(victim)
        ready_event = victim.start_fetch(block, RequestKind.DEMAND, node_id)
        self.table[block] = victim
        victim.pin()  # requester's claim until its read completes
        self.metadata_lock.release(lock_req)

        # Enqueue the disk request (outside the lock).
        yield self.env.batched_timeout(self.costs.disk_enqueue_time)
        disk = self.machine.disk_for_block(self.file.disk_for(block))
        self._issue_fetch(disk, block, RequestKind.DEMAND, node_id, victim)
        return LookupOutcome(
            kind="miss", buffer=victim, ready_event=ready_event
        )

    def _reclaim_wait(
        self, node_id: int, lock_req
    ) -> Generator[Event, None, None]:
        """No evictable buffer: release the lock and wait for capacity.

        When dirty blocks are (part of) the reason, force the oldest one
        out synchronously — the Linux clean-before-reclaim rule — rather
        than deadlocking on a cache full of unwritten data; otherwise
        wait for any buffer to be freed.  Read-only runs never have a
        dirty queue, so they always take the second branch unchanged.
        The caller re-acquires the lock afterwards.
        """
        flush_target = self._pop_flushable()
        if flush_target is not None:
            wait_event = self._begin_flush(flush_target, node_id, "eviction")
            self.metadata_lock.release(lock_req)
            yield self.env.batched_timeout(self.costs.disk_enqueue_time)
            self._issue_write(flush_target, node_id)
            # A permanently failed flush fails this event: the stalled
            # requester surfaces the error, same as a failed demand fetch.
            yield wait_event
        else:
            self.metadata_lock.release(lock_req)
            yield self._freed

    def _issue_fetch(self, disk, block, kind, node_id, buffer) -> None:
        """Send a block fetch to ``disk``, directly or — under a fault
        plan — through the resilience layer's retry machinery."""
        if self.resilience is not None:
            self.resilience.fetch(
                disk,
                block,
                kind,
                node_id,
                on_success=lambda buf=buffer: self._fetch_complete(buf),
                on_failure=lambda exc, buf=buffer: self.fetch_failed(
                    buf, exc
                ),
            )
            return
        request = disk.submit(block, kind, node_id)
        request.done.callbacks.append(
            lambda ev, buf=buffer: self._fetch_complete(buf)
        )

    def _fetch_complete(self, buffer: Buffer) -> None:
        """Disk completion: data present, wake waiters (interrupt context —
        uncosted, modelling DMA + completion interrupt)."""
        buffer.mark_ready()
        self._signal_freed()

    def fetch_failed(self, buffer: Buffer, error: BaseException) -> None:
        """A fetch exhausted its retries (interrupt context): untable the
        buffer, return any prefetch budget, and *fail* the ready event so
        every waiter has ``error`` raised into it.  With no waiters (a
        failed prefetch) the defused failure is inert and the buffer is
        simply empty again."""
        if buffer.block is not None and self.table.get(buffer.block) is buffer:
            del self.table[buffer.block]
        self._note_unused_eviction(buffer, reason="fetch_failed")
        self._release_budget(buffer)
        event = buffer.abort_fetch()
        event.fail(error)
        event.defuse()
        self._signal_freed()

    def complete_read(self, node_id: int, buffer: Buffer) -> None:
        """Post-wait accounting for unready hits and misses: the data are
        now present; count the use.  The requester's pin is released by
        :meth:`copy_out`.  (Counters are node-local: uncosted.)"""
        buffer.record_use()

    def copy_out(self, buffer: Buffer) -> Generator[Event, None, None]:
        """Copy the block from the (typically remote) buffer to user
        memory, then drop the requester's pin."""
        yield self.env.batched_timeout(
            self.costs.block_copy_time * self.memory.contention_multiplier()
        )
        buffer.unpin()
        self._signal_freed()

    def record_access(
        self,
        node_id: int,
        block: int,
        outcome: str,
        latency: float,
        ref_index: int = -1,
    ) -> None:
        """Append to the offline-analysis trace."""
        if self.trace is not None:
            self.trace.append(
                TraceRecord(
                    time=self.env.now,
                    node=node_id,
                    block=block,
                    outcome=outcome,
                    latency=latency,
                    ref_index=ref_index,
                )
            )

    # ----------------------------------------------------------- write path

    def write_begin(
        self, node_id: int, block: int
    ) -> Generator[Event, None, LookupOutcome]:
        """Write-side lookup; caller holds its CPU and is inside the
        memory system.  Mirrors :meth:`lookup_and_begin` with one
        structural difference: a miss allocates the buffer *dirty* with
        no read I/O — every write in this model overwrites the whole
        block, so there is nothing to fetch first (no read-modify-write;
        see docs/writes.md).

        Outcomes: "ready" (data present — READY, DIRTY or WRITING — and
        the buffer is re-dirtied), "unready" (read I/O outstanding; the
        caller waits on ``ready_event`` then calls
        :meth:`complete_write`), "miss" (fresh DIRTY buffer, no event).
        The buffer is pinned across the caller's copy-in either way.
        """
        if self.access_observer is not None:
            self.access_observer(node_id, block)
        wait_start = self.env.now
        lock_req = self.metadata_lock.request()
        yield lock_req
        yield self.env.batched_timeout(self._op_time(local_refs=1, remote_refs=1))

        while True:
            buffer = self.table.get(block)
            if buffer is not None and buffer.state in DATA_PRESENT:
                self._release_budget(buffer)
                buffer.record_use()
                if buffer.mark_dirty():
                    self._note_newly_dirty(buffer, node_id)
                buffer.pin()  # held across the copy-in
                self.metrics.record_write_hit(node_id)
                self.metadata_lock.release(lock_req)
                return LookupOutcome(kind="ready", buffer=buffer)

            if buffer is not None:  # FETCHING: the overwrite lands after
                self._release_budget(buffer)
                buffer.pin()  # protect while we wait
                self.metrics.record_write_hit(node_id)
                event = buffer.ready_event
                self.metadata_lock.release(lock_req)
                return LookupOutcome(
                    kind="unready", buffer=buffer, ready_event=event
                )

            victim = self.replacement.demand_victim(self, node_id)
            if victim is not None:
                break
            yield from self._reclaim_wait(node_id, lock_req)
            lock_req = self.metadata_lock.request()
            yield lock_req

        self.metrics.record_write_miss(node_id)
        self.alloc_waits.record(self.env.now - wait_start)

        # Allocation + table update: another costed metadata operation.
        yield self.env.batched_timeout(self._op_time(local_refs=1, remote_refs=2))
        self._evict(victim)
        victim.assign_dirty(block, node_id)
        self.table[block] = victim
        self._note_newly_dirty(victim, node_id)
        victim.pin()  # writer's claim until its copy-in completes
        self.metadata_lock.release(lock_req)
        return LookupOutcome(kind="miss", buffer=victim)

    def complete_write(self, node_id: int, buffer: Buffer) -> None:
        """Post-wait accounting for an unready write hit: the read I/O
        the buffer was waiting on has completed and the overwrite now
        lands.  (Counters are node-local: uncosted, like
        :meth:`complete_read`.)"""
        buffer.record_use()
        if buffer.mark_dirty():
            self._note_newly_dirty(buffer, node_id)

    def begin_sync_flush(
        self, node_id: int, reason: str, buffer: Optional[Buffer] = None
    ) -> Generator[Event, None, Optional[Event]]:
        """Foreground flush initiation (write-through and throttle
        stalls): a costed, locked pick of ``buffer`` (or the oldest dirty
        block), whose writeback is started and issued.  Returns the event
        the caller must wait on, or ``None`` when there is nothing left
        to flush.  Caller holds its CPU, inside the memory system.
        """
        lock_req = self.metadata_lock.request()
        yield lock_req
        yield self.env.batched_timeout(self._op_time(local_refs=1, remote_refs=2))
        victim: Optional[Buffer] = None
        if buffer is not None:
            if buffer.state is BufferState.WRITING:
                # Another node's flusher beat us to it: piggyback on the
                # in-flight writeback instead of starting a second one.
                event = buffer.write_event
                self.metadata_lock.release(lock_req)
                return event
            if buffer.state is BufferState.DIRTY:
                victim = buffer  # its queue entry goes stale; that's fine
        else:
            victim = self._pop_flushable()
        if victim is None:
            self.metadata_lock.release(lock_req)
            return None
        event = self._begin_flush(victim, node_id, reason)
        self.metadata_lock.release(lock_req)
        yield self.env.batched_timeout(self.costs.disk_enqueue_time)
        self._issue_write(victim, node_id)
        return event

    def flush_action(
        self, node_id: int
    ) -> Generator[Event, None, str]:
        """One complete background flush attempt by ``node_id``'s
        flusher daemon.

        The caller holds the node's CPU for the whole action (the same
        contract as :meth:`prefetch_action`).  Returns "success", "clean"
        (dirty level at or below the background threshold, or nothing
        currently flushable), or — under a fault plan — "suspended" (the
        target disk's circuit breaker is open).
        """
        self.memory.enter()
        try:
            # Dirty-level consultation against shared state.
            yield self.env.batched_timeout(
                self.memory.reference_time(local_refs=1, remote_refs=1)
            )
            if self.dirty_count <= self.dirty_background_limit:
                yield self.env.batched_timeout(self.costs.prefetch_failed_action)
                return "clean"

            lock_req = self.metadata_lock.request()
            yield lock_req
            yield self.env.batched_timeout(self._op_time(local_refs=1, remote_refs=2))
            victim = self._pop_flushable()
            if victim is None:
                self.metadata_lock.release(lock_req)
                yield self.env.batched_timeout(self.costs.prefetch_failed_action)
                return "clean"
            if self.resilience is not None:
                disk = self.machine.disk_for_block(
                    self.file.disk_for(victim.block)
                )
                if not self.resilience.allow_prefetch(disk.disk_id):
                    # Circuit breaker open: requeue and sit out this
                    # idle period, so *background* writes never pile
                    # onto a sick disk.  (Foreground throttle/eviction
                    # flushes still may — they are correctness, not
                    # opportunism.)
                    self._dirty_queue.appendleft(victim)
                    self.metadata_lock.release(lock_req)
                    yield self.env.batched_timeout(
                        self.costs.prefetch_failed_action
                    )
                    return "suspended"
            self._begin_flush(victim, node_id, "background")
            self.metadata_lock.release(lock_req)
            yield self.env.batched_timeout(self.costs.disk_enqueue_time)
            self._issue_write(victim, node_id)
            return "success"
        finally:
            self.memory.exit()

    # -------------------------------------------------------- prefetch path

    def prefetch_action(
        self, node_id: int, policy: "PrefetchPolicy"
    ) -> Generator[Event, None, str]:
        """One complete prefetch attempt by ``node_id``'s daemon.

        The caller holds the node's CPU for the whole action (the paper's
        "releasing control only at the completion of an action").  Returns
        the outcome: "success", "no_candidate", "already_cached",
        "budget_full", "no_buffer", or — under a fault plan — "suspended"
        (the target disk's circuit breaker is open).
        """
        self.memory.enter()
        try:
            # Candidate selection against (possibly slightly stale) shared
            # state: reference-string consultation + progress check.
            yield self.env.batched_timeout(
                self.memory.reference_time(local_refs=2, remote_refs=1)
            )
            candidate = policy.peek(node_id)
            if candidate is None:
                yield self.env.batched_timeout(self.costs.prefetch_failed_action)
                return "no_candidate"
            ref_index, block = candidate

            if self.resilience is not None:
                disk = self.machine.disk_for_block(self.file.disk_for(block))
                if not self.resilience.allow_prefetch(disk.disk_id):
                    # Circuit breaker open: release the reservation and
                    # let the daemon sit out this idle period, so
                    # prefetch traffic never piles onto a sick disk.
                    policy.suspend(node_id, ref_index, block)
                    yield self.env.batched_timeout(self.costs.prefetch_failed_action)
                    return "suspended"

            # Request preparation (buffer search bookkeeping — local in the
            # optimized layout, remote pointer-chasing in the naive one).
            yield self.env.batched_timeout(
                self.costs.prefetch_action_base
                * self.memory.structure_multiplier()
            )

            lock_req = self.metadata_lock.request()
            yield lock_req
            yield self.env.batched_timeout(self._op_time(local_refs=1, remote_refs=2))

            if block in self.table:
                # Raced with a demand fetch or another daemon.
                policy.mark_covered(node_id, ref_index, block)
                self.metadata_lock.release(lock_req)
                return "already_cached"

            if self.unused_prefetched >= self.unused_limit:
                policy.abort(node_id, ref_index, block)
                self.metadata_lock.release(lock_req)
                yield self.env.batched_timeout(self.costs.prefetch_failed_action)
                return "budget_full"

            victim = self.replacement.prefetch_victim(self, node_id)
            if victim is None:
                policy.abort(node_id, ref_index, block)
                self.metadata_lock.release(lock_req)
                yield self.env.batched_timeout(self.costs.prefetch_failed_action)
                return "no_buffer"

            self._evict(victim)
            victim.start_fetch(block, RequestKind.PREFETCH, node_id)
            self.table[block] = victim
            self.unused_prefetched += 1
            self._budget_holders.add(victim.index)
            policy.commit(node_id, ref_index, block)
            self.metrics.record_prefetch_issued()
            self.metadata_lock.release(lock_req)

            yield self.env.batched_timeout(self.costs.disk_enqueue_time)
            disk = self.machine.disk_for_block(self.file.disk_for(block))
            self._issue_fetch(
                disk, block, RequestKind.PREFETCH, node_id, victim
            )
            return "success"
        finally:
            self.memory.exit()

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """Structural sanity checks, raising
        :class:`~repro.analysis.invariants.InvariantViolation` on failure.

        Called by tests, after every run by the experiment runner, and
        periodically during audited runs (``--audit`` /
        :mod:`repro.analysis.audit`).  Unlike a bare ``assert``, these
        checks survive ``python -O``.
        """
        for block, buffer in self.table.items():
            invariant(
                buffer.block == block,
                "cache table entry disagrees with buffer assignment",
                block,
                buffer,
            )
            invariant(
                buffer.state is not BufferState.EMPTY,
                "tabled buffer in impossible state",
                buffer,
            )
        invariant(
            self.unused_prefetched == len(self._budget_holders),
            "prefetch-unused counter disagrees with budget holders",
            self.unused_prefetched,
            len(self._budget_holders),
        )
        invariant(
            0 <= self.unused_prefetched <= self.unused_limit,
            "prefetch-unused counter outside [0, limit]",
            self.unused_prefetched,
            self.unused_limit,
        )
        all_buffers = [
            b for group in (self.demand_rusets + self.prefetch_sets)
            for b in group
        ]
        invariant(
            len(all_buffers) == self.n_buffers,
            "buffer pools lost or gained buffers",
            len(all_buffers),
            self.n_buffers,
        )
        for buffer in all_buffers:
            if buffer.block is not None and self.table.get(buffer.block) is buffer:
                continue
            invariant(
                buffer.block is None
                or buffer.state is BufferState.EMPTY,
                "buffer holds a block absent from the cache table",
                buffer,
            )
        dirty_buffers = [
            b for b in all_buffers if b.state is BufferState.DIRTY
        ]
        invariant(
            self.dirty_count == len(dirty_buffers),
            "dirty counter disagrees with buffer states",
            self.dirty_count,
            len(dirty_buffers),
        )
        queued = set(id(b) for b in self._dirty_queue)
        for buffer in dirty_buffers:
            invariant(
                id(buffer) in queued,
                "dirty buffer missing from the flush queue",
                buffer,
            )
