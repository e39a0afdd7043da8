"""Cache buffers and their states.

The RAPID Transit cache distinguishes buffers that merely *reserve* a block
(I/O still outstanding) from buffers whose data have arrived.  A request
that finds a reserved-but-unfilled buffer is an **unready hit**: it counts
as a hit, but the requester must still wait out the remaining I/O — the
*hit-wait time* that Section V-A shows to be a significant cost.

Buffer pools
------------
``DEMAND`` buffers implement the per-processor RU-set (size one — the
paper's "toss-immediately" variant): each node owns one, replaced on each
of its demand fetches.  ``PREFETCH`` buffers (three per node) are homed on
a node but globally allocatable; a prefetched buffer becomes *evictable*
only after its block has been read at least once, which is what makes the
global prefetched-but-unused budget meaningful.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from ..analysis.invariants import InvariantViolation, invariant
from ..sim.events import Event
from ..machine.disk import RequestKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = ["BufferState", "BufferPool", "Buffer", "DATA_PRESENT"]


class BufferState(enum.Enum):
    """Lifecycle of a cache buffer."""

    EMPTY = "empty"  # holds no block
    FETCHING = "fetching"  # block assigned, read I/O outstanding
    READY = "ready"  # block data present, clean
    DIRTY = "dirty"  # block data present, modified since last write-out
    WRITING = "writing"  # writeback I/O outstanding (data still present)


class BufferPool(enum.Enum):
    """Which allocation pool a buffer belongs to."""

    DEMAND = "demand"
    PREFETCH = "prefetch"


#: States in which the buffer's data are present and readable (a read of
#: a dirty or writing-back block is served from memory).
DATA_PRESENT = (BufferState.READY, BufferState.DIRTY, BufferState.WRITING)

_EMPTY = BufferState.EMPTY
_READY = BufferState.READY
_PREFETCH = RequestKind.PREFETCH


class Buffer:
    """One cache buffer.

    Attributes
    ----------
    index:
        Global buffer number (stable identity).
    home_node:
        Node whose memory physically holds the buffer (NUMA placement).
    pool:
        Allocation pool (demand RU-set vs prefetch).
    block:
        Block currently assigned, or ``None``.
    state:
        See :class:`BufferState`.
    ready_event:
        Fires when the outstanding fetch completes; recreated per fetch.
    pins:
        Number of processes relying on the buffer staying put (waiting on
        its I/O or copying out of it).  Pinned buffers are not evictable.
    read_count:
        Reads served from the buffer since its current block was assigned.
        Zero for a prefetched buffer means "prefetched but not yet used".
    last_use:
        Simulation time of the most recent access (for LRU).
    fetch_kind / fetched_by:
        Provenance of the current block's fetch (demand vs prefetch, and
        the node that initiated it) — used by the benefit-distribution
        analysis.
    """

    __slots__ = (
        "env",
        "index",
        "home_node",
        "pool",
        "block",
        "state",
        "ready_event",
        "pins",
        "read_count",
        "last_use",
        "fetch_kind",
        "fetched_by",
        "fetch_start",
        "write_event",
        "redirtied",
    )

    def __init__(
        self,
        env: "Environment",
        index: int,
        home_node: int,
        pool: BufferPool,
    ) -> None:
        self.env = env
        self.index = index
        self.home_node = home_node
        self.pool = pool
        self.block: Optional[int] = None
        self.state = BufferState.EMPTY
        self.ready_event: Optional[Event] = None
        self.pins = 0
        self.read_count = 0
        self.last_use = env.now
        self.fetch_kind: Optional[RequestKind] = None
        self.fetched_by: Optional[int] = None
        self.fetch_start: Optional[float] = None
        #: Fires when the outstanding writeback completes; per flush.
        self.write_event: Optional[Event] = None
        #: A write landed while the buffer was WRITING: the block must
        #: return to DIRTY (not READY) when the writeback completes.
        self.redirtied = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Buffer {self.index} {self.pool.value} node{self.home_node} "
            f"block={self.block} {self.state.value} pins={self.pins}>"
        )

    # -- state transitions ----------------------------------------------------

    def start_fetch(
        self, block: int, kind: RequestKind, by_node: int
    ) -> Event:
        """Assign ``block`` and mark I/O outstanding; returns the ready event.

        The buffer must not be pinned and must not have I/O outstanding.
        """
        if self.state is BufferState.FETCHING:
            raise RuntimeError(f"{self!r} already fetching")
        if self.pins:
            raise RuntimeError(f"{self!r} is pinned; cannot reassign")
        self.block = block
        self.state = BufferState.FETCHING
        self.ready_event = Event(self.env)
        self.read_count = 0
        self.last_use = self.env.now
        self.fetch_kind = kind
        self.fetched_by = by_node
        self.fetch_start = self.env.now
        return self.ready_event

    def mark_ready(self) -> None:
        """Data arrived: transition FETCHING -> READY, wake waiters."""
        if self.state is not BufferState.FETCHING:
            raise RuntimeError(f"{self!r} not fetching")
        self.state = BufferState.READY
        invariant(
            self.ready_event is not None,
            "fetching buffer has no ready event",
            self,
        )
        self.ready_event.succeed(self)

    def abort_fetch(self) -> Event:
        """A fetch failed permanently: drop the assignment, FETCHING ->
        EMPTY, and return the (still-untriggered) ready event so the
        caller can *fail* it — waiters learn of the failure through the
        event, not the buffer.  Pins are left in place: any waiter still
        holds its pin and will not unpin on the error path (the run is
        surfacing a failure, not continuing)."""
        if self.state is not BufferState.FETCHING:
            raise RuntimeError(f"{self!r} not fetching; cannot abort")
        event = self.ready_event
        if event is None:
            raise InvariantViolation(
                f"fetching buffer {self.index} has no ready event"
            )
        self.block = None
        self.state = BufferState.EMPTY
        self.ready_event = None
        self.read_count = 0
        self.fetch_kind = None
        self.fetched_by = None
        self.fetch_start = None
        return event

    def record_use(self) -> None:
        """Account one read served from this buffer."""
        if self.state not in DATA_PRESENT:
            raise RuntimeError(f"{self!r} holds no data; cannot read")
        self.read_count += 1
        self.last_use = self.env.now

    def invalidate(self) -> None:
        """Drop the current block (eviction)."""
        if self.state is BufferState.FETCHING:
            raise RuntimeError(f"{self!r} fetching; cannot invalidate")
        if self.state in (BufferState.DIRTY, BufferState.WRITING):
            raise RuntimeError(
                f"{self!r} holds unwritten data; flush before evicting"
            )
        if self.pins:
            raise RuntimeError(f"{self!r} pinned; cannot invalidate")
        self.block = None
        self.state = BufferState.EMPTY
        self.ready_event = None
        self.read_count = 0
        self.fetch_kind = None
        self.fetched_by = None
        self.fetch_start = None

    # -- write-path transitions (see docs/writes.md) ---------------------------

    def mark_dirty(self) -> bool:
        """A write landed in this buffer.  READY/DIRTY -> DIRTY; a write
        during an outstanding writeback (WRITING) only flags the buffer
        for re-dirtying at completion.  Returns ``True`` when the buffer
        *newly became* dirty (the caller then adjusts dirty accounting).
        """
        if self.state is BufferState.READY:
            self.state = BufferState.DIRTY
            self.last_use = self.env.now
            return True
        if self.state is BufferState.DIRTY:
            self.last_use = self.env.now
            return False
        if self.state is BufferState.WRITING:
            self.redirtied = True
            self.last_use = self.env.now
            return False
        raise RuntimeError(f"{self!r} holds no data; cannot dirty")

    def assign_dirty(self, block: int, by_node: int) -> None:
        """Whole-block overwrite into a free buffer: EMPTY -> DIRTY with
        no read I/O (the write path's miss allocation)."""
        if self.state is not BufferState.EMPTY:
            raise RuntimeError(f"{self!r} not empty; cannot assign")
        if self.pins:
            raise RuntimeError(f"{self!r} is pinned; cannot reassign")
        self.block = block
        self.state = BufferState.DIRTY
        self.read_count = 0
        self.last_use = self.env.now
        self.fetch_kind = RequestKind.WRITE
        self.fetched_by = by_node
        self.fetch_start = self.env.now

    def start_writeback(self) -> Event:
        """Begin flushing: DIRTY -> WRITING; returns the write event that
        fires when the disk write completes."""
        if self.state is not BufferState.DIRTY:
            raise RuntimeError(f"{self!r} not dirty; cannot write back")
        if self.block is None:
            raise InvariantViolation(
                f"dirty buffer {self.index} holds no block"
            )
        self.state = BufferState.WRITING
        self.redirtied = False
        self.write_event = Event(self.env)
        return self.write_event

    def writeback_complete(self) -> bool:
        """The disk write finished: WRITING -> READY (clean), or back to
        DIRTY when a write landed mid-flush.  Wakes flush waiters.
        Returns ``True`` when the buffer came out clean."""
        if self.state is not BufferState.WRITING:
            raise RuntimeError(f"{self!r} not writing")
        event = self.write_event
        invariant(
            event is not None, "writing buffer has no write event", self
        )
        clean = not self.redirtied
        self.state = BufferState.READY if clean else BufferState.DIRTY
        self.redirtied = False
        self.write_event = None
        event.succeed(self)
        return clean

    def writeback_failed(self) -> Event:
        """The flush exhausted its retries: the data are still in memory,
        so WRITING -> DIRTY (the block stays reclaimable only via a later
        successful flush).  Returns the still-untriggered write event so
        the caller can *fail* it — flush waiters learn of the failure
        through the event."""
        if self.state is not BufferState.WRITING:
            raise RuntimeError(f"{self!r} not writing; cannot fail")
        event = self.write_event
        if event is None:
            raise InvariantViolation(
                f"writing buffer {self.index} has no write event"
            )
        self.state = BufferState.DIRTY
        self.redirtied = False
        self.write_event = None
        return event

    # -- pinning ---------------------------------------------------------------

    def pin(self) -> None:
        self.pins += 1

    def unpin(self) -> None:
        if self.pins <= 0:
            raise RuntimeError(f"{self!r} not pinned")
        self.pins -= 1

    # -- predicates -------------------------------------------------------------

    @property
    def is_dirty(self) -> bool:
        """Does this buffer hold data the disk has not seen (DIRTY, or
        WRITING with a write that landed mid-flush)?"""
        return self.state is BufferState.DIRTY or (
            self.state is BufferState.WRITING and self.redirtied
        )

    @property
    def is_evictable(self) -> bool:
        """May this buffer be reassigned to a new block right now?

        Never while pinned or with I/O outstanding (FETCHING/WRITING).
        DIRTY buffers hold data the disk has not seen: they must be
        flushed before reclaim (the Linux clean-before-reclaim rule, see
        docs/writes.md).  Prefetched-but-unused blocks (READY,
        ``read_count == 0``, prefetch-fetched) are protected: they are
        exactly the blocks counted against the global prefetch budget,
        and evicting them would waste a completed prefetch.
        """
        # Victim scans test every buffer of a pool, so this reads each
        # field at most once and compares against module constants
        # (an enum member looked up on its class costs far more).
        if self.pins:
            return False
        state = self.state
        if state is _READY:
            return self.read_count != 0 or self.fetch_kind is not _PREFETCH
        return state is _EMPTY
