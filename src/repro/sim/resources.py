"""Shared resources: mutual exclusion, counters, and queues.

Three families:

* :class:`Resource` — a fixed number of usage slots with a FIFO wait queue
  (``capacity=1`` gives a lock).  :class:`PriorityResource` orders waiters
  by a numeric priority instead.
* :class:`Container` — a continuous or discrete quantity with blocking
  ``put``/``get``.
* :class:`Store` — a FIFO queue of Python objects with blocking
  ``put``/``get``; the building block for the disk request queues.

All wait events double as context managers, so the canonical usage is::

    with resource.request() as req:
        yield req
        ...  # holding the resource
    # released on exit

For waits that may be abandoned (e.g. after an interrupt), every pending
request supports :meth:`~BaseRequest.cancel`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Container",
    "ContainerPut",
    "ContainerGet",
    "Store",
    "StorePut",
    "StoreGet",
]


class BaseRequest(Event):
    """Common behaviour of resource/container/store wait events."""

    __slots__ = ("resource",)

    def __init__(self, resource: Any) -> None:
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "BaseRequest":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.cancel_or_release()

    def cancel(self) -> None:
        """Withdraw an untriggered request from its wait queue."""
        raise NotImplementedError

    def cancel_or_release(self) -> None:
        """Cancel if still pending; otherwise perform the matching release."""
        raise NotImplementedError


class Request(BaseRequest):
    """A claim on one slot of a :class:`Resource`."""

    __slots__ = ("usage_since", "_requested_at")

    def __init__(self, resource: "Resource") -> None:
        # Every CPU and metadata-lock claim builds one of these, so the
        # base initializers are inlined as in Timeout.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        #: Simulation time at which the request was granted.
        self.usage_since: Optional[float] = None
        #: Simulation time at which the request entered the wait queue
        #: (carried on the request itself — the former id-keyed side
        #: table cost a dict insert/pop per request on the hot path).
        now = env.now
        self._requested_at = now
        if len(resource.users) < resource.capacity:
            # A free slot means nobody is queued: grant straight away.
            resource._grant(self, now)
        else:
            resource._queue.append(self)

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class Release(Event):
    """Immediate event confirming a :class:`Resource` release."""

    __slots__ = ("request",)

    def __init__(self, resource: "Resource", request: Request) -> None:
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self.request = request
        env.schedule(self, URGENT)


class Resource:
    """``capacity`` usage slots with FIFO granting.

    Statistics
    ----------
    The resource tracks cumulative queueing delay and usage so that callers
    can derive utilization and contention without extra instrumentation:
    ``total_wait`` (ms spent by granted requests waiting), ``grants``
    (number of granted requests), and ``busy_time`` (slot-milliseconds of
    usage, accumulated at release).
    """

    __slots__ = (
        "env",
        "capacity",
        "users",
        "_queue",
        "total_wait",
        "grants",
        "busy_time",
    )

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity {capacity} must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        #: FIFO wait queue; a deque so granting is O(1) per request
        #: instead of the O(n) shift of ``list.pop(0)``.
        self._queue: deque[Request] = deque()
        self.total_wait = 0.0
        self.grants = 0
        self.busy_time = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def waiting(self) -> int:
        """Number of requests queued but not granted."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Free the slot held by ``request``."""
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                f"{request!r} does not hold {self!r}"
            ) from None
        now = self.env.now
        if request.usage_since is not None:
            self.busy_time += now - request.usage_since
        release = Release(self, request)
        queue = self._queue
        while queue and len(self.users) < self.capacity:
            self._grant(queue.popleft(), now)
        return release

    def _grant(self, req: Request, now: float) -> None:
        """Hand a slot to ``req`` at time ``now`` (the caller checked one
        is free)."""
        self.users.append(req)
        req.usage_since = now
        self.total_wait += now - req._requested_at
        self.grants += 1
        req.succeed()


class PriorityRequest(BaseRequest):
    """A claim on a :class:`PriorityResource` slot.

    Lower ``priority`` values are granted first; ties are FIFO.
    """

    __slots__ = ("priority", "usage_since", "_key")

    def __init__(self, resource: "PriorityResource", priority: int) -> None:
        super().__init__(resource)
        self.priority = priority
        self.usage_since: Optional[float] = None
        resource._seq += 1
        self._key = (priority, resource._seq)
        heappush(resource._heap, (self._key, self))
        resource._trigger()

    def cancel(self) -> None:
        self.resource._cancelled.add(id(self))

    def cancel_or_release(self) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class PriorityResource:
    """Like :class:`Resource`, but waiters are granted by priority."""

    __slots__ = ("env", "capacity", "users", "_heap", "_seq", "_cancelled")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity {capacity} must be positive")
        self.env = env
        self.capacity = capacity
        self.users: list[PriorityRequest] = []
        self._heap: list[tuple[tuple[int, int], PriorityRequest]] = []
        self._seq = 0
        self._cancelled: set[int] = set()

    @property
    def count(self) -> int:
        return len(self.users)

    @property
    def waiting(self) -> int:
        return sum(
            1 for _, r in self._heap if id(r) not in self._cancelled
        )

    def request(self, priority: int = 0) -> PriorityRequest:
        return PriorityRequest(self, priority)

    def release(self, request: PriorityRequest) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            raise RuntimeError(
                f"{request!r} does not hold {self!r}"
            ) from None
        self._trigger()

    def _trigger(self) -> None:
        while self._heap and len(self.users) < self.capacity:
            _, req = heappop(self._heap)
            if id(req) in self._cancelled:
                self._cancelled.discard(id(req))
                continue
            self.users.append(req)
            req.usage_since = self.env.now
            req.succeed()


class ContainerPut(BaseRequest):
    """Pending deposit into a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount {amount} must be positive")
        super().__init__(container)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._put_queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        self.cancel()


class ContainerGet(BaseRequest):
    """Pending withdrawal from a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount {amount} must be positive")
        super().__init__(container)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._get_queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        self.cancel()


class Container:
    """A quantity with blocking ``put``/``get`` and an optional capacity."""

    __slots__ = ("env", "capacity", "_level", "_put_queue", "_get_queue")

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity {capacity} must be positive")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} out of range [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._put_queue: deque[ContainerPut] = deque()
        self._get_queue: deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                put = self._put_queue[0]
                if self._level + put.amount <= self.capacity:
                    self._put_queue.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_queue:
                get = self._get_queue[0]
                if self._level >= get.amount:
                    self._get_queue.popleft()
                    self._level -= get.amount
                    get.succeed(get.amount)
                    progressed = True


class StorePut(BaseRequest):
    """Pending insertion into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store)
        self.item = item
        store._put_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._put_queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        self.cancel()


class StoreGet(BaseRequest):
    """Pending removal from a :class:`Store`.

    ``filter`` restricts which items this getter will accept.
    """

    __slots__ = ("filter",)

    def __init__(
        self,
        store: "Store",
        filter: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        super().__init__(store)
        self.filter = filter
        store._get_queue.append(self)
        store._trigger()

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self.resource._get_queue.remove(self)
            except ValueError:
                pass

    def cancel_or_release(self) -> None:
        self.cancel()


class Store:
    """FIFO queue of items with blocking ``put``/``get``.

    ``items`` and both wait queues are :class:`collections.deque`\\ s: the
    hot paths (unfiltered get, put hand-off) pop from the left, which a
    list makes O(n) per operation.  The filtered-get scan keeps the exact
    FilterStore semantics — getters are visited in FIFO order, each takes
    the first matching item, non-matching getters are skipped in place —
    via an index cursor over the deque.
    """

    __slots__ = ("env", "capacity", "items", "_put_queue", "_get_queue")

    def __init__(
        self, env: "Environment", capacity: float = float("inf")
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity {capacity} must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._put_queue: deque[StorePut] = deque()
        self._get_queue: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(
        self, filter: Optional[Callable[[Any], bool]] = None
    ) -> StoreGet:
        return StoreGet(self, filter)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Serve getters in FIFO order; filtered getters may be skipped.
            idx = 0
            while idx < len(self._get_queue) and self.items:
                get = self._get_queue[idx]
                if get.filter is None:
                    item = self.items.popleft()
                    del self._get_queue[idx]
                    get.succeed(item)
                    progressed = True
                    continue
                for j, item in enumerate(self.items):
                    if get.filter(item):
                        del self.items[j]
                        del self._get_queue[idx]
                        get.succeed(item)
                        progressed = True
                        break
                else:
                    idx += 1
