"""Oracle (reference-string) prefetch policies.

The paper's study supplies each policy with accurate advance knowledge of
the reference pattern, "to establish an upper bound on the performance
benefits of prefetching" (Section III).  The oracle is *optimistic but
principled*: it never fetches a block that will not be used, yet it
refuses to exploit information that could not feasibly be predicted —
concretely, for random-portion patterns (``lrp``/``grp``) it will not
prefetch past the end of the current portion until a demand fetch has
established where the next portion begins.

Candidate selection for node *N*:

1. scope = *N*'s own string (local patterns) or the shared string (global);
2. start at ``earliest_candidate_index(lead, frontier, n)`` (Section V-E's
   minimum prefetch lead, relaxed near the string's end);
3. skip references that are taken: claimed by a prefetch, observed in cache
   (another node may have fetched the block — interprocess benefit), or
   reserved by another node's action in flight;
4. stop at a portion boundary when the pattern forbids crossing.

Each scope keeps one free-index bitmask, a Python int whose bit *i* is set
while reference *i* is neither claimed nor reserved.  A peek clears its
candidate's bit; ``commit`` and ``mark_covered`` leave it clear for good, so
each reference is prefetched at most once machine-wide, and ``abort`` (or
``suspend``) sets it again.  Step 3 is then a jump to the lowest set bit at
or above the start, and :meth:`OraclePolicy.exhausted` a single shift, no
matter how many references are taken.  On global patterns that count is
large: every daemon holds a reservation while it queues on the metadata
lock.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..analysis.invariants import invariant
from ..workload.patterns import AccessPattern
from ..workload.progress import ProgressTracker
from .lead import earliest_candidate_index
from .policy import PrefetchPolicy, register_policy

__all__ = ["OraclePolicy"]


class OraclePolicy(PrefetchPolicy):
    """Reference-string policy for any of the six patterns.

    Parameters
    ----------
    pattern / tracker:
        The materialized access pattern and its shared progress state.
    lead:
        Minimum prefetch lead in references (Section V-E); 0 = paper
        default behaviour.
    """

    name = "oracle"

    def __init__(
        self,
        pattern: AccessPattern,
        tracker: ProgressTracker,
        lead: int = 0,
    ) -> None:
        super().__init__()
        if lead < 0:
            raise ValueError(f"lead {lead} must be non-negative")
        self.pattern = pattern
        self.tracker = tracker
        self.lead = lead
        #: Per-scope free-index bitmask: bit i is set while reference i is
        #: neither claimed (committed or covered) nor reserved.
        self._free: List[int] = [(1 << len(s)) - 1 for s in pattern.strings]
        #: Per-scope reserved (action in flight) reference indices.
        self._reserved: List[Set[int]] = [set() for _ in pattern.strings]

    # -- internals ---------------------------------------------------------------

    def _scope(self, node_id: int) -> int:
        return node_id if self.pattern.scope == "local" else 0

    def _settle(self, node_id: int, ref_index: int, reopen: bool) -> None:
        scope = self._scope(node_id)
        reserved = self._reserved[scope]
        invariant(
            ref_index in reserved,
            "oracle settled a reference it has not reserved",
            node_id, ref_index,
        )
        reserved.remove(ref_index)
        if reopen:
            self._free[scope] |= 1 << ref_index

    # -- PrefetchPolicy interface ---------------------------------------------------

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        scope = self._scope(node_id)
        string = self.pattern.string_for(node_id)
        portions = self.pattern.portions_for(node_id)
        n = len(string)
        if n == 0:
            return None
        frontier = self.tracker.frontier(node_id)
        i = earliest_candidate_index(self.lead, frontier, n)

        crosses = self.pattern.crosses_for(node_id)
        if not crosses:
            # Only the portion the demand activity has reached (or the very
            # first portion before any demand) is prefetchable.
            allowed_portion = portions[frontier] if frontier >= 0 else portions[0]

        free = self._free[scope]
        rest = free >> i
        candidate = None
        while rest:
            skip = (rest & -rest).bit_length() - 1
            i += skip
            if not crosses and portions[i] > allowed_portion:
                break  # transient: wait for demand to cross over
            block = int(string[i])
            free ^= 1 << i
            if not self._in_cache(block):
                self._reserved[scope].add(i)
                candidate = (i, block)
                break
            # Someone else brought it in; claim it and never propose it.
            rest >>= skip + 1
            i += 1
        self._free[scope] = free
        return candidate

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        self._settle(node_id, ref_index, reopen=False)

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        self._settle(node_id, ref_index, reopen=False)

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        self._settle(node_id, ref_index, reopen=True)

    def exhausted(self, node_id: int) -> bool:
        """No free reference lies beyond the frontier.

        Reservations count as taken here.  That keeps the answer permanent
        even though an abort reopens its reference: the frontier only
        grows, and a reservation is held by a daemon that is still
        running, so that daemon re-peeks whatever its abort reopens.
        """
        free = self._free[self._scope(node_id)]
        return not free >> (self.tracker.frontier(node_id) + 1)


register_policy("oracle")(OraclePolicy)
