"""Generator-based victim selection, kept as a reference model.

This is :mod:`repro.fs.replacement` as it stood before the victim scans
became plain loops over the pools: ``_lru_evictable`` consumes a generator
expression, and the cross-node fallbacks flatten the pools through nested
generators.  The evictability test is :attr:`repro.fs.Buffer.is_evictable`
as it stood then (a tuple-membership check over the unevictable states),
copied here as a function so that the production property is checked
against it too.  Nothing in the simulator uses this module;
``test_replacement_differential.py`` requires both production policies
to return the very buffer object this reference returns.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.fs.buffer import Buffer, BufferState
from repro.machine.disk import RequestKind

__all__ = ["ReferenceGlobalLRU", "ReferenceRUSet", "is_evictable"]


def is_evictable(buf: Buffer) -> bool:
    """May this buffer be reassigned to a new block right now?"""
    if buf.pins or buf.state in (
        BufferState.FETCHING,
        BufferState.DIRTY,
        BufferState.WRITING,
    ):
        return False
    if buf.state is BufferState.EMPTY:
        return True
    if (
        buf.fetch_kind is RequestKind.PREFETCH
        and buf.read_count == 0
    ):
        return False
    return True


def _lru_evictable(buffers: Iterable[Buffer]) -> Optional[Buffer]:
    """Least-recently-used evictable buffer, EMPTY buffers first."""
    best: Optional[Buffer] = None
    for buf in buffers:
        if not is_evictable(buf):
            continue
        if buf.state is BufferState.EMPTY:
            return buf
        if best is None or buf.last_use < best.last_use:
            best = buf
    return best


class ReferenceRUSet:
    """The paper's policy: per-processor RU sets with global fallback."""

    def demand_victim(self, cache, node_id: int) -> Optional[Buffer]:
        # Local RU set first (size 1 in the paper: toss-immediately).
        victim = _lru_evictable(cache.demand_rusets[node_id])
        if victim is not None:
            return victim
        # Global fallback over every demand buffer.
        return _lru_evictable(
            buf for ruset in cache.demand_rusets for buf in ruset
        )

    def prefetch_victim(self, cache, node_id: int) -> Optional[Buffer]:
        victim = _lru_evictable(cache.prefetch_sets[node_id])
        if victim is not None:
            return victim
        return _lru_evictable(
            buf
            for node, bufs in enumerate(cache.prefetch_sets)
            if node != node_id
            for buf in bufs
        )


class ReferenceGlobalLRU:
    """Ablation: strict global LRU with no locality preference."""

    def demand_victim(self, cache, node_id: int) -> Optional[Buffer]:
        return _lru_evictable(
            buf for ruset in cache.demand_rusets for buf in ruset
        )

    def prefetch_victim(self, cache, node_id: int) -> Optional[Buffer]:
        return _lru_evictable(
            buf for bufs in cache.prefetch_sets for buf in bufs
        )
