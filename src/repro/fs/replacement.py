"""Buffer replacement policies.

The testbed's cache enforces "a global policy" through per-processor
recently-used sets: each processor manipulates mostly its own RU set (good
NUMA locality) while the aggregate behaves like a global LRU.  With the
paper's RU-set size of one demand buffer per processor, demand replacement
degenerates to the "toss-immediately" variant: a processor's next demand
fetch reuses its own buffer.

:class:`RUSetPolicy` reproduces that behaviour (with a global-LRU fallback
when the local set is pinned).  :class:`GlobalLRUPolicy` ignores locality
entirely — it exists as an ablation to show the RU-set scheme's behaviour is
not an artifact.

Prefetch-buffer selection prefers an EMPTY local buffer, then the
least-recently-used *evictable* local buffer, then remote ones — mirroring
the NUMA preference for node-local prefetch buffers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from .buffer import Buffer, BufferState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import BlockCache

__all__ = ["ReplacementPolicy", "RUSetPolicy", "GlobalLRUPolicy"]

_EMPTY = BufferState.EMPTY


def _lru_evictable(
    pools: Sequence[List[Buffer]], skip: Optional[int] = None
) -> Optional[Buffer]:
    """Least-recently-used evictable buffer over ``pools`` in order, EMPTY
    buffers first; ``skip`` names one pool to leave out.  Ties on
    ``last_use`` go to the first buffer in pool order."""
    best: Optional[Buffer] = None
    for index, pool in enumerate(pools):
        if index == skip:
            continue
        for buf in pool:
            if not buf.is_evictable:
                continue
            if buf.state is _EMPTY:
                return buf
            if best is None or buf.last_use < best.last_use:
                best = buf
    return best


class ReplacementPolicy:
    """Chooses the victim buffer for a new fetch."""

    name = "abstract"

    def demand_victim(
        self, cache: "BlockCache", node_id: int
    ) -> Optional[Buffer]:
        """Buffer to reuse for a demand fetch by ``node_id`` (None = all
        candidates pinned/busy right now)."""
        raise NotImplementedError

    def prefetch_victim(
        self, cache: "BlockCache", node_id: int
    ) -> Optional[Buffer]:
        """Buffer to reuse for a prefetch initiated by ``node_id``."""
        raise NotImplementedError


class RUSetPolicy(ReplacementPolicy):
    """The paper's policy: per-processor RU sets with global fallback."""

    name = "ru-set"

    def demand_victim(
        self, cache: "BlockCache", node_id: int
    ) -> Optional[Buffer]:
        # Local RU set first (size 1 in the paper: toss-immediately).
        victim = _lru_evictable((cache.demand_rusets[node_id],))
        if victim is not None:
            return victim
        # Global fallback over every demand buffer.
        return _lru_evictable(cache.demand_rusets)

    def prefetch_victim(
        self, cache: "BlockCache", node_id: int
    ) -> Optional[Buffer]:
        victim = _lru_evictable((cache.prefetch_sets[node_id],))
        if victim is not None:
            return victim
        return _lru_evictable(cache.prefetch_sets, skip=node_id)


class GlobalLRUPolicy(ReplacementPolicy):
    """Ablation: strict global LRU with no locality preference."""

    name = "global-lru"

    def demand_victim(
        self, cache: "BlockCache", node_id: int
    ) -> Optional[Buffer]:
        return _lru_evictable(cache.demand_rusets)

    def prefetch_victim(
        self, cache: "BlockCache", node_id: int
    ) -> Optional[Buffer]:
        return _lru_evictable(cache.prefetch_sets)
