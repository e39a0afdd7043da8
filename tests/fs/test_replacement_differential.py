"""Differential test: the loop-based victim scans pick exactly the buffer
the generator-based reference (:mod:`.reference_replacement`) picks.

Hypothesis builds random demand and prefetch pools — any number of nodes
and buffers per node, every buffer in one of the five states, pinned or
not, with either fetch kind, read or unread, and ``last_use`` drawn from a
handful of values so ties are common — then asks both production policies
and their references for a demand and a prefetch victim on every node.
The answers must be the same buffer object (or both ``None``), and the
production ``is_evictable`` must agree with the reference predicate on
every buffer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import GlobalLRUPolicy, RUSetPolicy
from repro.fs.buffer import Buffer, BufferPool, BufferState
from repro.machine.disk import RequestKind
from repro.sim import Environment

from .reference_replacement import (
    ReferenceGlobalLRU,
    ReferenceRUSet,
    is_evictable,
)

PAIRS = (
    (RUSetPolicy(), ReferenceRUSet()),
    (GlobalLRUPolicy(), ReferenceGlobalLRU()),
)

buffer_fields = st.fixed_dictionaries(
    {
        "state": st.sampled_from(list(BufferState)),
        "pins": st.sampled_from([0, 0, 0, 1, 2]),
        "fetch_kind": st.sampled_from(
            [None, RequestKind.DEMAND, RequestKind.PREFETCH,
             RequestKind.WRITE]
        ),
        "read_count": st.sampled_from([0, 0, 1, 3]),
        # Few distinct times, so last_use ties are the common case.
        "last_use": st.sampled_from([0.0, 1.0, 1.0, 2.5, 7.0]),
    }
)


class PoolCache:
    """The two pool lists a replacement policy reads."""

    def __init__(self, demand_rusets, prefetch_sets):
        self.demand_rusets = demand_rusets
        self.prefetch_sets = prefetch_sets


@st.composite
def pool_caches(draw):
    env = Environment()
    n_nodes = draw(st.integers(min_value=1, max_value=6))
    all_unevictable = draw(st.booleans()) and draw(st.booleans())
    index = 0

    def pool(node, kind, size):
        nonlocal index
        buffers = []
        for _ in range(size):
            buf = Buffer(env, index, node, kind)
            index += 1
            fields = draw(buffer_fields)
            if all_unevictable:
                fields["pins"] = max(fields["pins"], 1)
            for name, value in fields.items():
                setattr(buf, name, value)
            buffers.append(buf)
        return buffers

    demand_size = draw(st.integers(min_value=0, max_value=3))
    prefetch_size = draw(st.integers(min_value=0, max_value=4))
    demand = [
        pool(node, BufferPool.DEMAND, demand_size) for node in range(n_nodes)
    ]
    prefetch = [
        pool(node, BufferPool.PREFETCH, prefetch_size)
        for node in range(n_nodes)
    ]
    return PoolCache(demand, prefetch)


@settings(max_examples=300, deadline=None)
@given(pool_caches())
def test_victims_match_reference(cache):
    for pools in (cache.demand_rusets, cache.prefetch_sets):
        for pool in pools:
            for buf in pool:
                assert buf.is_evictable == is_evictable(buf), buf
    for policy, reference in PAIRS:
        for node_id in range(len(cache.demand_rusets)):
            assert policy.demand_victim(cache, node_id) is (
                reference.demand_victim(cache, node_id)
            ), (policy.name, "demand", node_id)
            assert policy.prefetch_victim(cache, node_id) is (
                reference.prefetch_victim(cache, node_id)
            ), (policy.name, "prefetch", node_id)


def test_tied_last_use_goes_to_first_in_pool_order():
    env = Environment()
    bufs = []
    for index in range(4):
        buf = Buffer(env, index, index // 2, BufferPool.PREFETCH)
        buf.state = BufferState.READY
        buf.fetch_kind = RequestKind.DEMAND
        buf.read_count = 1
        buf.last_use = 3.0
        bufs.append(buf)
    cache = PoolCache([[], []], [bufs[:2], bufs[2:]])
    # Node 0's own pool wins first; across nodes the earliest buffer does.
    assert RUSetPolicy().prefetch_victim(cache, 0) is bufs[0]
    bufs[0].pin()
    bufs[1].pin()
    assert RUSetPolicy().prefetch_victim(cache, 0) is bufs[2]
    assert GlobalLRUPolicy().prefetch_victim(cache, 1) is bufs[2]
