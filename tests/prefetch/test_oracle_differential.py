"""Differential test: the bitmask oracle answers exactly as the linear scan.

:class:`~repro.prefetch.OraclePolicy` and the linear-scan reference model
(:mod:`.reference_oracle`) share one pattern, one progress tracker and one
fake cache.  Hypothesis drives both through the same interleaving of
peeks, settlements (commit, mark_covered, abort, suspend, or holding the
reservation open for a later step), bursts in which every node peeks and
holds (as daemons queued on the metadata lock do), demand steps and cache
inserts.  After every step each node is probed: both policies must
propose the same candidate (the probe's reservation is then aborted on
both) and give the same ``exhausted`` answer.
"""

from hypothesis import given, settings, target
from hypothesis import strategies as st

from repro.prefetch import OraclePolicy
from repro.sim import RandomStreams
from repro.workload import ProgressTracker, make_pattern

from .reference_oracle import LinearScanOracle

PATTERNS = ("lfp", "lrp", "lw", "gfp", "grp", "gw")
SETTLEMENTS = ("commit", "mark_covered", "abort", "suspend")


class FakeCache:
    def __init__(self):
        self.blocks = set()

    def contains(self, block):
        return block in self.blocks


@st.composite
def oracle_pair(draw):
    pattern_name = draw(st.sampled_from(PATTERNS))
    n_nodes = draw(st.sampled_from([1, 2, 3, 8, 64]))
    total = n_nodes * draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    lead = draw(st.sampled_from([0, 2, 5]))
    pattern = make_pattern(
        pattern_name,
        n_nodes=n_nodes,
        total_reads=total,
        file_blocks=max(total, 50),
        rng=RandomStreams(seed),
    )
    tracker = ProgressTracker(pattern, n_nodes)
    cache = FakeCache()
    fast = OraclePolicy(pattern, tracker, lead=lead)
    reference = LinearScanOracle(pattern, tracker, lead=lead)
    fast.bind(cache)
    reference.bind(cache)
    return pattern, tracker, cache, fast, reference, n_nodes


def _steps(n_nodes, file_blocks):
    node = st.integers(min_value=0, max_value=n_nodes - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("peek"), node,
                      st.sampled_from(SETTLEMENTS + ("hold", "hold"))),
            st.tuples(st.just("burst"), st.just(None), st.just(None)),
            st.tuples(st.just("settle"), st.integers(min_value=0),
                      st.sampled_from(SETTLEMENTS)),
            st.tuples(st.just("demand"), node,
                      st.integers(min_value=1, max_value=8)),
            st.tuples(st.just("insert"),
                      st.integers(min_value=0, max_value=file_blocks - 1),
                      st.just(None)),
        ),
        min_size=1, max_size=60,
    )


def _peek(fast, reference, node):
    got, want = fast.peek(node), reference.peek(node)
    assert got == want, (node, got, want)
    return got


def _settle(policies, how, node, ref_index, block):
    for policy in policies:
        getattr(policy, how)(node, ref_index, block)


def _assert_agree(fast, reference, n_nodes):
    for node in range(n_nodes):
        got = _peek(fast, reference, node)
        if got is not None:
            _settle((fast, reference), "abort", node, *got)
        assert fast.exhausted(node) == reference.exhausted(node), node


@given(setup=oracle_pair(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_bitmask_oracle_matches_linear_scan(setup, data):
    pattern, tracker, cache, fast, reference, n_nodes = setup
    policies = (fast, reference)
    held = []  # (node, ref_index, block) reservations left in flight
    most_held = 0
    for kind, arg, how in data.draw(_steps(n_nodes, pattern.file_blocks)):
        if kind == "peek":
            got = _peek(fast, reference, arg)
            if got is not None:
                if how == "hold":
                    held.append((arg, *got))
                else:
                    _settle(policies, how, arg, *got)
        elif kind == "burst":
            for node in range(n_nodes):
                got = _peek(fast, reference, node)
                if got is not None:
                    held.append((node, *got))
        elif kind == "settle":
            if held:
                _settle(policies, how, *held.pop(arg % len(held)))
        elif kind == "demand":
            for _ in range(how):
                nxt = tracker.next_ref(arg)
                if nxt is None:
                    break
                tracker.mark_consumed(arg, nxt[0])
        else:
            cache.blocks.add(arg)
        most_held = max(most_held, len(held))
        _assert_agree(fast, reference, n_nodes)
    target(float(most_held), label="reservations held at once")
    # Settle what is still in flight and compare once more.
    while held:
        _settle(policies, "abort", *held.pop())
    _assert_agree(fast, reference, n_nodes)
