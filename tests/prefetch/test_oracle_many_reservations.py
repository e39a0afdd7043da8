"""Pinned event traces of oracle runs that hold many reservations at once.

The twelve digests in ``tests/test_write_preservation.py`` run at 4 nodes,
where at most 3 prefetch reservations are ever in flight.  These cells run
100 nodes with sync ``none`` on global patterns, so up to 99 daemons hold a
reservation while they queue on the metadata lock, and the third cell's
small unused-prefetch budget makes actions abort and reopen their
references.  The digests were recorded from the linear-scan oracle; the
candidate bookkeeping must reproduce its schedules bit for bit.
"""

import pytest

from repro.analysis.audit import run_with_audit
from repro.experiments import ExperimentConfig

#: (pattern, lead, prefetch_unused_limit) -> blake2b/16 event-trace digest.
PINNED_DIGESTS = {
    ("gw", 0, None): "d07f5bbd04a75fd8f119778e9c0644ff",
    ("grp", 4, None): "84b70dd363b8628f93a4cdfa12ba2c27",
    ("gw", 0, 20): "1447bb4385665e572d4a77c321a48615",
}


def _config(pattern, lead, unused_limit):
    return ExperimentConfig(
        pattern=pattern,
        sync_style="none",
        prefetch=True,
        policy="oracle",
        n_nodes=100,
        n_disks=100,
        file_blocks=2000,
        total_reads=2000,
        lead=lead,
        prefetch_unused_limit=unused_limit,
        seed=1,
        record_trace=False,
    )


@pytest.mark.parametrize("pattern,lead,unused_limit", list(PINNED_DIGESTS))
def test_many_reservation_trace_is_pinned(pattern, lead, unused_limit):
    report = run_with_audit(_config(pattern, lead, unused_limit))
    assert report.trace_digest == PINNED_DIGESTS[(pattern, lead, unused_limit)]
    if unused_limit is not None:
        # The reopen path ran: budget_full actions aborted reservations.
        assert report.result.prefetch_outcomes["budget_full"] == 124
