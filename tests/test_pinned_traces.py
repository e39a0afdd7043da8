"""Pinned event traces for the paths the read-only pins do not reach.

``test_write_preservation.py`` pins 4-node read-only oracle cells and
``prefetch/test_oracle_many_reservations.py`` pins three 100-node oracle
cells.  The cells below cover what neither reaches:

* an ``lfp-rw`` adaptive cell — writeback, the flusher and prefetch
  daemons sharing one CPU per node, and the adaptive policy;
* a faulted oracle cell — a fail-slow disk plus transient read errors,
  so retries, backoff and the resilience layer's event log all run;
* an obs-attached run — the recorder's passive hooks riding along.

The digests were recorded from the simulator as it stood before the
daemon action loop and the resource primitives were made cheaper on the
host.  Do not update these to make a test pass: a host-side speed-up must
leave every ``(time, priority, sequence, type)`` event where it was.
"""

import pytest

from repro.analysis.audit import run_with_audit
from repro.experiments import ExperimentConfig
from repro.faults import FailSlow, FaultPlan, ResiliencePolicy, TransientErrors

_BASE = dict(
    sync_style="per-proc",
    n_nodes=4,
    n_disks=4,
    file_blocks=200,
    total_reads=200,
    compute_mean=30.0,
    seed=1,
    record_trace=False,
)

_FAULTS = FaultPlan(
    faults=(
        FailSlow(disk=0, factor=4.0, start=100.0, end=1500.0),
        TransientErrors(disk=2, probability=0.3, start=0.0, end=2000.0),
    ),
    resilience=ResiliencePolicy(
        timeout=240.0, max_retries=40, backoff_base=10.0, backoff_max=120.0
    ),
)

#: name -> (config, obs attached, trace digest, events processed).
PINNED = {
    "lfp-rw-adaptive": (
        ExperimentConfig(pattern="lfp-rw", policy="adaptive", **_BASE),
        False,
        "35aef1ec0b3f9bdb54f5240ac77ad714",
        29942,
    ),
    "gw-oracle-faulted": (
        ExperimentConfig(
            pattern="gw", policy="oracle", faults=_FAULTS, **_BASE
        ),
        False,
        "3d9ee8d16a13f4c60df3b302033c8ff1",
        14661,
    ),
    "grp-oracle-obs": (
        ExperimentConfig(pattern="grp", policy="oracle", **_BASE),
        True,
        "bf4ff38f68ca389d1aa6babee24df64a",
        24754,
    ),
}

#: Fault-event log digest of the faulted cell (retries, timeouts and
#: breaker transitions in order).
FAULTED_FAULT_DIGEST = "b3c6b35f933b94c831add1ecfcc82859"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_event_trace_matches_pin(name):
    config, obs, digest, n_events = PINNED[name]
    report = run_with_audit(config, obs=obs)
    assert report.trace_digest == digest, f"{name}: event trace moved"
    assert report.n_events == n_events
    if obs:
        assert report.obs_data is not None


def test_pinned_cells_exercise_their_paths():
    """The pins are not vacuous: each cell runs the machinery it is
    there to cover."""
    rw = run_with_audit(PINNED["lfp-rw-adaptive"][0]).result
    assert rw.total_writes > 0
    assert rw.flush_outcomes.get("success", 0) > 0

    faulted = run_with_audit(PINNED["gw-oracle-faulted"][0]).result
    assert faulted.errors_by_disk.get(2, 0) > 0
    assert faulted.retries_by_disk.get(0, 0) > 0
    assert faulted.fault_digest == FAULTED_FAULT_DIGEST
