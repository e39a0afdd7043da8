"""Pinned obs exports: every exported byte of three observed cells.

The determinism tests prove that observing a run leaves its schedule
alone; these pins prove the artifacts themselves do not move when the
recorder's storage or sampling changes.  Each cell pins blake2b digests
of the four exporters' outputs:

* the canonical (sorted keys, compact) ``to_perfetto`` JSON,
* ``spans_to_csv``,
* ``timelines_to_csv``,
* ``render_ascii`` at its default width.

The cells cover every lane family: an ``lfp-rw`` adaptive cell with the
write-back defaults (writeback lanes, write spans), a ``grp`` per-proc
oracle cell, and an oracle cell with a fail-slow disk plus transient
read errors (fault lanes).

The digests were recorded from the recorder as it stood before span
storage went column-wise and the sampler became a clock observer.  Do
not update them to make a test pass: a cheaper recorder must export the
same bytes.
"""

import json
from hashlib import blake2b

import pytest

from repro.experiments import ExperimentConfig
from repro.faults import FailSlow, FaultPlan, ResiliencePolicy, TransientErrors
from repro.obs import run_with_obs
from repro.obs.export import (
    render_ascii,
    spans_to_csv,
    timelines_to_csv,
    to_perfetto,
)

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

#: name -> (config, spans, tracks, output digests).
PINNED = {
    "lfp-rw-adaptive": (
        ExperimentConfig(pattern="lfp-rw", policy="adaptive", **_BASE),
        6953,
        16,
        {
            "perfetto": "f8f7ddab4c830b848db6edd81ed62aae",
            "spans_csv": "44e17c466b8ee5fcdf7e243b146f162c",
            "timelines_csv": "6297b931f8315e6c4d65b91e2ee756ee",
            "ascii": "4625ef23ced5e55e0eb86c54c9889871",
        },
    ),
    "grp-oracle": (
        ExperimentConfig(pattern="grp", policy="oracle", **_BASE),
        5980,
        12,
        {
            "perfetto": "ea53748ba750628513048d6794c51396",
            "spans_csv": "117f4a351c4227b43d903b76cafb144b",
            "timelines_csv": "bed703050825f20559b6775076bd5974",
            "ascii": "a241bd824f1a5fd23b86ef0566c2d122",
        },
    ),
    "gw-oracle-faulted": (
        ExperimentConfig(
            pattern="gw", policy="oracle", faults=_FAULTS, **_BASE
        ),
        2104,
        14,
        {
            "perfetto": "3b736281da4c63f60afb9a8593ac2d99",
            "spans_csv": "41399068937134ae85560f8dafeae196",
            "timelines_csv": "549e76fee765c835b529b7666951749b",
            "ascii": "f2777f6df7cbcab2f7d54b5ed768ee70",
        },
    ),
}


def _digest(text: str) -> str:
    return blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exports_match_pin(name):
    config, n_spans, n_tracks, pins = PINNED[name]
    _, data = run_with_obs(config)
    assert len(data.spans) == n_spans
    assert len(data.spans.tracks()) == n_tracks
    canonical = json.dumps(
        to_perfetto(data), sort_keys=True, separators=(",", ":")
    )
    got = {
        "perfetto": _digest(canonical),
        "spans_csv": _digest(spans_to_csv(data.spans)),
        "timelines_csv": _digest(timelines_to_csv(data.timelines)),
        "ascii": _digest(render_ascii(data)),
    }
    assert got == pins, f"{name}: an exported artifact moved"


def test_pinned_cells_grow_their_lanes():
    """The pins are not vacuous: each cell has the lanes it covers."""
    _, rw = run_with_obs(PINNED["lfp-rw-adaptive"][0])
    assert rw.flusher_nodes and rw.spans.by_track(("writeback", 0))
    _, faulted = run_with_obs(PINNED["gw-oracle-faulted"][0])
    assert faulted.fault_disks
    assert any(kind == "fault" for kind, _ in faulted.spans.tracks())
