"""Correctness checks on every simulated result.

A simulation's digest covers every ``RunResult`` measure in its wire
form (``repro.perf.serialize.result_to_dict``) except ``n_events``:
``n_events`` counts simulator work, which exact optimizations are meant
to change, so it is reported as the ``sim.events`` count instead of
being checked.

``expected_digests.json`` holds one digest per simulation for the
default seed and a held-out seed.  At those seeds a differing digest is
a failure; at any seed a simulation also fails if it raises, ends with a
non-finite ``total_time``, or consumes other than its configured
references.  Regenerate the file with ``python3 perfbench/run.py
--record-digests`` only when a change to the simulated model is
intended.
"""

from __future__ import annotations

import json
import math
from hashlib import blake2b
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "EXCLUDED",
    "EXPECTED_PATH",
    "check_result",
    "digest_of",
    "expected_for",
    "load_expected",
]

EXPECTED_PATH = Path(__file__).with_name("expected_digests.json")

#: The one measure the digest leaves out.
EXCLUDED = frozenset({"n_events"})


def digest_of(measures: Dict) -> str:
    """Digest of a result's wire-form measures, minus :data:`EXCLUDED`."""
    kept = {k: v for k, v in measures.items() if k not in EXCLUDED}
    payload = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def load_expected() -> Dict:
    """``{workload: {seed: {label: digest}}}`` (seeds as strings)."""
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_for(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed digests for ``workload`` at ``seed``, or ``None``."""
    return load_expected().get(workload, {}).get(str(seed))


def check_result(
    measures: Dict,
    configured_refs: int,
    expected: Optional[str] = None,
) -> List[str]:
    """Why the simulation with wire-form ``measures`` failed (empty if it
    passed).  ``expected`` is the committed digest, if any."""
    problems = []
    total = measures["total_time"]
    if not math.isfinite(total):
        problems.append(f"non-finite total_time {total!r}")
    consumed = measures["total_accesses"] + measures["total_writes"]
    if consumed != configured_refs:
        problems.append(
            f"consumed {consumed} references, configured {configured_refs}"
        )
    if expected is not None and digest_of(measures) != expected:
        problems.append("result digest differs from the committed one")
    return problems
