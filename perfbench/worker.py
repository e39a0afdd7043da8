"""Run one workload in this process and report on it as JSON.

``run.py`` starts this script once per measurement so every workload
runs in a fresh interpreter.  It prints ``READY`` once ``repro`` is
imported and the workload's configurations are built (the end of
set-up), then one JSON object on its last line.

Modes:

``setup``
    stop after ``READY`` (set-up timing samples);
``measure``
    run whole passes over the workload's units until ``--seconds`` is
    (nearly) spent, at least one, timing each unit while a thread probes
    the host speed (``hostspeed.py``);
``traced``
    one pass with :class:`layertrace.LayerTracer` installed, then the
    workload's named simulation once more with its full spans recorded.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import digests
import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: Where traced runs write the named simulation's spans.
OUT_DIR = ROOT / ".perfbench-out"


#: Counts summed over one pass's results (they repeat exactly).
_RESULT_COUNTS = {
    "events": lambda r: r.n_events,
    "reads": lambda r: r.total_accesses,
    "writes": lambda r: r.total_writes,
    "prefetch_actions": lambda r: sum(r.prefetch_outcomes.values()),
    "no_candidate": lambda r: r.prefetch_outcomes.get("no_candidate", 0),
    "blocks_prefetched": lambda r: r.blocks_prefetched,
    "prefetched_unused": lambda r: r.prefetch_unused_evicted
    + r.prefetch_unused_at_end,
    "demand_fetches": lambda r: r.blocks_demand_fetched,
    "flushes": lambda r: r.flush_count,
    "flush_actions": lambda r: sum(r.flush_outcomes.values()),
    "disk_retries": lambda r: r.disk_retries,
}


class Checks:
    """Result checks and RunResult-derived counts over one workload."""

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: Dict[str, List[str]] = {}
        self.digests: Dict[str, str] = {}
        self.counts: Dict[str, int] = dict.fromkeys(_RESULT_COUNTS, 0)
        self.counts.update(refs=0, simulations=0)
        self._first_pass = True

    def _fail(self, label: str, reasons: List[str]) -> None:
        self.failed += 1
        self.problems.setdefault(label, []).extend(reasons)

    def record(self, unit, results, error: Optional[str]) -> None:
        """Check one unit's simulations (``results`` is ``None`` if the
        unit raised ``error``)."""
        from repro.perf.serialize import result_to_dict

        if results is not None and [lb for lb, _ in results] != list(
            unit.labels
        ):
            error = f"unit returned {[lb for lb, _ in results]}"
            results = None
        for index, label in enumerate(unit.labels):
            self.attempted += 1
            if self._first_pass:
                self.counts["refs"] += unit.refs[index]
                self.counts["simulations"] += 1
            if results is None:
                self._fail(label, [f"raised {error}"])
                continue
            result = results[index][1]
            measures = result_to_dict(result)
            expected = self.expected.get(label) if self.expected else None
            reasons = digests.check_result(
                measures, unit.refs[index], expected
            )
            digest = digests.digest_of(measures)
            if label in self.digests and self.digests[label] != digest:
                reasons.append("result digest changed between passes")
            self.digests.setdefault(label, digest)
            if reasons:
                self._fail(label, reasons)
            if self._first_pass:
                for key, count in _RESULT_COUNTS.items():
                    self.counts[key] += count(result)

    def end_pass(self) -> None:
        self._first_pass = False


def run_pass(units, checks: Checks, times: Dict[str, Dict[str, list]], sampler):
    """Run every unit once, timing each while ``sampler`` probes the host
    speed."""
    for unit in units:
        start = time.perf_counter()
        try:
            results, error = unit.run(), None
        except Exception as exc:  # a failed simulation is a measured outcome
            traceback.print_exc(file=sys.stderr)
            results, error = None, repr(exc)
        end = time.perf_counter()
        work = end - start - sampler.busy(start, end)
        slowdown = sampler.slowdown(start, end)
        entry = times.setdefault(
            unit.name, {"raw_s": [], "scaled_s": [], "slowdown": []}
        )
        entry["raw_s"].append(end - start)
        entry["slowdown"].append(slowdown)
        entry["scaled_s"].append(hostspeed.scale(work, slowdown))
        checks.record(unit, results, error)
    checks.end_pass()


def measure(units, checks: Checks, seconds: float) -> Dict:
    times: Dict[str, Dict[str, list]] = {}
    start = time.perf_counter()
    passes = 0
    with hostspeed.Sampler() as sampler:
        while True:
            pass_start = time.perf_counter()
            run_pass(units, checks, times, sampler)
            passes += 1
            now = time.perf_counter()
            # Stop once another pass would overrun the budget by more
            # than half a pass: whole passes sample every unit equally.
            if now - start + (now - pass_start) / 2 >= seconds:
                break
    return {"passes": passes, "times": times}


def traced(units, checks: Checks, workload: str, seed: int) -> Dict:
    from layertrace import LayerTracer

    tracer = LayerTracer()
    times: Dict[str, Dict[str, list]] = {}
    with hostspeed.Sampler() as sampler, tracer:
        run_pass(units, checks, times, sampler)
    report = {
        "passes": 1,
        "times": times,
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "incl_s": tracer.incl_s,
        "wall_s": tracer.wall_s,
        "wiring_s": tracer.wiring_s,
        "summary_s": tracer.summary_s,
        "missing": tracer.missing,
    }
    # Full spans of the named simulation come from a run of its own, so
    # the cost of recording them stays out of the aggregates above.
    named = workloads.NAMED_SIMULATION[workload]
    unit = next(u for u in units if named in u.labels)
    recorder = LayerTracer(
        record_if=lambda config: workloads.sim_label(config) == named
    )
    try:
        with recorder:
            results, error = unit.run(), None
    except Exception as exc:  # a failed simulation is a measured outcome
        traceback.print_exc(file=sys.stderr)
        results, error = None, repr(exc)
    checks.record(unit, results, error)
    spans = recorder.spans
    if spans is None:
        return report
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-spans.csv.gz"
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
        spans.write_csv(fh)
    report["named"] = {
        "label": spans.label,
        "spans": len(spans),
        "self_by_layer": spans.self_by_layer(),
        "file": str(path.relative_to(ROOT)),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "measure", "traced")
    )
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument(
        "--no-expected",
        action="store_true",
        help="skip the committed digests (when recording new ones)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    units = workloads.build(args.workload, args.seed)
    import repro.perf.serialize  # noqa: F401  (checks use it)

    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    checks = Checks(
        None
        if args.no_expected
        else digests.expected_for(args.workload, args.seed)
    )
    if args.mode == "measure":
        report = measure(units, checks, args.seconds)
    else:
        report = traced(units, checks, args.workload, args.seed)
    report.update(
        attempted=checks.attempted,
        failed=checks.failed,
        problems=checks.problems,
        digests=checks.digests,
        counts=checks.counts,
        committed_digests=checks.expected is not None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
