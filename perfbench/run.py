"""The repository benchmark: host time per simulated reference.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

Runs the named workload (``paper-suite``, ``scale-1000`` or
``rw-adaptive``) with every simulation seeded ``--seed``, in worker
processes of its own (``worker.py``), and checks every simulated result
(``digests.py``).  It prints each metric by name with its unit, then, as
the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` puts the end-to-end metrics in ``metrics`` (``us_per_ref``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` the per-layer metrics of a
separate traced run (``layertrace.py``).  The exit code is 0 if every
check passed, 1 if any failed (the JSON line is still printed), and 2 if
the benchmark could not run at all (no JSON line).

``--record-digests`` rewrites ``expected_digests.json`` for the default
and held-out seeds; use it only when a change to the model is intended.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import digests
import hostspeed
import workloads
from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Seeds with committed digests: the default and a held-out one.
DIGEST_SEEDS = (1, 1989)

#: Longest any one worker may take before the run is abandoned.
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def _worker(workload: str, seed: int, mode: str, *extra: str) -> List[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        *extra,
    ]


def setup_sample(
    workload: str, seed: int, sampler: hostspeed.Sampler
) -> Tuple[float, float]:
    """One set-up timing: interpreter start, ``repro`` imports and config
    building, up to the worker's ``READY``.  Returns (scaled, raw) s."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker(workload, seed, "setup"),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        raw = time.perf_counter() - start
        proc.stdout.read()
    finally:
        watchdog.cancel()
        watchdog.join()
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "READY" or code != 0:
        raise BenchError(f"set-up worker for {workload} failed (exit {code})")
    slowdown = sampler.slowdown(start, start + raw)
    return hostspeed.scale(raw, slowdown), raw


def run_worker(workload: str, seed: int, mode: str, *extra: str) -> Dict:
    """Run a ``measure`` or ``traced`` worker; return its JSON report."""
    try:
        done = subprocess.run(
            _worker(workload, seed, mode, *extra),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
        raise BenchError(
            f"{mode} worker for {workload} failed (exit {done.returncode})"
        )
    return json.loads(lines[-1])


def pass_seconds(report: Dict, kind: str = "scaled_s") -> float:
    """Seconds of one pass: per unit, the median over passes."""
    return sum(
        statistics.median(entry[kind]) for entry in report["times"].values()
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(measured: Dict, setups: List[Tuple[float, float]]) -> Dict:
    refs = measured["counts"]["refs"]
    return {
        "us_per_ref": (pass_seconds(measured) / refs * 1e6, "us"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }


def per_layer(measured: Dict, traced: Dict) -> Dict:
    counts = traced["counts"]
    calls = traced["calls"]
    refs = counts["refs"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (traced["self_s"].get(layer, 0.0), "s")
    out["sim.events"] = (counts["events"], "count")
    out["sim.events_per_ref"] = (counts["events"] / refs, "events/ref")
    out["prefetch.peek_calls"] = (
        sum(n for k, n in calls.items() if k.endswith("Policy.peek")),
        "count",
    )
    incl = traced["incl_s"]
    for name in ("peek", "exhausted"):
        out[f"prefetch.{name}_s"] = (
            sum(s for k, s in incl.items() if k.endswith(f"Policy.{name}")),
            "s",
        )
    actions = counts["prefetch_actions"]
    prefetched = counts["blocks_prefetched"]
    out["prefetch.actions"] = (actions, "count")
    out["prefetch.futile_share"] = (
        _share(counts["no_candidate"], actions),
        "share",
    )
    out["prefetch.useful_share"] = (
        _share(prefetched - counts["prefetched_unused"], prefetched),
        "share",
    )
    out["fs.read_calls"] = (counts["reads"], "count")
    out["fs.write_calls"] = (counts["writes"], "count")
    out["fs.prefetch_action_calls"] = (actions, "count")
    out["fs.flush_action_calls"] = (counts["flush_actions"], "count")
    out["fs.demand_fetches"] = (counts["demand_fetches"], "count")
    out["fs.flushes"] = (counts["flushes"], "count")
    out["machine.disk_requests"] = (
        calls.get("machine.Disk.submit", 0),
        "count",
    )
    out["experiments.wiring_s"] = (traced["wiring_s"], "s")
    out["experiments.summary_s"] = (traced["summary_s"], "s")
    out["trace.wall_s"] = (traced["wall_s"], "s")
    out["trace.overhead_share"] = (
        pass_seconds(traced) / pass_seconds(measured) - 1.0,
        "share",
    )
    return out


def tracer_checks(traced: Dict) -> List[str]:
    """The tracer's call counts must equal the RunResult counts."""
    counts, calls = traced["counts"], traced["calls"]
    pairs = [
        ("fs.FileServer.read_block", counts["reads"]),
        ("fs.FileServer.write_block", counts["writes"]),
        ("fs.BlockCache.prefetch_action", counts["prefetch_actions"]),
        ("fs.BlockCache.flush_action", counts["flush_actions"]),
        (
            "machine.Disk.submit",
            counts["demand_fetches"]
            + counts["blocks_prefetched"]
            + counts["flushes"]
            + counts["disk_retries"],
        ),
    ]
    return [
        f"traced {key} calls {calls.get(key, 0)} != {want} from results"
        for key, want in pairs
        if calls.get(key, 0) != want
    ]


def digest_mismatches(measured: Dict, traced: Dict) -> List[str]:
    """Labels whose traced digest differs from the untraced one."""
    return sorted(
        label
        for label, digest in measured["digests"].items()
        if traced["digests"].get(label) != digest
    )


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    with hostspeed.Sampler() as sampler:
        setups = [
            setup_sample(workload, seed, sampler)
            for _ in range(SETUP_SAMPLES)
        ]
    if trace:
        measured = run_worker(workload, seed, "measure", "--seconds", "0")
        traced: Optional[Dict] = run_worker(workload, seed, "traced")
    else:
        measured = run_worker(
            workload, seed, "measure", "--seconds", str(seconds)
        )
        traced = None

    attempted = measured["attempted"]
    failed = measured["failed"]
    problems = {k: list(v) for k, v in measured["problems"].items()}
    e2e = end_to_end(measured, setups)
    layers: Dict = {}
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        for label, reasons in traced["problems"].items():
            problems.setdefault(label, []).extend(reasons)
        for label in digest_mismatches(measured, traced):
            failed += 1
            problems.setdefault(label, []).append(
                "traced digest differs from the untraced one"
            )
        checks = tracer_checks(traced)
        if checks:
            problems.setdefault("tracer", []).extend(checks)
        layers = per_layer(measured, traced)
    correct = failed == 0 and not problems

    print(
        f"perfbench {workload} seed {seed}: {measured['passes']} untraced "
        f"pass(es), {measured['counts']['simulations']} simulations and "
        f"{measured['counts']['refs']} refs per pass"
    )
    rows = dict(e2e)
    rows.update(layers)
    raw_us = pass_seconds(measured, "raw_s") / measured["counts"]["refs"] * 1e6
    rows["us_per_ref.raw"] = (raw_us, "us")
    rows["setup_s.raw"] = (statistics.median(r for _, r in setups), "s")
    rows["failed_share"] = (_share(failed, attempted), "share")
    for name, (value, unit) in rows.items():
        print(f"  {name:<28} {_fmt(value):>14} {unit}")
    if traced is not None:
        named = traced.get("named")
        if named:
            total = sum(named["self_by_layer"].values())
            shares = ", ".join(
                f"{layer} {share / total:.0%}"
                for layer, share in sorted(
                    named["self_by_layer"].items(), key=lambda kv: -kv[1]
                )
            )
            print(
                f"  named simulation {named['label']}: {named['spans']} "
                f"spans in {named['file']}; self-time shares {shares}"
            )
        if traced["missing"]:
            print(f"  tracer targets missing: {traced['missing']}")
    committed = "checked" if measured["committed_digests"] else "none for this seed"
    print(f"  committed digests: {committed}")
    for label, reasons in sorted(problems.items()):
        print(f"  FAILED {label}: {'; '.join(reasons)}")

    chosen = layers if trace else e2e
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in chosen.items()
    }
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise BenchError(f"metric {name} is not finite")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def record_digests() -> int:
    """Rewrite ``expected_digests.json`` from one pass per workload at
    each of :data:`DIGEST_SEEDS`."""
    table: Dict[str, Dict[str, Dict[str, str]]] = {}
    for workload in workloads.WORKLOADS:
        for seed in DIGEST_SEEDS:
            report = run_worker(
                workload, seed, "measure", "--seconds", "0", "--no-expected"
            )
            if report["failed"]:
                raise BenchError(
                    f"{workload} seed {seed} failed: {report['problems']}"
                )
            table.setdefault(workload, {})[str(seed)] = report["digests"]
    with open(digests.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {digests.EXPECTED_PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host time per simulated reference, with checked results."
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
