"""Command-line interface: ``rapid-transit`` / ``python -m repro``.

Subcommands:

* ``run``     — run one experiment cell (pattern/sync/intensity) paired
  with its no-prefetch baseline and print the comparison;
* ``suite``   — run the full paper mix and print the summary table;
* ``figure``  — regenerate one paper figure (fig1, fig3..fig16, vd,
  vf-buffers, vf-patterns, the ext-* extensions, and the abl-* ablations)
  and print its table and shape checks (``--scatter`` adds the y=x view);
* ``sweep``   — sweep any ExperimentConfig parameter with paired runs;
* ``report``  — regenerate *every* figure into a markdown report;
* ``analyze`` — offline analysis of a saved trace (JSON lines): what-if
  hit ratios, sequentiality, and Fig. 2 taxonomy classification;
* ``audit``   — determinism audit: run one configuration twice (prefetch
  on and off), compare event-trace hashes, and report same-instant
  resource collisions and invariant sweeps (see docs/analysis.md);
* ``bench``   — benchmark the simulator and the perf layer: kernel
  events/sec, sequential-vs-parallel suite wall time (digests must
  match), cache cold/warm behaviour, peak RSS; writes
  ``BENCH_<label>.json`` and optionally gates on a committed baseline
  (see docs/perf.md);
* ``faults``  — fault-injection plans (see docs/faults.md):
  ``faults make`` composes a plan from ``--fail-stop``/``--fail-slow``/
  ``--transient``/``--hot-spot`` specs plus resilience knobs and writes
  it as JSON; ``faults show`` pretty-prints a saved plan and its digest.
  ``run``, ``audit``, ``trace record``, and ``trace replay`` all accept
  ``--faults plan.json`` to execute under that plan;
* ``trace``   — the trace lifecycle (see docs/traces.md):
  ``trace record`` captures a replayable trace from a live run,
  ``trace synth`` generates non-paper workloads (bursty, phased, skewed,
  mixed), ``trace import`` adapts external block-trace CSVs,
  ``trace replay`` drives a trace through the full simulator as a paired
  prefetch on/off comparison (``--audit`` replays twice and diffs event
  hashes), and ``trace stats`` summarizes a trace file;
* ``obs``     — the observability layer (see docs/obs.md):
  ``obs export`` runs one cell under the span tracer and writes a
  Chrome/Perfetto trace-event JSON (``--format csv`` writes metric
  timelines + spans as CSV instead), ``obs timeline`` renders the span
  timeline as ASCII lanes, and ``obs attribute`` decomposes each node's
  wall time into compute / demand-I/O stall / sync wait / daemon theft
  for a paired comparison;
* ``lint``    — simlint v2 (see docs/analysis.md): the per-file
  determinism rules plus whole-program taint and hook-purity analysis,
  with SARIF/JSON output, a findings baseline (fail only on new), an
  incremental per-file result cache, and ``--jobs`` parallelism.

``run --audit`` additionally runs the paired comparison under the runtime
auditor: event-trace hashing, the simultaneous-event race detector, and
periodic cache/disk invariant sweeps.  ``run --obs`` appends the per-node
bottleneck-attribution tables; ``audit --obs`` carries the observability
recorder through both audited runs, proving tracing is schedule-neutral.

``run``, ``suite``, and ``figure`` accept ``--jobs N`` (fan independent
simulations out to N worker processes), ``--cache-dir DIR`` and
``--no-cache`` (memoize completed runs on disk); ``audit --jobs``
parallelizes the two audited cells.  Defaults keep everything
sequential and uncached.  See docs/perf.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.lint import add_lint_arguments, run_cli as lint_cli
from .experiments import (
    ExperimentConfig,
    ablation_file_layout,
    ablation_numa_layout,
    ablation_replacement,
    chaos_fail_stop,
    chaos_prefetch_under_faults,
    chaos_writeback_fail_slow,
    ext_disk_sensitivity,
    ext_hybrid_patterns,
    fig1_uneven_benefit,
    fig3_read_time,
    fig4_hit_ratio,
    fig5_ready_unready,
    fig6_hitwait_vs_readtime,
    fig7_disk_response,
    fig8_total_time,
    fig9_sync_time,
    fig10_reductions,
    fig11_hitratio_vs_reduction,
    fig12_compute_sweep,
    fig13_lead_hitwait,
    fig14_lead_missratio,
    fig15_lead_readtime,
    fig16_lead_totaltime,
    ext_predictor_comparison,
    ext_scalability,
    run_lead_sweep,
    run_pair,
    run_suite,
    vd_min_prefetch_time,
    vf_buffer_count,
    vf_pattern_breakdown,
)
from .experiments.figures import FigureData
from .faults.plan import (
    FailSlow,
    FailStop,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    HotSpot,
    ResiliencePolicy,
    TransientErrors,
)
from .metrics.report import (
    ATTRIBUTION_COLUMNS,
    attribution_rows,
    attribution_summary,
    fault_measure_rows,
    paired_measure_rows,
    render_table,
)
from .prefetch.factory import policy_choices
from .workload.patterns import ALL_PATTERN_NAMES, PATTERN_NAMES
from .workload.synchronization import SYNC_STYLES

__all__ = ["main"]


_SUITE_FIGURES = {
    "fig3": fig3_read_time,
    "fig4": fig4_hit_ratio,
    "fig5": fig5_ready_unready,
    "fig6": fig6_hitwait_vs_readtime,
    "fig7": fig7_disk_response,
    "fig8": fig8_total_time,
    "fig9": fig9_sync_time,
    "fig10": fig10_reductions,
    "fig11": fig11_hitratio_vs_reduction,
    "vf-patterns": vf_pattern_breakdown,
}

_LEAD_FIGURES = {
    "fig13": fig13_lead_hitwait,
    "fig14": fig14_lead_missratio,
    "fig15": fig15_lead_readtime,
    "fig16": fig16_lead_totaltime,
}

_STANDALONE_FIGURES = {
    "fig1": fig1_uneven_benefit,
    "fig12": fig12_compute_sweep,
    "vd": vd_min_prefetch_time,
    "vf-buffers": vf_buffer_count,
    "ext-predictors": ext_predictor_comparison,
    "ext-scalability": ext_scalability,
    "ext-hybrid": ext_hybrid_patterns,
    "ext-disk": ext_disk_sensitivity,
    "abl-numa": ablation_numa_layout,
    "abl-replacement": ablation_replacement,
    "abl-layout": ablation_file_layout,
    "chaos": chaos_prefetch_under_faults,
    "chaos-failstop": chaos_fail_stop,
    "chaos-writeback": chaos_writeback_fail_slow,
}

FIGURE_IDS = sorted(
    list(_SUITE_FIGURES) + list(_LEAD_FIGURES) + list(_STANDALONE_FIGURES)
)


def _print_figure(fig: FigureData, scatter: bool = False) -> None:
    print(render_table(fig.columns, fig.rows, title=fig.title))
    if scatter:
        points = fig.paired_points()
        if points is not None:
            from .metrics.report import render_scatter

            print()
            print(render_scatter(
                points,
                diagonal=True,
                xlabel=fig.columns[1],
                ylabel=fig.columns[2],
                title="below the diagonal = prefetching wins",
            ))
        else:
            print("(no y=x scatter view for this figure)")
    if fig.notes:
        print(f"note: {fig.notes}")
    for name, ok in fig.checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")


def _print_audit(report) -> None:
    print(
        f"audit [{report.label}]: {report.n_events} events, "
        f"trace digest {report.trace_digest}, "
        f"{report.n_collisions} same-instant resource collisions, "
        f"{report.invariant_sweeps} invariant sweeps (all passed)"
    )


def _load_faults(args: argparse.Namespace) -> Optional["FaultPlan"]:
    """Load ``--faults plan.json`` when given (None otherwise)."""
    path = getattr(args, "faults", None)
    if path is None:
        return None
    return FaultPlan.load(path)


def _load_fault_plans(
    entries: Optional[List[str]],
) -> Optional[tuple]:
    """Parse ``--fault-plans`` entries: ``none`` → healthy cell, anything
    else is a fault-plan JSON path.  Returns None when the flag is absent
    so the spec's default (a single healthy column, or the lifted
    ``--faults`` plan) applies."""
    if not entries:
        return None
    plans = []
    for entry in entries:
        if entry == "none":
            plans.append(None)
        else:
            plans.append(FaultPlan.load(entry))
    return tuple(plans)


def _add_scheduler_flags(parser: argparse.ArgumentParser) -> None:
    """The simulation-kernel knobs: queue backend and timeout batching."""
    from .sim.scheduler import SCHEDULER_NAMES

    parser.add_argument(
        "--scheduler", choices=SCHEDULER_NAMES, default="heap",
        help="event-queue backend (both serve bit-identical schedules; "
        "see docs/perf.md)",
    )
    parser.add_argument(
        "--batch-timeouts", action="store_true",
        help="coalesce same-instant fixed-cost timeouts into shared "
        "queue entries (changes the event population, stays "
        "deterministic)",
    )


def _add_perf_flags(parser: argparse.ArgumentParser) -> None:
    """The shared performance flags: worker fan-out and run caching."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulations "
        "(default 1: sequential, in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="memoize completed runs under DIR "
        "(default: $REPRO_CACHE_DIR if set, else no caching)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the run cache even if $REPRO_CACHE_DIR is set",
    )


def _add_write_flags(parser: argparse.ArgumentParser) -> None:
    """Write-path knobs (meaningful only on read-write patterns)."""
    from .fs.writeback import WRITE_MODES

    parser.add_argument(
        "--write-mode", choices=WRITE_MODES, default="write-back",
        help="write-back (flusher daemon + dirty-ratio throttle) or "
        "write-through (every write flushed synchronously); ignored on "
        "read-only patterns",
    )
    parser.add_argument(
        "--dirty-ratio", type=float, default=0.5, metavar="R",
        help="foreground throttle threshold as a fraction of cache "
        "buffers (Linux vm.dirty_ratio; default 0.5)",
    )
    parser.add_argument(
        "--dirty-background-ratio", type=float, default=0.25, metavar="R",
        help="background flusher threshold (Linux "
        "vm.dirty_background_ratio; default 0.25)",
    )


def _open_cache(args: argparse.Namespace):
    """The run cache the perf flags select (None = caching off)."""
    from .perf.cache import open_cache

    return open_cache(
        getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    )


def _print_attribution(base, pf) -> None:
    """Per-node wall-time attribution tables for a paired comparison."""
    for tag, result in (("no-prefetch", base), ("prefetch", pf)):
        print()
        print(
            render_table(
                ATTRIBUTION_COLUMNS,
                attribution_rows(result),
                title=f"wall-time attribution [{tag}] "
                f"(obs digest {result.obs_digest})",
            )
        )
        print(attribution_summary(result))


def _print_fault_summary(base, pf) -> None:
    print()
    print(
        render_table(
            ["fault measure", "no-prefetch", "prefetch"],
            fault_measure_rows(base, pf),
            title=f"degraded-mode measures (plan digest "
            f"{pf.config.faults.digest})",
        )
    )
    print(f"fault-event digests: no-prefetch {base.fault_digest}, "
          f"prefetch {pf.fault_digest}")


def _cmd_run(args: argparse.Namespace) -> int:
    faults = _load_faults(args)
    config = ExperimentConfig(
        pattern=args.pattern,
        sync_style=args.sync,
        compute_mean=args.compute,
        seed=args.seed,
        policy=args.policy,
        lead=args.lead,
        n_nodes=args.nodes,
        n_disks=args.disks,
        file_blocks=args.file_blocks,
        total_reads=args.reads,
        faults=faults,
        scheduler=args.scheduler,
        batch_timeouts=args.batch_timeouts,
        write_mode=args.write_mode,
        dirty_ratio=args.dirty_ratio,
        dirty_background_ratio=args.dirty_background_ratio,
    )
    audits = []
    cache = None
    if args.audit:
        from .analysis.audit import run_with_audit

        pf_report = run_with_audit(config)
        base_report = run_with_audit(config.paired_baseline())
        pf, base = pf_report.result, base_report.result
        audits = [base_report, pf_report]
    else:
        cache = _open_cache(args)
        pf, base = run_pair(config, jobs=args.jobs, cache=cache)
    print(
        render_table(
            ["measure", "no-prefetch", "prefetch"],
            paired_measure_rows(base, pf),
            title=f"{config.pattern}/{config.sync_style}/"
            f"{config.intensity} (seed {config.seed})",
        )
    )
    if faults is not None:
        _print_fault_summary(base, pf)
    if args.obs:
        _print_attribution(base, pf)
    for report in audits:
        _print_audit(report)
    if cache is not None:
        print(cache.summary())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .perf.executor import execute_audits

    config = ExperimentConfig(
        pattern=args.pattern,
        sync_style=args.sync,
        compute_mean=args.compute,
        seed=args.seed,
        policy=args.policy,
        n_nodes=args.nodes,
        n_disks=args.disks,
        file_blocks=args.file_blocks,
        total_reads=args.reads,
        faults=_load_faults(args),
        scheduler=args.scheduler,
        batch_timeouts=args.batch_timeouts,
        write_mode=args.write_mode,
        dirty_ratio=args.dirty_ratio,
        dirty_background_ratio=args.dirty_background_ratio,
    )
    verdicts = execute_audits(
        [config, config.paired_baseline()], jobs=args.jobs, obs=args.obs
    )
    ok = True
    for verdict in verdicts:
        print(verdict["summary"])
        ok = ok and verdict["identical"]
    tag = " (with observability recorder attached)" if args.obs else ""
    print(f"determinism audit{tag}:", "PASS" if ok else "FAIL")
    if args.compare_schedulers:
        from .analysis.audit import run_with_audit
        from .sim.scheduler import SCHEDULER_NAMES

        digests = {}
        for name in SCHEDULER_NAMES:
            report = run_with_audit(
                config.with_overrides(scheduler=name), sweep_interval=None
            )
            digests[name] = report.trace_digest
            print(f"  {name:<10} {report.trace_digest}")
        identical = len(set(digests.values())) == 1
        print(
            "scheduler equivalence:", "PASS" if identical else "FAIL"
        )
        ok = ok and identical
    return 0 if ok else 1


def _cmd_tournament(args: argparse.Namespace) -> int:
    from .experiments.tournament import (
        NO_PREFETCH,
        TournamentSpec,
        run_tournament,
    )

    try:
        spec_kwargs = {}
        fault_plans = _load_fault_plans(args.fault_plans)
        if fault_plans is not None:
            spec_kwargs["fault_plans"] = fault_plans
        spec = TournamentSpec(
            patterns=tuple(args.patterns),
            sync_styles=tuple(args.sync),
            policies=tuple(args.policies),
            base=ExperimentConfig(
                compute_mean=args.compute,
                seed=args.seed,
                n_nodes=args.nodes,
                n_disks=args.disks,
                file_blocks=args.file_blocks,
                total_reads=args.reads,
                faults=_load_faults(args),
            ),
            **spec_kwargs,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tournament = run_tournament(
        spec,
        jobs=args.jobs,
        cache=_open_cache(args),
        progress=lambda msg: print(msg, file=sys.stderr),
    )

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(tournament.to_csv())
        print(f"wrote {args.csv}", file=sys.stderr)
    print(tournament.render())
    print()
    print("standings (cells won):")
    for policy, wins in tournament.standings():
        print(f"  {policy}: {wins}")
    if NO_PREFETCH in spec.policies:
        for policy in spec.policies:
            if policy == NO_PREFETCH:
                continue
            won, total = tournament.beats_baseline(policy)
            print(f"{policy} beat no-prefetch in {won}/{total} cells")

    digest = tournament.digest()
    print(f"tournament digest: {digest}")
    if args.digest_out:
        with open(args.digest_out, "w") as fh:
            fh.write(digest + "\n")
    if args.check_digest:
        with open(args.check_digest) as fh:
            expected = fh.read().strip()
        if digest != expected:
            print(
                f"digest mismatch: expected {expected}, got {digest}",
                file=sys.stderr,
            )
            return 1
        print("digest check: PASS")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .experiments.soak import SoakSpec, run_soak

    try:
        spec = SoakSpec(
            n_plans=args.plans,
            seed=args.seed,
            pattern=args.pattern,
            sync_style=args.sync,
            policy=args.policy,
            base=ExperimentConfig(
                compute_mean=args.compute,
                seed=args.seed,
                n_nodes=args.nodes,
                n_disks=args.disks,
                file_blocks=args.file_blocks,
                total_reads=args.reads,
                record_trace=False,
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.save_plans:
        import os

        os.makedirs(args.save_plans, exist_ok=True)
        for index, plan in enumerate(spec.plans()):
            path = os.path.join(args.save_plans, f"soak-{index}.json")
            plan.save(path)
            print(f"wrote {path} ({plan.digest})", file=sys.stderr)

    report = run_soak(
        spec, progress=lambda msg: print(msg, file=sys.stderr)
    )
    print(report.render())
    print()
    for cell in report.cells:
        if cell.error:
            print(f"plan {cell.index} crashed: {cell.error}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.csv}", file=sys.stderr)

    digest = report.digest()
    print(f"soak digest: {digest}")
    if args.digest_out:
        with open(args.digest_out, "w") as fh:
            fh.write(digest + "\n")
    ok = report.passed
    if not ok:
        for index, name in report.failures():
            print(f"invariant FAILED: plan {index}: {name}")
    print(
        f"invariant sweep ({len(report.cells)} plans x "
        f"{len(report.cells[0].invariants)} invariants):",
        "PASS" if ok else "FAIL",
    )
    if args.check_digest:
        with open(args.check_digest) as fh:
            expected = fh.read().strip()
        if digest != expected:
            print(
                f"digest mismatch: expected {expected}, got {digest}",
                file=sys.stderr,
            )
            return 1
        print("digest check: PASS")
    return 0 if ok else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    suite = run_suite(
        seed=args.seed,
        progress=(lambda msg: print(msg, file=sys.stderr))
        if args.verbose
        else None,
        jobs=args.jobs,
        cache=cache,
    )
    rows = [
        (
            p.label,
            p.baseline.total_time,
            p.prefetch.total_time,
            p.total_time_reduction,
            p.read_time_reduction,
            p.prefetch.hit_ratio,
        )
        for p in suite.pairs
    ]
    print(
        render_table(
            [
                "experiment",
                "base total",
                "pf total",
                "total red %",
                "read red %",
                "hit ratio",
            ],
            rows,
            title=f"Full suite, seed {suite.seed} ({len(rows)} cells)",
        )
    )
    if cache is not None:
        print(cache.summary())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import inspect

    fig_id = args.id
    cache = _open_cache(args)
    if fig_id in _SUITE_FIGURES:
        suite = run_suite(seed=args.seed, jobs=args.jobs, cache=cache)
        fig = _SUITE_FIGURES[fig_id](suite)
    elif fig_id in _LEAD_FIGURES:
        sweep = run_lead_sweep(seed=args.seed, jobs=args.jobs, cache=cache)
        fig = _LEAD_FIGURES[fig_id](sweep)
    elif fig_id in _STANDALONE_FIGURES:
        generator = _STANDALONE_FIGURES[fig_id]
        # Generators batching independent runs take jobs/cache; the
        # seed-only ones (findings, extensions) run as they always have.
        kwargs = {}
        accepted = inspect.signature(generator).parameters
        if "jobs" in accepted:
            kwargs["jobs"] = args.jobs
        if "cache" in accepted:
            kwargs["cache"] = cache
        fig = generator(seed=args.seed, **kwargs)
    else:
        print(f"unknown figure {fig_id!r}; known: {FIGURE_IDS}",
              file=sys.stderr)
        return 2
    _print_figure(fig, scatter=args.scatter)
    if cache is not None:
        print(cache.summary())
    return 0 if fig.all_checks_pass else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweeps import SweepResult, run_sweep

    base = ExperimentConfig(
        pattern=args.pattern,
        sync_style=args.sync,
        compute_mean=args.compute,
        seed=args.seed,
    )
    # Values are parsed as int, then float, then kept as strings.
    values = []
    for raw in args.values:
        for cast in (int, float):
            try:
                values.append(cast(raw))
                break
            except ValueError:
                continue
        else:
            values.append(raw)
    sweep = run_sweep(args.param, values, base=base)
    print(
        render_table(
            SweepResult.COLUMNS,
            sweep.rows(),
            title=f"sweep {args.param} on {base.pattern}/{base.sync_style}",
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report_gen import generate_report

    figures = generate_report(
        args.output,
        seed=args.seed,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    n_checks = sum(len(f.checks) for f in figures)
    n_pass = sum(sum(f.checks.values()) for f in figures)
    print(f"wrote {args.output}: {n_pass}/{n_checks} checks pass")
    return 0 if n_pass == n_checks else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .perf.bench import (
        compare_baseline,
        compare_scheduler_baseline,
        render_bench,
        render_scheduler_bench,
        run_bench,
        run_scheduler_bench,
    )

    if args.schedulers:
        label = args.label or "scheduler"
        report = run_scheduler_bench(
            label=label,
            seed=args.seed,
            scales=args.scales,
            reads_per_node=args.reads_per_node,
            output_dir=args.output_dir,
        )
        compare = compare_scheduler_baseline
        render = render_scheduler_bench
    else:
        label = args.label or ("quick" if args.quick else "full")
        report = run_bench(
            label=label,
            quick=args.quick,
            jobs=args.jobs,
            seed=args.seed,
            output_dir=args.output_dir,
            profile=args.profile,
        )
        compare = compare_baseline
        render = render_bench
    print(render(report))
    print(f"wrote {args.output_dir}/BENCH_{label}.json")
    if args.profile and not args.schedulers:
        print(f"wrote {args.output_dir}/BENCH_{label}_profile.txt")
    status = 0 if report["ok"] else 1
    if args.baseline is not None:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = compare(report, baseline, max_regress=args.max_regress)
        for line in failures:
            print(f"REGRESSION {line}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"no regression vs {args.baseline} "
                  f"(threshold {args.max_regress:.0%})")
    return status


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .experiments.analysis import (
        classify_pattern,
        lru_hit_ratio,
        opt_hit_ratio,
        run_lengths,
        sequentiality,
    )
    from .fs.trace import Trace

    trace = Trace.load(args.trace)
    print(f"{len(trace)} accesses; outcomes {trace.outcome_counts()}")
    seq = sequentiality(trace)
    print(
        f"global sequentiality: successor {seq['successor_fraction']:.2f}, "
        f"monotone {seq['monotone_fraction']:.2f}"
    )
    klass = classify_pattern(trace)
    print(
        f"taxonomy (Fig. 2): looks like '{klass.name}' — scope "
        f"{klass.scope}, {'overlapped' if klass.overlapped else 'disjoint'},"
        f" {'regular' if klass.regular_portions else 'irregular'} portions"
    )
    for size in args.cache_sizes:
        print(
            f"what-if cache of {size} blocks: "
            f"LRU hit ratio {lru_hit_ratio(trace, size):.3f}, "
            f"OPT bound {opt_hit_ratio(trace, size):.3f}"
        )
    runs = run_lengths(trace)
    lengths = [length for rs in runs.values() for length in rs]
    if lengths:
        print(
            f"sequential runs: {len(lengths)} runs, mean length "
            f"{sum(lengths) / len(lengths):.1f}, max {max(lengths)}"
        )
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .traces import record_run

    config = ExperimentConfig(
        pattern=args.pattern,
        sync_style=args.sync,
        compute_mean=args.compute,
        seed=args.seed,
        prefetch=not args.no_prefetch,
        n_nodes=args.nodes,
        n_disks=args.disks,
        file_blocks=args.file_blocks,
        total_reads=args.reads,
        faults=_load_faults(args),
    )
    result, trace = record_run(config)
    trace.save(args.output)
    print(
        f"recorded {len(trace)} reads from [{config.label}] "
        f"(total time {result.total_time:.1f} ms) -> {args.output}"
    )
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .traces import ReplayTrace, replay_config, replay_pair
    from .traces import replay_twice_and_diff

    trace = ReplayTrace.load(args.trace)
    faults = _load_faults(args)
    base = ExperimentConfig(
        policy=args.policy,
        lead=args.lead,
        n_disks=args.disks if args.disks is not None else trace.meta.n_nodes,
        faults=faults,
    )
    config = replay_config(trace, base)
    if args.audit:
        ok = True
        for cell in (config, config.paired_baseline()):
            report = replay_twice_and_diff(trace, cell)
            print(report.summary())
            ok = ok and report.identical
        print("replay determinism audit:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    pf, baseline = replay_pair(trace, config)
    fault_tag = (
        f", faults {faults.digest}" if faults is not None else ""
    )
    print(
        render_table(
            ["measure", "no-prefetch", "prefetch"],
            paired_measure_rows(baseline, pf),
            title=f"replay of {args.trace} "
            f"({trace.meta.source} '{trace.meta.workload}', "
            f"{trace.meta.n_nodes} nodes, policy {args.policy}"
            f"{fault_tag})",
        )
    )
    if faults is not None:
        _print_fault_summary(baseline, pf)
    recorded_digest = trace.meta.extra.get("fault_plan_digest")
    if recorded_digest:
        print(
            f"note: trace was recorded under fault plan {recorded_digest}"
        )
    return 0


def _cmd_trace_synth(args: argparse.Namespace) -> int:
    from .traces import make_synthetic_trace

    trace = make_synthetic_trace(
        args.kind,
        n_nodes=args.nodes,
        file_blocks=args.file_blocks,
        reads_per_node=args.reads_per_node,
        seed=args.seed,
        compute_mean=args.compute,
        sync_every=args.sync_every,
        write_fraction=args.write_fraction,
    )
    trace.save(args.output)
    n_writes = sum(1 for r in trace if r.op == "w")
    mix = f" ({n_writes} writes)" if n_writes else ""
    print(
        f"synthesized '{args.kind}' trace: {len(trace)} accesses{mix} on "
        f"{args.nodes} nodes (seed {args.seed}) -> {args.output}"
    )
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    from .traces import import_csv_trace

    trace = import_csv_trace(
        args.csv,
        workload=args.workload,
        file_blocks=args.file_blocks,
    )
    trace.save(args.output)
    extra = trace.meta.extra
    notes = []
    if extra.get("sorted"):
        notes.append("rows re-sorted by timestamp")
    if extra.get("compute_derived"):
        notes.append("compute gaps derived from inter-arrival times")
    if extra.get("portions_derived"):
        notes.append("portions derived by sequential-run detection")
    print(
        f"imported {len(trace)} reads on {trace.meta.n_nodes} nodes "
        f"(file of {trace.meta.file_blocks} blocks) -> {args.output}"
    )
    for note in notes:
        print(f"  note: {note}")
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from .traces import ReplayTrace

    trace = ReplayTrace.load(args.trace)
    meta = trace.meta
    stats = trace.stats()
    print(
        f"{args.trace}: {meta.source} '{meta.workload}' trace, "
        f"{meta.n_nodes} nodes, file of {meta.file_blocks} blocks"
    )
    if meta.seed is not None:
        print(f"  seed {meta.seed}, sync style '{meta.sync_style}'")
    per_node = stats["reads_per_node"]
    print(
        f"  {stats['n_records']} reads of {stats['distinct_blocks']} "
        f"distinct blocks (per node min {min(per_node)}, "
        f"max {max(per_node)})"
    )
    print(
        f"  compute: mean {stats['compute_mean']:.2f} ms, "
        f"total {stats['compute_total']:.1f} ms; "
        f"{stats['sync_joins']} barrier visits"
    )
    print(f"  sequentiality: successor fraction "
          f"{stats['sequentiality']:.2f}")
    hot = ", ".join(
        f"{block} (x{count})" for block, count in stats["hot_blocks"]
    )
    print(f"  hottest blocks: {hot}")
    return 0


def _obs_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment cell an ``obs`` subcommand describes."""
    return ExperimentConfig(
        pattern=args.pattern,
        sync_style=args.sync,
        compute_mean=args.compute,
        seed=args.seed,
        policy=args.policy,
        lead=args.lead,
        prefetch=not getattr(args, "no_prefetch", False),
        n_nodes=args.nodes,
        n_disks=args.disks,
        file_blocks=args.file_blocks,
        total_reads=args.reads,
        faults=_load_faults(args),
    )


def _cmd_obs_export(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        run_with_obs,
        spans_to_csv,
        timelines_to_csv,
        to_perfetto,
        validate_perfetto,
    )

    config = _obs_config(args)
    result, data = run_with_obs(config, sample_interval=args.interval)
    if args.format == "perfetto":
        payload = to_perfetto(data)
        if args.validate:
            errors = validate_perfetto(payload)
            for error in errors:
                print(f"INVALID {error}", file=sys.stderr)
            if errors:
                return 1
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        print(
            f"wrote {args.output}: {len(payload['traceEvents'])} trace "
            f"events ({len(data.spans)} spans on "
            f"{len(data.spans.tracks())} tracks), obs digest {data.digest}"
        )
        print("open it at https://ui.perfetto.dev or chrome://tracing")
    else:
        spans_path = args.output + ".spans.csv"
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(timelines_to_csv(data.timelines))
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(spans_to_csv(data.spans))
        print(
            f"wrote {args.output} (metric timelines) and {spans_path} "
            f"({len(data.spans)} spans), obs digest {data.digest}"
        )
    print(
        f"[{config.label}] total time {result.total_time:.1f} ms, "
        f"{result.n_events} events"
    )
    return 0


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    from .obs import render_ascii, run_with_obs, timelines_to_csv

    config = _obs_config(args)
    _, data = run_with_obs(config, sample_interval=args.interval)
    print(render_ascii(data, width=args.width))
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(timelines_to_csv(data.timelines))
        print(f"wrote metric timelines to {args.csv}")
    return 0


def _cmd_obs_attribute(args: argparse.Namespace) -> int:
    config = _obs_config(args)
    cache = _open_cache(args)
    pf, base = run_pair(config, jobs=args.jobs, cache=cache)
    print(
        f"bottleneck attribution for {config.pattern}/{config.sync_style}/"
        f"{config.intensity} (seed {config.seed}): wall = compute + "
        "demand stall + sync wait + daemon theft, per node"
    )
    _print_attribution(base, pf)
    if cache is not None:
        print(cache.summary())
    return 0


def _parse_fault_spec(kind: str, raw: str) -> FaultSpec:
    """One ``--fail-stop``/``--fail-slow``/``--transient``/``--hot-spot``
    value: colon-separated numbers, disk id first (see ``faults make -h``).
    """
    parts = raw.split(":")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise FaultPlanError(f"--{kind} {raw!r}: expected numbers") from None
    if not numbers or not numbers[0].is_integer():
        raise FaultPlanError(f"--{kind} {raw!r}: first field is the disk id")
    disk = int(numbers[0])
    rest = numbers[1:]

    def window(values: List[float]) -> dict:
        out: dict = {}
        if len(values) >= 1:
            out["start"] = values[0]
        if len(values) >= 2:
            out["end"] = values[1]
        if len(values) > 2:
            raise FaultPlanError(f"--{kind} {raw!r}: too many fields")
        return out

    if kind == "fail-stop":
        if not 1 <= len(rest) <= 2:
            raise FaultPlanError(
                f"--fail-stop {raw!r}: want DISK:AT[:RECOVER]"
            )
        return FailStop(
            disk=disk,
            at=rest[0],
            recover=rest[1] if len(rest) == 2 else None,
        )
    if kind == "fail-slow":
        if not rest:
            raise FaultPlanError(
                f"--fail-slow {raw!r}: want DISK:FACTOR[:START[:END]]"
            )
        return FailSlow(disk=disk, factor=rest[0], **window(rest[1:]))
    if kind == "transient":
        if not rest:
            raise FaultPlanError(
                f"--transient {raw!r}: want DISK:PROB[:START[:END]]"
            )
        return TransientErrors(
            disk=disk, probability=rest[0], **window(rest[1:])
        )
    if kind == "hot-spot":
        if not rest:
            raise FaultPlanError(
                f"--hot-spot {raw!r}: want DISK:ALPHA[:START[:END]]"
            )
        return HotSpot(disk=disk, alpha=rest[0], **window(rest[1:]))
    raise FaultPlanError(f"unknown fault kind {kind!r}")


def _cmd_faults_make(args: argparse.Namespace) -> int:
    try:
        specs: List[FaultSpec] = []
        for kind, values in (
            ("fail-stop", args.fail_stop),
            ("fail-slow", args.fail_slow),
            ("transient", args.transient),
            ("hot-spot", args.hot_spot),
        ):
            for raw in values:
                specs.append(_parse_fault_spec(kind, raw))
        if not specs:
            print("error: no faults given (see --fail-stop etc.)",
                  file=sys.stderr)
            return 2
        plan = FaultPlan(
            faults=tuple(specs),
            resilience=ResiliencePolicy(
                max_retries=args.max_retries,
                timeout=args.timeout,
                backoff_base=args.backoff_base,
                backoff_factor=args.backoff_factor,
                backoff_max=args.backoff_max,
                backoff_jitter=args.backoff_jitter,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown=args.breaker_cooldown,
            ),
            name=args.name,
        )
    except (FaultPlanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan.save(args.output)
    print(f"wrote {args.output} ({len(plan.faults)} faults):")
    for line in plan.describe():
        print(f"  {line}")
    print(f"digest {plan.digest}")
    return 0


def _cmd_faults_show(args: argparse.Namespace) -> int:
    plan = FaultPlan.load(args.plan)
    name = f" '{plan.name}'" if plan.name else ""
    print(f"fault plan{name}: {len(plan.faults)} faults")
    for line in plan.describe():
        print(f"  {line}")
    r = plan.resilience
    print(
        f"resilience: max_retries={r.max_retries}, timeout={r.timeout}, "
        f"backoff {r.backoff_base}x{r.backoff_factor} (max {r.backoff_max}, "
        f"jitter {r.backoff_jitter}), breaker threshold "
        f"{r.breaker_threshold} / cooldown {r.breaker_cooldown}"
    )
    print(f"digest {plan.digest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rapid-transit",
        description="RAPID Transit reproduction (Kotz & Ellis, ICPP 1989)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment cell (paired)")
    p_run.add_argument(
        "--pattern", choices=ALL_PATTERN_NAMES, default="gw",
        help="access pattern: the paper's six read-only names or a "
        "read-write cell (lfp-rw, gw-rw, wstream)",
    )
    p_run.add_argument("--sync", choices=SYNC_STYLES, default="per-proc")
    p_run.add_argument("--compute", type=float, default=30.0,
                       help="mean per-block compute time (ms)")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--policy", default="oracle",
                       choices=list(policy_choices()))
    p_run.add_argument("--lead", type=int, default=0)
    p_run.add_argument(
        "--audit", action="store_true",
        help="run under the determinism auditor: event-trace hashing, "
        "race detection, periodic invariant sweeps",
    )
    p_run.add_argument(
        "--obs", action="store_true",
        help="append the per-node wall-time attribution tables "
        "(compute / demand stall / sync wait / daemon theft)",
    )
    p_run.add_argument("--nodes", type=int, default=20)
    p_run.add_argument("--disks", type=int, default=20)
    p_run.add_argument("--file-blocks", type=int, default=2000)
    p_run.add_argument("--reads", type=int, default=None,
                       help="total reads (default: the paper's 2000)")
    p_run.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="fault plan to inject (see 'faults make')",
    )
    _add_write_flags(p_run)
    _add_scheduler_flags(p_run)
    _add_perf_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_audit = sub.add_parser(
        "audit",
        help="determinism audit: run twice, diff event-trace hashes",
    )
    p_audit.add_argument(
        "--pattern", choices=ALL_PATTERN_NAMES, default="gw"
    )
    p_audit.add_argument("--sync", choices=SYNC_STYLES, default="per-proc")
    p_audit.add_argument("--compute", type=float, default=30.0)
    p_audit.add_argument("--seed", type=int, default=1)
    p_audit.add_argument("--policy", default="oracle",
                         choices=list(policy_choices()))
    p_audit.add_argument("--nodes", type=int, default=4,
                         help="machine size for the audit run")
    p_audit.add_argument("--disks", type=int, default=4)
    p_audit.add_argument("--file-blocks", type=int, default=400)
    p_audit.add_argument("--reads", type=int, default=400)
    p_audit.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="audit determinism of a faulted run",
    )
    _add_write_flags(p_audit)
    p_audit.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="audit the prefetch and baseline cells in parallel "
        "(audits never use the run cache)",
    )
    p_audit.add_argument(
        "--obs", action="store_true",
        help="attach the observability recorder to every audited run; "
        "an identical verdict then also proves span tracing and "
        "timeline sampling are schedule-neutral",
    )
    _add_scheduler_flags(p_audit)
    p_audit.add_argument(
        "--compare-schedulers", action="store_true",
        help="additionally run the cell under every event-queue backend "
        "and require identical event-trace digests",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_tour = sub.add_parser(
        "tournament",
        help="race prefetch policies across the pattern/sync matrix "
        "and print the league table",
    )
    p_tour.add_argument(
        "--patterns", nargs="+", choices=ALL_PATTERN_NAMES,
        default=list(PATTERN_NAMES), metavar="PATTERN",
        help=f"patterns to race over (default: all of {PATTERN_NAMES}; "
        "read-write cells lfp-rw/gw-rw/wstream race with the writeback "
        "subsystem armed)",
    )
    p_tour.add_argument(
        "--sync", nargs="+", choices=SYNC_STYLES, default=["none"],
        metavar="STYLE",
        help="sync styles to race over (default: none); lw x portion "
        "cells are skipped",
    )
    p_tour.add_argument(
        "--policies", nargs="+", default=["none", "oracle", "adaptive"],
        metavar="POLICY",
        help="entrants: 'none' (no prefetching) or any registered "
        "policy (default: none oracle adaptive)",
    )
    p_tour.add_argument("--compute", type=float, default=30.0,
                        help="mean per-block compute time (ms)")
    p_tour.add_argument("--seed", type=int, default=1)
    p_tour.add_argument("--nodes", type=int, default=20)
    p_tour.add_argument("--disks", type=int, default=20)
    p_tour.add_argument("--file-blocks", type=int, default=2000)
    p_tour.add_argument("--reads", type=int, default=None,
                        help="total reads (default: the paper's 2000)")
    p_tour.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="race every entrant under this fault plan",
    )
    p_tour.add_argument(
        "--fault-plans", nargs="+", default=None, metavar="PLAN",
        help="third matrix axis: each entry is 'none' (healthy) or a "
        "fault-plan JSON path; every (pattern, sync) cell is raced once "
        "per plan and faulted cells report degraded-mode measures plus "
        "a resilience score against their healthy counterpart "
        "(supersedes --faults)",
    )
    p_tour.add_argument("--csv", default=None, metavar="FILE",
                        help="also write the league table as CSV")
    p_tour.add_argument(
        "--digest-out", default=None, metavar="FILE",
        help="write the tournament digest (for a later --check-digest)",
    )
    p_tour.add_argument(
        "--check-digest", default=None, metavar="FILE",
        help="compare against a saved digest; exit 1 on mismatch",
    )
    _add_perf_flags(p_tour)
    p_tour.set_defaults(func=_cmd_tournament)

    p_soak = sub.add_parser(
        "soak",
        help="seeded chaos soak: generate blessed fault plans and assert "
        "run-level invariants (no hang, no lost request, breaker "
        "recovery, bit-identical reruns) on every cell",
    )
    p_soak.add_argument(
        "--plans", type=int, default=5, metavar="N",
        help="fault plans to generate from the seed (default 5); each "
        "plan overlaps 2-3 faults of at least two distinct kinds",
    )
    p_soak.add_argument("--seed", type=int, default=1)
    p_soak.add_argument(
        "--pattern", choices=PATTERN_NAMES, default="lw",
        help="access pattern of every soak cell (default lw)",
    )
    p_soak.add_argument(
        "--sync", choices=SYNC_STYLES, default="none",
        help="sync style of every soak cell (default none)",
    )
    p_soak.add_argument(
        "--policy", default="adaptive",
        help="entrant to soak: 'none' (no prefetching) or any "
        "registered policy (default adaptive)",
    )
    p_soak.add_argument("--compute", type=float, default=30.0,
                        help="mean per-block compute time (ms)")
    p_soak.add_argument("--nodes", type=int, default=8)
    p_soak.add_argument("--disks", type=int, default=8)
    p_soak.add_argument("--file-blocks", type=int, default=640)
    p_soak.add_argument("--reads", type=int, default=640)
    p_soak.add_argument(
        "--save-plans", default=None, metavar="DIR",
        help="also write every generated plan as JSON into DIR",
    )
    p_soak.add_argument("--csv", default=None, metavar="FILE",
                        help="also write the soak table as CSV")
    p_soak.add_argument(
        "--digest-out", default=None, metavar="FILE",
        help="write the soak digest (for a later --check-digest)",
    )
    p_soak.add_argument(
        "--check-digest", default=None, metavar="FILE",
        help="compare against a saved digest; exit 1 on mismatch",
    )
    p_soak.set_defaults(func=_cmd_soak)

    p_suite = sub.add_parser("suite", help="run the full paper mix")
    p_suite.add_argument("--seed", type=int, default=1)
    p_suite.add_argument("--verbose", action="store_true")
    _add_perf_flags(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("id", choices=FIGURE_IDS)
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument(
        "--scatter", action="store_true",
        help="also render the y=x ASCII scatter (paired figures)",
    )
    _add_perf_flags(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the simulator and perf layer "
        "(writes BENCH_<label>.json)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="small 3-cell suite (the CI smoke sizing) instead of the "
        "full 46-cell mix",
    )
    p_bench.add_argument(
        "--label", default=None,
        help="report label (default: 'quick' or 'full')",
    )
    p_bench.add_argument("--jobs", type=int, default=4, metavar="N",
                         help="worker fan-out for the parallel phase")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument(
        "-o", "--output-dir", default="benchmarks",
        help="directory for BENCH_<label>.json",
    )
    p_bench.add_argument(
        "--baseline", default=None, metavar="BENCH.json",
        help="compare events/sec against this committed report",
    )
    p_bench.add_argument(
        "--max-regress", type=float, default=0.20,
        help="maximum tolerated events/sec regression vs the baseline "
        "(default 0.20 = 20%%)",
    )
    p_bench.add_argument(
        "--profile", action="store_true",
        help="run the kernel phase under cProfile and write "
        "BENCH_<label>_profile.txt (sorted by cumulative time)",
    )
    p_bench.add_argument(
        "--schedulers", action="store_true",
        help="benchmark the event-queue backends instead: kernel "
        "matrix (backend x timeout batching), queue-op micro, "
        "digest-equivalence proof, and 100->1000-node scale sweeps",
    )
    p_bench.add_argument(
        "--scales", type=int, nargs="+", default=None, metavar="N",
        help="node counts for the --schedulers scale sweep "
        "(default: 100 250 500 1000)",
    )
    p_bench.add_argument(
        "--reads-per-node", type=int, default=20, metavar="N",
        help="workload sizing per node for the --schedulers sweep",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one ExperimentConfig parameter (paired runs)"
    )
    p_sweep.add_argument("param", help="field to sweep, e.g. lead")
    p_sweep.add_argument("values", nargs="+", help="values to try")
    p_sweep.add_argument("--pattern", choices=PATTERN_NAMES, default="gw")
    p_sweep.add_argument("--sync", choices=SYNC_STYLES, default="per-proc")
    p_sweep.add_argument("--compute", type=float, default=30.0)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser(
        "report", help="regenerate every figure into a markdown report"
    )
    p_rep.add_argument("-o", "--output", default="REPORT.md")
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.set_defaults(func=_cmd_report)

    p_an = sub.add_parser("analyze", help="offline trace analysis")
    p_an.add_argument("trace", help="trace file (JSON lines)")
    p_an.add_argument(
        "--cache-sizes", type=int, nargs="+", default=[20, 80, 200]
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_trace = sub.add_parser(
        "trace",
        help="record, synthesize, import, replay, and inspect "
        "replay traces",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_rec = trace_sub.add_parser(
        "record", help="run an experiment and record a replayable trace"
    )
    p_rec.add_argument("-o", "--output", required=True,
                       help="trace file to write (JSON lines)")
    p_rec.add_argument("--pattern", choices=PATTERN_NAMES, default="gw")
    p_rec.add_argument("--sync", choices=SYNC_STYLES, default="none")
    p_rec.add_argument("--compute", type=float, default=30.0)
    p_rec.add_argument("--seed", type=int, default=1)
    p_rec.add_argument(
        "--no-prefetch", action="store_true",
        help="record from the no-prefetch baseline (the usual choice: "
        "the workload timeline is then policy-independent)",
    )
    p_rec.add_argument("--nodes", type=int, default=20)
    p_rec.add_argument("--disks", type=int, default=20)
    p_rec.add_argument("--file-blocks", type=int, default=2000)
    p_rec.add_argument("--reads", type=int, default=None,
                       help="total reads (default: the paper's 2000)")
    p_rec.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="record under a fault plan (digest lands in the trace "
        "header as provenance)",
    )
    p_rec.set_defaults(func=_cmd_trace_record)

    p_repl = trace_sub.add_parser(
        "replay",
        help="replay a trace through the full simulator "
        "(paired prefetch on/off comparison)",
    )
    p_repl.add_argument("trace", help="replay trace file")
    p_repl.add_argument("--policy", default="oracle",
                        choices=list(policy_choices()))
    p_repl.add_argument("--lead", type=int, default=0)
    p_repl.add_argument(
        "--disks", type=int, default=None,
        help="disk count for the replay machine "
        "(default: one per traced node)",
    )
    p_repl.add_argument(
        "--audit", action="store_true",
        help="replay twice under the determinism auditor and diff "
        "event-trace hashes (exit 1 on divergence)",
    )
    p_repl.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="replay under a fault plan (degraded-mode what-if)",
    )
    p_repl.set_defaults(func=_cmd_trace_replay)

    p_synth = trace_sub.add_parser(
        "synth", help="generate a synthetic workload trace"
    )
    p_synth.add_argument(
        "kind", choices=["bursty", "phased", "skewed", "mixed"]
    )
    p_synth.add_argument("-o", "--output", required=True)
    p_synth.add_argument("--nodes", type=int, default=20)
    p_synth.add_argument("--file-blocks", type=int, default=2000)
    p_synth.add_argument("--reads-per-node", type=int, default=100)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--compute", type=float, default=30.0)
    p_synth.add_argument(
        "--write-fraction", type=float, default=0.0, metavar="F",
        help="convert this fraction of each node's accesses into "
        "whole-block writes (0 = read-only, the default)",
    )
    p_synth.add_argument(
        "--sync-every", type=int, default=0,
        help="barrier visit after every N reads per node (0 = none)",
    )
    p_synth.set_defaults(func=_cmd_trace_synth)

    p_imp = trace_sub.add_parser(
        "import", help="import an external block-trace CSV"
    )
    p_imp.add_argument("csv", help="CSV with columns time,node,block"
                       "[,compute][,portion]")
    p_imp.add_argument("-o", "--output", required=True)
    p_imp.add_argument("--workload", default="imported",
                       help="workload name stored in the trace header")
    p_imp.add_argument(
        "--file-blocks", type=int, default=None,
        help="file size in blocks (default: max block + 1)",
    )
    p_imp.set_defaults(func=_cmd_trace_import)

    p_stats = trace_sub.add_parser(
        "stats", help="summarize a replay trace"
    )
    p_stats.add_argument("trace", help="replay trace file")
    p_stats.set_defaults(func=_cmd_trace_stats)

    def add_obs_cell_flags(p: argparse.ArgumentParser) -> None:
        """The experiment-cell flags every ``obs`` verb shares.

        Defaults are the audit sizing (small machine, short run): obs
        verbs are exploratory tools, and a 4x4 cell already exhibits
        every span kind.
        """
        p.add_argument("--pattern", choices=ALL_PATTERN_NAMES, default="gw")
        p.add_argument("--sync", choices=SYNC_STYLES, default="per-proc")
        p.add_argument("--compute", type=float, default=30.0)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--policy", default="oracle",
                       choices=list(policy_choices()))
        p.add_argument("--lead", type=int, default=0)
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--disks", type=int, default=4)
        p.add_argument("--file-blocks", type=int, default=400)
        p.add_argument("--reads", type=int, default=400)
        p.add_argument(
            "--faults", default=None, metavar="PLAN.json",
            help="observe a faulted run",
        )
        p.add_argument(
            "--interval", type=float, default=50.0, metavar="MS",
            help="metric-timeline sampling interval in simulated ms "
            "(default 50)",
        )

    p_obs = sub.add_parser(
        "obs",
        help="span tracing, metric timelines, Perfetto export, and "
        "bottleneck attribution",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_oexp = obs_sub.add_parser(
        "export",
        help="run one cell under the span tracer and export the trace",
    )
    p_oexp.add_argument("-o", "--output", required=True,
                        help="output file (trace JSON or timelines CSV)")
    p_oexp.add_argument(
        "--format", choices=["perfetto", "csv"], default="perfetto",
        help="perfetto: Chrome trace-event JSON (default); csv: metric "
        "timelines to OUTPUT plus spans to OUTPUT.spans.csv",
    )
    p_oexp.add_argument(
        "--validate", action="store_true",
        help="schema-check the Perfetto payload before writing "
        "(exit 1 and write nothing on violations)",
    )
    p_oexp.add_argument(
        "--no-prefetch", action="store_true",
        help="observe the no-prefetch baseline instead",
    )
    add_obs_cell_flags(p_oexp)
    p_oexp.set_defaults(func=_cmd_obs_export)

    p_otl = obs_sub.add_parser(
        "timeline", help="render the span timeline as ASCII lanes"
    )
    p_otl.add_argument("--width", type=int, default=64,
                       help="timeline width in characters")
    p_otl.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write the metric timelines as CSV",
    )
    p_otl.add_argument(
        "--no-prefetch", action="store_true",
        help="observe the no-prefetch baseline instead",
    )
    add_obs_cell_flags(p_otl)
    p_otl.set_defaults(func=_cmd_obs_timeline)

    p_oattr = obs_sub.add_parser(
        "attribute",
        help="decompose wall time into compute / demand stall / "
        "sync wait / daemon theft, paired prefetch on/off",
    )
    add_obs_cell_flags(p_oattr)
    _add_perf_flags(p_oattr)
    p_oattr.set_defaults(func=_cmd_obs_attribute)

    p_faults = sub.add_parser(
        "faults", help="compose and inspect fault-injection plans"
    )
    faults_sub = p_faults.add_subparsers(
        dest="faults_command", required=True
    )

    p_fmake = faults_sub.add_parser(
        "make", help="compose a fault plan and write it as JSON"
    )
    p_fmake.add_argument("-o", "--output", required=True,
                         help="plan file to write (JSON)")
    p_fmake.add_argument("--name", default="", help="plan name")
    p_fmake.add_argument(
        "--fail-stop", action="append", default=[], metavar="D:AT[:REC]",
        help="disk D dies at time AT ms (recovering at REC)",
    )
    p_fmake.add_argument(
        "--fail-slow", action="append", default=[],
        metavar="D:FACTOR[:START[:END]]",
        help="disk D serves FACTOR x slower over the window",
    )
    p_fmake.add_argument(
        "--transient", action="append", default=[],
        metavar="D:PROB[:START[:END]]",
        help="disk D's transfers complete with an error with "
        "probability PROB over the window",
    )
    p_fmake.add_argument(
        "--hot-spot", action="append", default=[],
        metavar="D:ALPHA[:START[:END]]",
        help="disk D slows by (1 + ALPHA x queue depth) over the window",
    )
    p_fmake.add_argument("--max-retries", type=int, default=4)
    p_fmake.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-request timeout ms (0 disables; required to survive "
        "an unrecovered fail-stop)",
    )
    p_fmake.add_argument("--backoff-base", type=float, default=5.0)
    p_fmake.add_argument("--backoff-factor", type=float, default=2.0)
    p_fmake.add_argument("--backoff-max", type=float, default=200.0)
    p_fmake.add_argument("--backoff-jitter", type=float, default=0.25)
    p_fmake.add_argument("--breaker-threshold", type=int, default=3)
    p_fmake.add_argument("--breaker-cooldown", type=float, default=500.0)
    p_fmake.set_defaults(func=_cmd_faults_make)

    p_fshow = faults_sub.add_parser(
        "show", help="pretty-print a saved fault plan and its digest"
    )
    p_fshow.add_argument("plan", help="plan file (JSON)")
    p_fshow.set_defaults(func=_cmd_faults_show)

    p_lint = sub.add_parser(
        "lint",
        help="simlint v2: determinism rules + whole-program flow "
        "analysis (see docs/analysis.md)",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=lint_cli)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
