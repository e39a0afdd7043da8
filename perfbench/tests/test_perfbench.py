"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import math

import pytest

import digests
import hostspeed
import layertrace
import run
import workloads
import worker
from layertrace import LayerTracer

from repro.experiments.config import ExperimentConfig
from repro.perf.serialize import result_to_dict

SMALL = dict(n_nodes=4, n_disks=4, file_blocks=120, total_reads=120)


def _run(config):
    import repro.experiments.runner as runner

    return runner.run_experiment(config)


def _run_obs(config):
    import repro.obs.recorder as recorder

    return recorder.run_with_obs(config)[0]


def _small_configs():
    return [
        ExperimentConfig(pattern="grp", sync_style="per-proc", **SMALL),
        ExperimentConfig(pattern="lfp-rw", policy="adaptive", **SMALL),
    ]


def _snapshot():
    """Every attribute the tracer may patch, by identity."""
    snap = {}
    for targets in layertrace._CLASS_TARGETS.values():
        for module_name, class_name, _ in targets:
            cls = getattr(importlib.import_module(module_name), class_name)
            snap[cls] = dict(vars(cls))
    for targets in layertrace._FUNCTION_TARGETS.values():
        for module_name, name in targets:
            func = getattr(importlib.import_module(module_name), name)
            for module in layertrace._modules_holding(func, name):
                snap[module] = dict(vars(module))
    return snap


def test_self_times_add_up_to_traced_wall_time():
    tracer = LayerTracer()
    with tracer:
        _run(_small_configs()[0])
        _run_obs(_small_configs()[1])
    assert tracer.wall_s > 0
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.wall_s, rel=1e-9, abs=1e-9
    )
    for layer in ("sim", "workload", "prefetch", "fs", "machine", "metrics"):
        assert tracer.self_s.get(layer, 0.0) > 0.0, layer
    assert tracer.self_s["obs"] > 0.0
    assert 0.0 < tracer.wiring_s < tracer.wall_s
    assert 0.0 < tracer.summary_s < tracer.wall_s
    assert tracer.missing == []


def test_install_and_remove_restore_patched_classes_exactly():
    importlib.import_module("repro.experiments")
    importlib.import_module("repro.perf.executor")
    importlib.import_module("repro.obs")
    before = _snapshot()
    tracer = LayerTracer()
    tracer.install()
    from repro.prefetch.oracle import OraclePolicy
    from repro.prefetch.adaptive.policy import AdaptivePolicy

    assert OraclePolicy.peek is not before[OraclePolicy]["peek"]
    # Inherited methods are shadowed on the concrete class while installed.
    assert "exhausted" in vars(AdaptivePolicy)
    tracer.remove()
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        now = after[owner]
        assert now.keys() == attrs.keys(), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)


def test_traced_runs_reproduce_untraced_digests():
    configs = _small_configs()
    plain = [
        digests.digest_of(result_to_dict(_run(configs[0]))),
        digests.digest_of(result_to_dict(_run_obs(configs[1]))),
    ]
    with LayerTracer(record_if=lambda c: c.pattern == "grp"):
        traced = [
            digests.digest_of(result_to_dict(_run(configs[0]))),
            digests.digest_of(result_to_dict(_run_obs(configs[1]))),
        ]
    assert traced == plain


def test_named_simulation_spans_nest():
    tracer = LayerTracer(record_if=lambda c: c.pattern == "grp")
    with tracer:
        _run(_small_configs()[0])
    spans = tracer.spans
    assert spans is not None and len(spans) > 100
    roots = [i for i in range(len(spans)) if spans.parent[i] < 0]
    assert len(roots) == 1
    assert spans.names[spans.name[roots[0]]] == "experiments.run_experiment"
    for i in range(len(spans)):
        parent = spans.parent[i]
        if parent >= 0:
            assert spans.start[parent] <= spans.start[i]
            assert spans.end[i] <= spans.end[parent]
    process_roots = {spans.names[r] for r in spans.root if r >= 0}
    assert any(name.startswith("app-") for name in process_roots)
    shares = spans.self_by_layer()
    assert sum(shares.values()) == pytest.approx(
        spans.end[roots[0]] - spans.start[roots[0]], rel=1e-9
    )


def test_timed_generator_passes_values_and_exceptions_through():
    tracer = LayerTracer()

    def inner():
        got = yield 1
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    def outer(gen):
        result = yield from gen
        yield result

    proxy = tracer.timed_generator(inner(), "fs", "fs.inner")
    gen = outer(proxy)
    assert next(gen) == 1
    assert gen.send(5) == 10
    assert gen.throw(KeyError("x")) == "caught"
    assert next(gen) == "done"
    assert tracer.incl_s["fs.inner"] > 0
    assert tracer._stack == []


def _measures():
    return result_to_dict(_run(_small_configs()[0]))


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value + [0]
    if isinstance(value, dict):
        return {**value, "perturbed": 1}
    raise AssertionError(f"unexpected measure type {type(value)}")


def test_digest_excludes_n_events_and_nothing_else():
    measures = _measures()
    base = digests.digest_of(measures)
    assert set(measures) - digests.EXCLUDED  # something is covered
    for name, value in measures.items():
        changed = dict(measures, **{name: _perturb(value)})
        if name == "n_events":
            assert digests.digest_of(changed) == base
        else:
            assert digests.digest_of(changed) != base, name


@pytest.fixture(scope="module")
def real_result():
    return _run(_small_configs()[0])


def _unit(result):
    return workloads.Unit(
        "u", ("sim",), (result.config.effective_total_reads,), lambda: []
    )


def _checks_for(result, expected=None, **changes):
    import dataclasses

    changed = dataclasses.replace(result, **changes)
    checks = worker.Checks({"sim": expected} if expected else None)
    checks.record(_unit(result), [("sim", changed)], None)
    return checks


def test_clean_run_passes(real_result):
    digest = digests.digest_of(result_to_dict(real_result))
    checks = _checks_for(real_result, expected=digest)
    assert (checks.attempted, checks.failed) == (1, 0)
    assert run._share(checks.failed, checks.attempted) == 0.0


@pytest.mark.parametrize(
    "changes, expected, reason",
    [
        ({"total_time": math.inf}, None, "non-finite"),
        ({"total_time": math.nan}, None, "non-finite"),
        ({"total_accesses": 119}, None, "consumed"),
        ({}, "0" * 32, "digest"),
    ],
)
def test_bad_runs_count_as_failed(real_result, changes, expected, reason):
    checks = _checks_for(real_result, expected=expected, **changes)
    assert (checks.attempted, checks.failed) == (1, 1)
    assert run._share(checks.failed, checks.attempted) == 1.0
    assert reason in " ".join(checks.problems["sim"])


def test_raising_unit_fails_each_of_its_simulations(real_result):
    checks = worker.Checks(None)
    unit = workloads.Unit("u", ("a", "b"), (120, 120), lambda: [])
    checks.record(unit, None, "RuntimeError('boom')")
    assert (checks.attempted, checks.failed) == (2, 2)


def test_committed_digests_cover_every_simulation():
    table = digests.load_expected()
    for workload in workloads.WORKLOADS:
        for seed in run.DIGEST_SEEDS:
            labels = [
                label
                for unit in workloads.build(workload, seed)
                for label in unit.labels
            ]
            assert len(set(labels)) == len(labels)
            assert sorted(table[workload][str(seed)]) == sorted(labels)
        assert workloads.NAMED_SIMULATION[workload] in labels


def test_reported_metrics_match_benchmark_json():
    import json

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    counts = {
        key: 10
        for key in (
            "refs simulations events reads writes prefetch_actions "
            "no_candidate blocks_prefetched prefetched_unused "
            "demand_fetches flushes flush_actions disk_retries"
        ).split()
    }
    times = {"u": {"raw_s": [1.0], "scaled_s": [1.0], "slowdown": [1.0]}}
    measured = {"times": times, "counts": counts, "peak_rss_mb": 50.0}
    traced = dict(
        measured,
        self_s={"sim": 1.0},
        calls={},
        incl_s={},
        wall_s=1.0,
        wiring_s=0.1,
        summary_s=0.1,
    )
    e2e = run.end_to_end(measured, [(0.3, 0.4)])
    layers = run.per_layer(measured, traced)
    for declared, got in (
        (spec["end_to_end"], e2e),
        (spec["per_layer"], layers),
    ):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: unit for name, (_, unit) in got.items()
        }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_sampler_scales_work_inside_an_interval():
    import time

    with hostspeed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    kinds = {kind for _, _, kind in sampler.samples}
    assert kinds == set(hostspeed.REFERENCE_S)
    busy = sampler.busy(start, end)
    assert 0.0 < busy < 0.5 * (end - start)
    slowdown = sampler.slowdown(start, end)
    assert 0.1 < slowdown < 10.0
    assert hostspeed.scale(end - start, slowdown) == (end - start) / slowdown
