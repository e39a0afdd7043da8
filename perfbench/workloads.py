"""The benchmark's workloads, each a list of timed units.

A unit is one call into a public entry point of ``repro`` — the same ones
the CLI uses — and returns the :class:`~repro.experiments.runner.RunResult`
of each simulation it ran, under a label naming that simulation.  Units
look the entry point up on its module at call time, so the layer tracer's
wrappers (installed after the units are built) take effect.

Why these three workloads is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

__all__ = ["NAMED_SIMULATION", "WORKLOADS", "Unit", "build"]

WORKLOADS = ("paper-suite", "scale-1000", "rw-adaptive")

#: Per workload, the simulation whose full spans a traced run keeps
#: (a ``config.label`` with the seed suffix dropped).  ``gw``/per-proc
#: oracle is the cell ROADMAP's cProfile split was measured on.
NAMED_SIMULATION = {
    "paper-suite": "gw/per-proc/balanced/prefetch(oracle)",
    "scale-1000": "gw/none/balanced/no-prefetch@1000",
    "rw-adaptive": "lfp-rw/none/balanced/prefetch(adaptive)",
}


@dataclass(frozen=True)
class Unit:
    """One timed call: ``run()`` returns ``[(label, RunResult), ...]``
    in the order of ``labels``; ``refs`` maps each label to the number
    of references (reads + writes) its configuration asks for."""

    name: str
    labels: Tuple[str, ...]
    refs: Tuple[int, ...]
    run: Callable[[], List[Tuple[str, object]]]


def sim_label(config) -> str:
    """A simulation's name within its workload: its config label
    without the ``/seed<n>`` suffix, plus the machine size off the
    paper's 20 nodes."""
    label = config.label.rsplit("/seed", 1)[0]
    if config.n_nodes != 20:
        label += f"@{config.n_nodes}"
    return label


def _paper_suite(seed: int) -> List[Unit]:
    """``run_suite`` over the six paper patterns, per-proc sync, both
    intensities, oracle policy, each cell paired with its baseline."""
    import repro.experiments.suite as suite
    from repro.workload.patterns import PATTERN_NAMES
    from repro.workload.suite import WorkloadSpec, balanced_compute_mean

    units = []
    for pattern in PATTERN_NAMES:
        for compute in (balanced_compute_mean(pattern), 0.0):
            spec = WorkloadSpec(pattern, "per-proc", compute)
            config = suite.config_for_spec(spec, seed=seed)
            configs = (config, config.paired_baseline())

            def run(spec=spec, configs=configs):
                pair = suite.run_suite(seed=seed, specs=[spec]).pairs[0]
                return [
                    (sim_label(configs[0]), pair.prefetch),
                    (sim_label(configs[1]), pair.baseline),
                ]

            units.append(
                Unit(
                    spec.label,
                    tuple(sim_label(c) for c in configs),
                    tuple(c.effective_total_reads for c in configs),
                    run,
                )
            )
    return units


def _scale_1000(seed: int) -> List[Unit]:
    """``gw``, no sync, 1000 nodes and disks, 20 reads per node, oracle
    plus its baseline, ``record_trace=False`` as in ``perf/scale.py``."""
    import repro.experiments.runner as runner
    from repro.experiments.config import ExperimentConfig

    n, reads_per_node = 1000, 20
    oracle = ExperimentConfig(
        pattern="gw",
        sync_style="none",
        n_nodes=n,
        n_disks=n,
        file_blocks=n * reads_per_node,
        total_reads=n * reads_per_node,
        seed=seed,
        record_trace=False,
    )
    units = []
    for config in (oracle, oracle.paired_baseline()):
        label = sim_label(config)

        def run(config=config, label=label):
            return [(label, runner.run_experiment(config))]

        units.append(
            Unit(label, (label,), (config.effective_total_reads,), run)
        )
    return units


def _rw_adaptive(seed: int) -> List[Unit]:
    """The three read-write patterns under the adaptive policy with the
    write-back defaults, each paired with its baseline, every run through
    ``run_with_obs`` as ``obs export`` does."""
    import repro.obs.recorder as recorder
    from repro.experiments.config import ExperimentConfig
    from repro.workload.patterns import RW_PATTERN_NAMES

    units = []
    for pattern in RW_PATTERN_NAMES:
        adaptive = ExperimentConfig(
            pattern=pattern, policy="adaptive", seed=seed
        )
        for config in (adaptive, adaptive.paired_baseline()):
            label = sim_label(config)

            def run(config=config, label=label):
                result, _obs = recorder.run_with_obs(config)
                return [(label, result)]

            units.append(
                Unit(label, (label,), (config.effective_total_reads,), run)
            )
    return units


_BUILDERS = {
    "paper-suite": _paper_suite,
    "scale-1000": _scale_1000,
    "rw-adaptive": _rw_adaptive,
}


def build(workload: str, seed: int) -> List[Unit]:
    """The units of ``workload`` with every simulation seeded ``seed``."""
    return _BUILDERS[workload](seed)
