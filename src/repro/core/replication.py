"""Multi-seed replication: how seed-sensitive are the results?

The synthetic kernels draw their random address streams from per-warp
seeded generators, so any single number carries sampling noise.  This
module repeats a measurement across seeds and reports mean, standard
deviation and the coefficient of variation — the evidence that the
characterization's conclusions do not hinge on one lucky seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.core.metrics import RunMetrics, run_kernel
from repro.runner import BatchRunner, Job
from repro.sim.config import GPUConfig
from repro.utils.tables import render_table
from repro.workloads.program import KernelProgram


@dataclass(frozen=True)
class Replication:
    """Mean/std of one scalar metric across seeds."""

    metric: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / |mean|); 0 for a zero mean.

        The magnitude of the mean is the correct normalizer: dividing by
        a signed mean would make the CV of a negative-mean metric
        negative, which then hides it from ``max()``-style aggregation
        (a large relative spread would rank *below* a perfectly stable
        metric).
        """
        mu = abs(self.mean)
        return self.std / mu if mu else 0.0

    @property
    def spread(self) -> float:
        """max - min of the observations."""
        return max(self.values) - min(self.values)


#: Default metrics replicated (name -> extractor).
DEFAULT_METRICS: dict[str, Callable[[RunMetrics], float]] = {
    "ipc": lambda m: m.ipc,
    "l1_avg_miss_latency": lambda m: m.l1_avg_miss_latency,
    "l2_hit_rate": lambda m: m.l2_hit_rate,
    "l2_accessq_full": lambda m: m.l2_accessq.full_fraction,
    "dram_schedq_full": lambda m: m.dram_schedq.full_fraction,
}


@dataclass(frozen=True)
class ReplicationReport:
    """All replicated metrics for one benchmark/config pair."""

    benchmark: str
    seeds: tuple[int, ...]
    replications: dict[str, Replication]
    #: Seeds whose run hit the cycle limit; their metrics are lower bounds.
    truncated_seeds: tuple[int, ...] = ()

    def worst_cv(self) -> float:
        """Largest CV over the replicated metrics; 0.0 when empty."""
        return max((r.cv for r in self.replications.values()), default=0.0)

    def to_table(self) -> str:
        rows = [
            [name, f"{r.mean:.3f}", f"{r.std:.3f}", f"{r.cv:.1%}"]
            for name, r in self.replications.items()
        ]
        table = render_table(
            ["metric", "mean", "std", "CV"],
            rows,
            title=(
                f"Replication of {self.benchmark} across seeds "
                f"{list(self.seeds)}"
            ),
        )
        if self.truncated_seeds:
            table += (
                f"\nwarning: seeds {list(self.truncated_seeds)} hit the "
                "cycle limit; their metrics are truncated lower bounds"
            )
        return table


def replicate(
    config: GPUConfig,
    benchmark: str | KernelProgram,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    iteration_scale: float = 1.0,
    metrics: dict[str, Callable[[RunMetrics], float]] | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    runner: BatchRunner | None = None,
) -> ReplicationReport:
    """Run a benchmark once per seed and aggregate the chosen metrics.

    A suite benchmark *name* runs the per-seed runs as one batch on
    ``runner`` (default: :meth:`BatchRunner.serial`).  An ad-hoc
    :class:`KernelProgram` runs in-process: its closures cannot cross
    process boundaries and it has no :class:`Job` key.
    """
    # Defensive copy: DEFAULT_METRICS is module-level shared state; an
    # aliasing caller mutating it mid-batch must not change this report.
    metrics = dict(DEFAULT_METRICS if metrics is None else metrics)
    seeds = tuple(seeds)
    if isinstance(benchmark, str):
        name = benchmark
        runs = (runner or BatchRunner.serial()).run(
            [
                Job(config, benchmark, seed=seed,
                    iteration_scale=iteration_scale, max_cycles=max_cycles)
                for seed in seeds
            ]
        )
    else:
        name = benchmark.name
        runs = [
            run_kernel(config, benchmark, seed=seed, max_cycles=max_cycles)
            for seed in seeds
        ]
    replications = {
        metric_name: Replication(
            metric=metric_name, values=tuple(extract(m) for m in runs)
        )
        for metric_name, extract in metrics.items()
    }
    return ReplicationReport(
        benchmark=name,
        seeds=seeds,
        replications=replications,
        truncated_seeds=tuple(
            seed for seed, m in zip(seeds, runs) if m.truncated
        ),
    )
