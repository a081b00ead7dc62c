"""Section IV: design-space exploration.

Runs every benchmark on the baseline and on scaled configurations —
each Table I level alone (L1, L2, DRAM) and the paper's two adjacent
combinations (L1+L2, L2+DRAM) — and aggregates speedups.

Paper results this reproduces (average speedup over the suite):

===========  =======
scaled       speedup
===========  =======
L1 alone       +4%
L2 alone      +59%
DRAM alone    +11%
L1+L2         +69%
L2+DRAM       +76%
===========  =======

with the combinations exceeding the sums of their parts (synergy), and
isolated L1 scaling *hurting* some benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.core.design_space import scale_levels, scaled_config
from repro.core.metrics import RunMetrics, run_kernel
from repro.sim.config import GPUConfig
from repro.utils.means import arithmetic_mean, geometric_mean
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE, get_benchmark
from repro.runner import BatchRunner, Job

#: The experiment matrix of Section IV: label -> levels scaled together.
SECTION_IV_CONFIGS: dict[str, tuple[str, ...]] = {
    "baseline": (),
    "l1": ("l1",),
    "l2": ("l2",),
    "dram": ("dram",),
    "l1+l2": ("l1", "l2"),
    "l2+dram": ("l2", "dram"),
}


@dataclass(frozen=True)
class ExplorationResult:
    """All runs of a design-space exploration."""

    #: config label -> benchmark -> metrics.
    runs: Mapping[str, Mapping[str, RunMetrics]]
    config_labels: tuple[str, ...]
    benchmarks: tuple[str, ...]

    # ------------------------------------------------------------------
    def speedup(self, label: str, benchmark: str) -> float:
        """IPC of ``label`` over the baseline for one benchmark."""
        base = self.runs["baseline"][benchmark]
        return self.runs[label][benchmark].speedup_over(base)

    def speedups(self, label: str) -> dict[str, float]:
        return {b: self.speedup(label, b) for b in self.benchmarks}

    def average_speedup(self, label: str, mean: str = "arithmetic") -> float:
        """Suite-average speedup of a configuration over baseline."""
        values = list(self.speedups(label).values())
        if mean == "geometric":
            return geometric_mean(values)
        return arithmetic_mean(values)

    def average_gain(self, label: str) -> float:
        """Average speedup expressed as a gain (paper's "+59%" = 0.59)."""
        return self.average_speedup(label) - 1.0

    def degraded_benchmarks(self, label: str) -> list[str]:
        """Benchmarks slowed down by the scaling (counter-productive cases)."""
        return [b for b, s in self.speedups(label).items() if s < 1.0]

    def truncated_points(self) -> tuple[tuple[str, str], ...]:
        """(config label, benchmark) pairs whose run hit the cycle limit."""
        return tuple(
            (label, benchmark)
            for label in self.config_labels
            for benchmark in self.benchmarks
            if self.runs[label][benchmark].truncated
        )

    def to_table(self) -> str:
        rows = []
        for benchmark in self.benchmarks:
            row = [benchmark]
            for label in self.config_labels:
                if label == "baseline":
                    continue
                row.append(f"{self.speedup(label, benchmark):.2f}x")
            rows.append(row)
        avg_row = ["average"]
        headers = ["benchmark"]
        for label in self.config_labels:
            if label == "baseline":
                continue
            headers.append(label)
            avg_row.append(f"{self.average_speedup(label):.2f}x")
        rows.append(avg_row)
        return render_table(
            headers, rows, title="Speedup over baseline (IPC ratio)"
        )


def explore_design_space(
    config: GPUConfig,
    benchmarks: Sequence[str] = PAPER_SUITE,
    configs: Mapping[str, tuple[str, ...]] | None = None,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    runner: BatchRunner | None = None,
) -> ExplorationResult:
    """Run the Section IV experiment matrix.

    ``configs`` maps labels to tuples of levels to scale together; the
    default is the paper's matrix (baseline, each level alone, L1+L2,
    L2+DRAM).

    The whole (config x benchmark) matrix executes as one batch on
    ``runner`` (default: :meth:`BatchRunner.serial`); results merge back
    by position, never by completion order.
    """
    if configs is None:
        configs = SECTION_IV_CONFIGS
    if "baseline" not in configs:
        configs = {"baseline": (), **configs}
    benchmarks = list(benchmarks)
    scaled = [scale_levels(config, levels) for levels in configs.values()]
    jobs = [
        Job(cfg, name, seed=seed, iteration_scale=iteration_scale,
            max_cycles=max_cycles)
        for cfg in scaled
        for name in benchmarks
    ]
    results = iter((runner or BatchRunner.serial()).run(jobs))
    runs = {
        label: {name: next(results) for name in benchmarks}
        for label in configs
    }
    return ExplorationResult(
        runs=runs,
        config_labels=tuple(configs),
        benchmarks=tuple(benchmarks),
    )


@dataclass(frozen=True)
class ParameterSweep:
    """Result of sweeping one Table I parameter (ablation)."""

    parameter: str
    benchmark: str
    #: value -> metrics.
    points: Mapping[int, RunMetrics] = field(default_factory=dict)

    def speedups(self) -> dict[int, float]:
        values = sorted(self.points)
        base = self.points[values[0]]
        return {v: self.points[v].speedup_over(base) for v in values}


def sweep_parameter(
    config: GPUConfig,
    key: str,
    values: Sequence[int],
    benchmark: str,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> ParameterSweep:
    """Run one benchmark across several values of one Table I parameter."""
    kernel = get_benchmark(benchmark, iteration_scale)
    points = {}
    for value in values:
        cfg = scaled_config(config, key, value)
        points[value] = run_kernel(cfg, kernel, seed=seed, max_cycles=max_cycles)
    return ParameterSweep(parameter=key, benchmark=benchmark, points=points)
