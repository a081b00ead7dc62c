"""Scaling-coefficient curves.

Table I uses a ~4x scaling "just to demonstrate the potential of resolving
congestion at each level"; the paper notes the *actual* scaling would
weigh costs.  This analysis sweeps the scaling coefficient itself —
applying every parameter of a level at 1x, 2x, 4x, 8x of its baseline —
to locate where each level's benefit saturates, which is the input a
cost-aware designer needs.

The bus-width exception is preserved: the paper scales it 2x where other
parameters scale 4x, i.e. at coefficient ``k`` the bus scales ``sqrt(k)``
(rounded to a power of two).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.core.design_space import parameters_for_level
from repro.core.metrics import RunMetrics
from repro.errors import ConfigError
from repro.sim.config import GPUConfig
from repro.utils.means import arithmetic_mean
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE
from repro.runner import BatchRunner, Job


def _pow2_at_least(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1.0, x))))


def scale_level_by(config: GPUConfig, level: str, factor: int) -> GPUConfig:
    """Scale every Table I parameter of ``level`` by ``factor``.

    ``factor`` must be a power of two >= 1 so banked/width parameters stay
    powers of two.  The DRAM bus width scales by ``sqrt(factor)`` (paper's
    2x-at-4x exception).
    """
    if factor < 1 or factor & (factor - 1):
        raise ConfigError(f"scaling factor must be a power of two, got {factor}")
    for parameter in parameters_for_level(level):
        if parameter.key == "dram_bus_width":
            value = parameter.baseline * _pow2_at_least(math.sqrt(factor))
        else:
            value = parameter.baseline * factor
        config = parameter.apply(config, value)
    return config


@dataclass(frozen=True)
class ScalingCurve:
    """Average speedup of one level across scaling coefficients."""

    level: str
    #: coefficient -> benchmark -> metrics.
    runs: Mapping[int, Mapping[str, RunMetrics]]

    def average_speedup(self, factor: int) -> float:
        base = self.runs[1]
        scaled = self.runs[factor]
        return arithmetic_mean(
            scaled[b].ipc / base[b].ipc for b in base
        )

    def saturation_factor(self, threshold: float = 0.05) -> int:
        """Smallest coefficient whose doubling adds < ``threshold`` gain."""
        factors = sorted(self.runs)
        for factor, nxt in zip(factors, factors[1:]):
            if self.average_speedup(nxt) - self.average_speedup(factor) < threshold:
                return factor
        return factors[-1]


def sweep_scaling_coefficient(
    config: GPUConfig,
    level: str,
    factors: Sequence[int] = (1, 2, 4, 8),
    benchmarks: Sequence[str] = PAPER_SUITE,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    runner: BatchRunner | None = None,
) -> ScalingCurve:
    """Run ``level`` at several scaling coefficients over ``benchmarks``.

    The (factor x benchmark) grid executes as one batch on ``runner``
    (default: :meth:`BatchRunner.serial`), merged back by position.
    """
    if 1 not in factors:
        factors = (1, *factors)
    benchmarks = list(benchmarks)
    scaled = [scale_level_by(config, level, factor) for factor in factors]
    jobs = [
        Job(cfg, name, seed=seed, iteration_scale=iteration_scale,
            max_cycles=max_cycles)
        for cfg in scaled
        for name in benchmarks
    ]
    results = iter((runner or BatchRunner.serial()).run(jobs))
    runs = {
        factor: {name: next(results) for name in benchmarks}
        for factor in factors
    }
    return ScalingCurve(level=level, runs=runs)


def render_scaling_curves(curves: Sequence[ScalingCurve]) -> str:
    factors = sorted(curves[0].runs)
    rows = []
    for curve in curves:
        row = [curve.level]
        for factor in factors:
            row.append(f"{curve.average_speedup(factor):.2f}x")
        row.append(f"{curve.saturation_factor()}x")
        rows.append(row)
    return render_table(
        ["level", *[f"{f}x" for f in factors], "saturates at"],
        rows,
        title="Average speedup vs scaling coefficient",
    )
