"""Figure 1: the latency tolerance profile.

The paper's methodology: keep the SMs and L1s, replace everything below
the L1 with a responder that returns every miss after a *fixed* latency,
sweep that latency (x-axis) and plot IPC normalized to the true baseline
architecture (y-axis).  Two observations fall out of each curve:

* the **intercept** — the fixed latency at which the curve crosses 1.0x —
  estimates the baseline's *effective* average memory latency, and for
  most benchmarks sits far above the unloaded L2/DRAM latencies, revealing
  congestion;
* the **plateau** — the latency below which performance stops improving —
  marks where the benchmark's own parallelism saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.core.metrics import RunMetrics, run_kernel
from repro.sim.config import GPUConfig
from repro.workloads.program import KernelProgram
from repro.runner import BatchRunner, Job

#: The paper's x-axis: 0..800 cycles in steps of 50.
DEFAULT_LATENCIES: tuple[int, ...] = tuple(range(0, 801, 50))
#: Unloaded access latencies quoted in Section II.
IDEAL_L2_LATENCY = 120
IDEAL_DRAM_LATENCY = 220


@dataclass(frozen=True)
class LatencyPoint:
    """One x-axis point of Figure 1."""

    latency: int
    ipc: float
    normalized_ipc: float
    #: True when this point's run hit the cycle limit (IPC is a lower bound).
    truncated: bool = False


@dataclass(frozen=True)
class LatencyProfile:
    """Figure 1 curve for one benchmark."""

    benchmark: str
    baseline: RunMetrics
    points: tuple[LatencyPoint, ...]

    @property
    def baseline_ipc(self) -> float:
        return self.baseline.ipc

    @property
    def baseline_avg_miss_latency(self) -> float:
        """Measured average L1 miss round trip of the true baseline."""
        return self.baseline.l1_avg_miss_latency

    @property
    def peak_normalized_ipc(self) -> float:
        return max(p.normalized_ipc for p in self.points)

    @property
    def truncated(self) -> bool:
        """True when any contributing run hit the cycle limit."""
        return self.baseline.truncated or any(p.truncated for p in self.points)

    def plateau_latency(self, tolerance: float = 0.05) -> int:
        """Largest swept latency still within ``tolerance`` of peak IPC."""
        peak = self.peak_normalized_ipc
        plateau = self.points[0].latency
        for point in self.points:
            if point.normalized_ipc >= peak * (1.0 - tolerance):
                plateau = max(plateau, point.latency)
        return plateau

    def intercept_latency(self) -> float | None:
        """Fixed latency at which normalized IPC crosses 1.0.

        Linearly interpolated between swept points; None when the curve
        never crosses (benchmark insensitive over the swept range).
        """
        pts = sorted(self.points, key=lambda p: p.latency)
        for left, right in zip(pts, pts[1:]):
            if left.normalized_ipc >= 1.0 >= right.normalized_ipc:
                dy = left.normalized_ipc - right.normalized_ipc
                if dy == 0:
                    return float(left.latency)
                frac = (left.normalized_ipc - 1.0) / dy
                return left.latency + frac * (right.latency - left.latency)
        if pts and pts[-1].normalized_ipc > 1.0:
            return None  # still above baseline at the largest swept latency
        if pts and pts[0].normalized_ipc < 1.0:
            return float(pts[0].latency)
        return None

    def congestion_excess(self) -> float | None:
        """Cycles of baseline latency beyond the unloaded DRAM latency.

        Positive values are congestion-added latency (Section II's second
        observation).
        """
        intercept = self.intercept_latency()
        if intercept is None:
            return None
        return intercept - IDEAL_DRAM_LATENCY

    def series(self) -> list[tuple[float, float]]:
        """(latency, normalized IPC) pairs for plotting."""
        return [(float(p.latency), p.normalized_ipc) for p in self.points]


def profile_latency_tolerance(
    benchmark: str | KernelProgram,
    config: GPUConfig,
    latencies: Sequence[int] = DEFAULT_LATENCIES,
    iteration_scale: float = 1.0,
    seed: int = 1,
    baseline: RunMetrics | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    runner: BatchRunner | None = None,
) -> LatencyProfile:
    """Produce one benchmark's Figure 1 curve.

    ``baseline`` may be supplied to reuse an existing baseline run (e.g.
    shared with the congestion measurement); otherwise the true baseline
    configuration is simulated first.

    A suite benchmark *name* runs the baseline and every swept point as
    one batch on ``runner`` (default: :meth:`BatchRunner.serial`).  An
    ad-hoc :class:`KernelProgram` runs in-process: its closures cannot
    cross process boundaries and it has no :class:`Job` key.
    """
    latencies = list(latencies)
    configs = [config.with_magic_memory(latency) for latency in latencies]
    if baseline is None:
        configs.insert(0, config)
    if isinstance(benchmark, str):
        name = benchmark
        results = (runner or BatchRunner.serial()).run(
            [
                Job(cfg, benchmark, seed=seed,
                    iteration_scale=iteration_scale, max_cycles=max_cycles)
                for cfg in configs
            ]
        )
    else:
        name = benchmark.name
        results = [
            run_kernel(cfg, benchmark, seed=seed, max_cycles=max_cycles)
            for cfg in configs
        ]
    if baseline is None:
        baseline, *results = results
    points = [
        LatencyPoint(
            latency=latency,
            ipc=metrics.ipc,
            normalized_ipc=metrics.ipc / baseline.ipc if baseline.ipc else 0.0,
            truncated=metrics.truncated,
        )
        for latency, metrics in zip(latencies, results)
    ]
    return LatencyProfile(benchmark=name, baseline=baseline, points=tuple(points))
