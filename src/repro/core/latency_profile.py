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
from collections.abc import Iterable, Mapping, Sequence

from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.core.metrics import RunMetrics, run_kernel
from repro.sim.config import GPUConfig
from repro.workloads.program import KernelProgram
from repro.workloads.suite import PAPER_SUITE
from repro.runner import BatchRunner, Job

#: The paper's x-axis: 0..800 cycles in steps of 50.
DEFAULT_LATENCIES: tuple[int, ...] = tuple(range(0, 801, 50))
#: The reported Fig. 1 sweep (CLI, benchmarks, EXPERIMENTS.md): 0..800
#: cycles in steps of 100.
REPORT_LATENCIES: tuple[int, ...] = tuple(range(0, 801, 100))
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

    def series(self) -> list[tuple[float, float]]:
        """(latency, normalized IPC) pairs for plotting."""
        return [(float(p.latency), p.normalized_ipc) for p in self.points]


def latency_profile_jobs(
    config: GPUConfig,
    benchmarks: Sequence[str],
    latencies: Sequence[int],
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> list[Job]:
    """Plan Figure 1's magic-memory points, benchmark-major.

    The baselines are not in the plan: they are plain baseline runs,
    which a caller may already run for another section.
    """
    return [
        Job(config.with_magic_memory(latency), name, seed=seed,
            iteration_scale=iteration_scale, max_cycles=max_cycles)
        for name in benchmarks
        for latency in latencies
    ]


def reduce_latency_profiles(
    baselines: Mapping[str, RunMetrics],
    latencies: Sequence[int],
    points: Iterable[RunMetrics],
) -> list[LatencyProfile]:
    """One curve per baseline, taking ``points`` in plan order."""
    points = iter(points)
    return [
        LatencyProfile(benchmark=name, baseline=base, points=tuple(
            LatencyPoint(
                latency=latency,
                ipc=metrics.ipc,
                normalized_ipc=metrics.ipc / base.ipc if base.ipc else 0.0,
                truncated=metrics.truncated,
            )
            for latency, metrics in zip(latencies, points)
        ))
        for name, base in baselines.items()
    ]


def profile_latency_suite(
    config: GPUConfig,
    benchmarks: Sequence[str] = PAPER_SUITE,
    latencies: Sequence[int] = DEFAULT_LATENCIES,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    runner: BatchRunner | None = None,
) -> list[LatencyProfile]:
    """Figure 1 curves of suite benchmarks, run as one batch.

    The batch (on ``runner``, default :meth:`BatchRunner.serial`) holds
    every baseline, then every magic-memory point.
    """
    benchmarks, latencies = list(benchmarks), list(latencies)
    results = (runner or BatchRunner.serial()).run([
        Job(config, name, seed=seed, iteration_scale=iteration_scale,
            max_cycles=max_cycles)
        for name in benchmarks
    ] + latency_profile_jobs(
        config, benchmarks, latencies, iteration_scale, seed, max_cycles))
    return reduce_latency_profiles(
        dict(zip(benchmarks, results)), latencies, results[len(benchmarks):])


def profile_latency_tolerance(
    benchmark: str | KernelProgram,
    config: GPUConfig,
    latencies: Sequence[int] = DEFAULT_LATENCIES,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    runner: BatchRunner | None = None,
) -> LatencyProfile:
    """Produce one benchmark's Figure 1 curve.

    The true baseline configuration is simulated first, then every swept
    magic-memory latency.  A suite benchmark *name* runs them all as
    one batch on ``runner`` (see :func:`profile_latency_suite`).  An
    ad-hoc :class:`KernelProgram` runs in-process: its closures cannot
    cross process boundaries and it has no :class:`Job` key.
    """
    latencies = list(latencies)
    if isinstance(benchmark, str):
        return profile_latency_suite(
            config, [benchmark], latencies, iteration_scale, seed,
            max_cycles, runner)[0]
    baseline, *results = [
        run_kernel(cfg, benchmark, seed=seed, max_cycles=max_cycles)
        for cfg in [config] + [config.with_magic_memory(l) for l in latencies]
    ]
    return reduce_latency_profiles(
        {benchmark.name: baseline}, latencies, results)[0]
