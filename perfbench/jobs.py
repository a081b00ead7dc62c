"""Seeded job lists and in-process execution for the simulation workloads.

A job is one simulation point of the paper's methodology: a fresh
``GPU`` (every modelled cache starts empty) built from a suite kernel and
a configuration, run to completion, then measured with
``collect_metrics``.  The benchmark seed picks each benchmark's
simulation seed; the job count, configurations and iteration scale are
fixed, so two seeds give different jobs of the same size.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.core.design_space import scale_levels
from repro.core.explorer import SECTION_IV_CONFIGS
from repro.core.export import runs_to_text
from repro.core.metrics import RunMetrics, collect_metrics
from repro.errors import ReproError
from repro.gpu import GPU
from repro.sim.config import GPUConfig, small_gpu
from repro.workloads.suite import PAPER_SUITE, get_benchmark

from tracing import LayerTimer, SpanLog

#: Iteration scale of the Section III/IV matrix (about 5 s per pass of
#: 48 jobs on a 2-core container).
DESIGN_SPACE_SCALE = 0.03
#: Iteration scale of the Fig. 1 points (about 1.8 s per pass of 40 jobs).
MAGIC_SWEEP_SCALE = 0.1
#: Fixed L1 miss latencies of the Fig. 1 sweep (cycles).
MAGIC_LATENCIES = (0, 100, 200, 400, 800)

#: The paper's reported values, in percent: Sec. III queue-full shares
#: of usage lifetime and Sec. IV average speedups per scaled level.
PAPER_QUEUE_FULL = {"l2_accessq": 46.0, "dram_schedq": 39.0}
PAPER_GAINS = {"l1": 4.0, "l2": 59.0, "dram": 11.0, "l1+l2": 69.0,
               "l2+dram": 76.0}


@dataclass(frozen=True)
class SimJob:
    """One simulation point: configuration, kernel, seed and scale."""

    label: str
    benchmark: str
    seed: int
    scale: float
    config: GPUConfig


def benchmark_seeds(workload: str, seed: int) -> dict[str, int]:
    """Simulation seed per suite benchmark, drawn from the benchmark seed.

    One seed per benchmark, shared across configurations, so speedups
    compare the same kernel instance as the paper's methodology does.
    """
    rng = random.Random(f"{workload}:{seed}")
    return {name: rng.randrange(1, 2**31) for name in PAPER_SUITE}


def design_space_jobs(seed: int) -> list[SimJob]:
    """Sec. III/IV matrix: baseline plus five scaled configs x the suite."""
    seeds = benchmark_seeds("design_space", seed)
    base = small_gpu()
    return [
        SimJob(label, name, seeds[name], DESIGN_SPACE_SCALE,
               scale_levels(base, levels))
        for label, levels in SECTION_IV_CONFIGS.items()
        for name in PAPER_SUITE
    ]


def magic_sweep_jobs(seed: int) -> list[SimJob]:
    """Fig. 1 points: magic memory below L1 at fixed latencies x the suite."""
    seeds = benchmark_seeds("magic_sweep", seed)
    base = small_gpu()
    return [
        SimJob(f"magic{latency}", name, seeds[name], MAGIC_SWEEP_SCALE,
               base.with_magic_memory(latency))
        for latency in MAGIC_LATENCIES
        for name in PAPER_SUITE
    ]


JOB_LISTS = {"design_space": design_space_jobs, "magic_sweep": magic_sweep_jobs}


def digest(runs: list[RunMetrics]) -> str:
    """Content digest of simulated results in the stable export schema."""
    return hashlib.sha256(runs_to_text(runs, "json").encode()).hexdigest()[:16]


@dataclass
class JobResult:
    """What one job produced and how long its steps took on the host."""

    metrics: RunMetrics | None
    error: str
    #: Host seconds of workloads.build, gpu.build, sim.run, core.collect.
    build_kernel_s: float = 0.0
    build_gpu_s: float = 0.0
    run_s: float = 0.0
    collect_s: float = 0.0
    #: Simulated cycles the engine skipped by fast-forward.
    ff_cycles: int = 0

    @property
    def total_s(self) -> float:
        return self.build_kernel_s + self.build_gpu_s + self.run_s + self.collect_s


def run_job(
    job: SimJob,
    spans: SpanLog,
    job_id: int = 0,
    timer: LayerTimer | None = None,
) -> JobResult:
    """Build, run and measure one job, recording its spans in ``spans``.

    With ``timer``, the GPU's components are wrapped before it runs.
    """
    with spans.span("job", job_id) as root:
        with spans.span("workloads.build", job_id, root):
            kernel = get_benchmark(job.benchmark, job.scale)
        with spans.span("gpu.build", job_id, root):
            gpu = GPU(job.config, kernel, seed=job.seed)
        if timer is not None:
            timer.instrument(gpu)
        try:
            with spans.span("sim.run", job_id, root):
                gpu.run()
        except ReproError as exc:
            return JobResult(None, f"{type(exc).__name__}: {exc}")
        with spans.span("core.collect", job_id, root):
            metrics = collect_metrics(gpu)
    steps = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans.spans[-4:]]
    return JobResult(metrics, "", *steps,
                     ff_cycles=gpu.sim.cycles_fast_forwarded)


def fidelity_error_pts(jobs: list[SimJob], runs: list[RunMetrics]) -> float:
    """Mean absolute error, in percentage points, against the paper.

    Compares the Sec. III L2 access-queue and DRAM scheduler-queue full
    shares (suite mean over baseline runs) and the Sec. IV average gain
    of each scaled configuration with the values the paper reports.
    """
    by = {(job.label, job.benchmark): m for job, m in zip(jobs, runs)}
    names = sorted({job.benchmark for job in jobs})
    base = [by["baseline", name] for name in names]
    measured = {
        "l2_accessq": 100 * sum(m.l2_accessq.full_fraction for m in base)
        / len(base),
        "dram_schedq": 100 * sum(m.dram_schedq.full_fraction for m in base)
        / len(base),
    }
    for label in PAPER_GAINS:
        speedups = [by[label, name].ipc / by["baseline", name].ipc
                    for name in names]
        measured[label] = 100 * (sum(speedups) / len(speedups) - 1.0)
    paper = {**PAPER_QUEUE_FULL, **PAPER_GAINS}
    return sum(abs(measured[k] - paper[k]) for k in paper) / len(paper)
