"""The paper's claims as named, runnable checks: the one registry.

Every paper number and benchmark set the reproduction holds itself to
is declared here once, and each claim's pass band lives in its
evaluator.  ``repro validate``, the report renderers, the benchmark
harness and the EXPERIMENTS.md generator read them from this module.
:data:`CLAIMS` lists the nine claims in report order (all *shape*
claims, per the reproduction brief).  Each reads one section's result:
``fig1`` a mapping of :class:`LatencyProfile` by benchmark, ``sec3`` a
:class:`CongestionReport`, ``sec4`` an :class:`ExplorationResult`.
Each evaluator's docstring is its claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.core.congestion import CongestionReport
from repro.core.explorer import (
    SECTION_IV_CONFIGS,
    ExplorationResult,
    reduce_exploration,
)
from repro.core.latency_profile import (
    IDEAL_L2_LATENCY,
    LatencyProfile,
    latency_profile_jobs,
    reduce_latency_profiles,
)
from repro.core.profile import sweep_jobs
from repro.core.synergy import analyze_synergy
from repro.runner import BatchRunner
from repro.sim.config import GPUConfig
from repro.utils.tables import render_table
from repro.workloads.suite import PAPER_SUITE

#: Section III: share of usage lifetime the queues spend full.
PAPER_L2_ACCESSQ_FULL = 0.46
PAPER_DRAM_SCHEDQ_FULL = 0.39
#: Section IV: average gain over the suite per scaled configuration.
PAPER_AVG_GAINS: Mapping[str, float] = {
    "l1": 0.04,
    "l2": 0.59,
    "dram": 0.11,
    "l1+l2": 0.69,
    "l2+dram": 0.76,
}

#: Benchmarks the paper's Figure 1 shows as strongly memory bound.
MEMORY_BOUND: tuple[str, ...] = ("cfd", "dwt2d", "nn", "sc", "lbm", "ss")
#: The compute-bound outlier with the flattest curve.
COMPUTE_BOUND = "leukocyte"


@dataclass(frozen=True)
class Check:
    """One named claim with its verdict and supporting evidence."""

    name: str
    passed: bool
    evidence: str


@dataclass(frozen=True)
class Claim:
    """One paper claim: its id, the section result it reads, its test.

    ``evaluate`` takes the ``section`` result and returns
    ``(passed, evidence)``.
    """

    id: str
    section: str
    evaluate: Callable[[Any], tuple[bool, str]]

    def check(self, result: Any) -> Check:
        return Check(self.id, *self.evaluate(result))


def _curves_fall(profiles: Mapping[str, LatencyProfile]) -> tuple[bool, str]:
    """IPC decreases with fixed L1 miss latency (5% slack for noise)."""
    falling = [
        name for name, p in profiles.items()
        if all(later.ipc <= earlier.ipc * 1.05
               for earlier, later in zip(p.points, p.points[1:]))
    ]
    return (len(falling) == len(profiles),
            f"{len(falling)}/{len(profiles)} curves non-increasing")


def _compute_flat(profiles: Mapping[str, LatencyProfile]) -> tuple[bool, str]:
    """The compute-bound benchmark's curve is about flat."""
    peak = profiles[COMPUTE_BOUND].peak_normalized_ipc
    return peak < 1.5, f"{COMPUTE_BOUND} peak {peak:.2f}x"


def _intercepts_high(
    profiles: Mapping[str, LatencyProfile],
) -> tuple[bool, str]:
    """Effective baseline latencies lie far above the ideal L2 latency."""
    high = [
        name for name in MEMORY_BOUND
        if (i := profiles[name].intercept_latency()) is not None
        and i > IDEAL_L2_LATENCY
    ]
    return (len(high) == len(MEMORY_BOUND),
            f"{len(high)}/{len(MEMORY_BOUND)} intercepts above "
            f"{IDEAL_L2_LATENCY} cy")


def _queue_full(queues: str, paper: float, attr: str) -> Callable:
    """The queues are full for 10-80% of their usage lifetime."""

    def evaluate(report: CongestionReport) -> tuple[bool, str]:
        full = getattr(report, attr)
        return (0.10 <= full <= 0.80,
                f"{queues} full {full:.0%} (paper {paper:.0%})")

    return evaluate


def _l2_dominates(result: ExplorationResult) -> tuple[bool, str]:
    """L2-level scaling gains more than DRAM-level, DRAM more than L1."""
    gains = {level: result.average_gain(level) for level in ("l1", "l2", "dram")}
    return (gains["l2"] > gains["dram"] > gains["l1"],
            "gains: " + ", ".join(f"{l} {g:+.0%}" for l, g in gains.items()))


def _superadditive(result: ExplorationResult) -> tuple[bool, str]:
    """Both combined scalings exceed the sum of their parts."""
    synergy = analyze_synergy(result)
    return synergy.all_super_additive, ", ".join(
        f"{p.combined_label} {p.synergy:+.1%}" for p in synergy.pairs)


def _l1_backfires(result: ExplorationResult) -> tuple[bool, str]:
    """Isolated L1 scaling slows down at least one benchmark."""
    degraded = result.degraded_benchmarks("l1")
    return bool(degraded), f"degraded: {', '.join(degraded) or 'none'}"


def _cache_beats_dram(result: ExplorationResult) -> tuple[bool, str]:
    """L1+L2 scaling beats high-bandwidth DRAM alone."""
    cache, dram = result.average_gain("l1+l2"), result.average_gain("dram")
    return cache > dram, f"L1+L2 {cache:+.0%} vs DRAM {dram:+.0%}"


#: The nine claims by id, in report order.
CLAIMS: Mapping[str, Claim] = {claim.id: claim for claim in (
    Claim("fig1_curves_fall", "fig1", _curves_fall),
    Claim("fig1_compute_flat", "fig1", _compute_flat),
    Claim("fig1_intercepts_high", "fig1", _intercepts_high),
    Claim("sec3_l2_congested", "sec3", _queue_full(
        "L2 access queues", PAPER_L2_ACCESSQ_FULL, "avg_l2_access_queue_full")),
    Claim("sec3_dram_congested", "sec3", _queue_full(
        "DRAM sched queues", PAPER_DRAM_SCHEDQ_FULL, "avg_dram_queue_full")),
    Claim("sec4_l2_dominates", "sec4", _l2_dominates),
    Claim("sec4_superadditive", "sec4", _superadditive),
    Claim("sec4_l1_backfires", "sec4", _l1_backfires),
    Claim("sec4_cache_beats_dram", "sec4", _cache_beats_dram),
)}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_table(self) -> str:
        rows = [
            [c.name, "PASS" if c.passed else "FAIL", c.evidence]
            for c in self.checks
        ]
        verdict = "REPRODUCED" if self.passed else "NOT REPRODUCED"
        return render_table(
            ["check", "verdict", "evidence"], rows,
            title=f"Reproduction validation: {verdict}", align="lll")


def evaluate_claims(
    profiles: Sequence[LatencyProfile],
    congestion: CongestionReport,
    exploration: ExplorationResult,
) -> ValidationReport:
    """Check every claim against one battery's results."""
    sections = {
        "fig1": {p.benchmark: p for p in profiles},
        "sec3": congestion,
        "sec4": exploration,
    }
    return ValidationReport(checks=tuple(
        claim.check(sections[claim.section]) for claim in CLAIMS.values()))


def validate_reproduction(
    config: GPUConfig,
    iteration_scale: float = 0.5,
    seed: int = 1,
    latencies: Sequence[int] = (0, 200, 400, 800),
) -> ValidationReport:
    """Run the experiment battery as one batch and evaluate every claim.

    The batch is the Section IV matrix plus Figure 1's magic-memory
    points, no job twice.  The matrix's baseline runs serve all three
    sections: they normalize the Figure 1 curves and they are the
    Section III measurement.
    """
    benchmarks, latencies = list(PAPER_SUITE), list(latencies)
    matrix = sweep_jobs(
        config, SECTION_IV_CONFIGS, benchmarks, [seed], iteration_scale)
    results = BatchRunner.serial().run(matrix + latency_profile_jobs(
        config, benchmarks, latencies, iteration_scale, seed))
    exploration = reduce_exploration(
        SECTION_IV_CONFIGS, benchmarks, results[:len(matrix)])
    baselines = exploration.runs["baseline"]
    profiles = reduce_latency_profiles(
        baselines, latencies, results[len(matrix):])
    return evaluate_claims(
        profiles, CongestionReport(runs=baselines), exploration)
