"""Per-hop latency breakdown.

Section II argues that baseline memory latencies are "critically higher
than the ideal access latencies" and attributes the excess to congestion.
This analyzer shows *where* the excess accrues: every request carries
per-hop timestamps, and the breakdown averages the time spent in each
segment of the round trip, separately for L2 hits and L2 misses.

Segments (L1 miss -> fill):

=================  =====================================================
segment            boundary timestamps
=================  =====================================================
l1_to_l2           l1_miss -> l2_in   (L1 miss queue + request crossbar)
l2_queue           l2_in -> l2_probed (access queue + bank pipeline)
l2_to_dram         l2_miss -> dram_in (L2 miss queue admission)
dram_service       dram_in -> dram_done (scheduler queue + bank + bus)
dram_to_l2         dram_done -> l2_out (return queue, fill, data port)
l2_hit_out         l2_probed -> l2_out (data port + response queue, hits)
response_network   l2_out -> l1_fill (response crossbar + network)
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.gpu import GPU
from repro.mem.request import MemoryRequest
from repro.sim.config import L1_FILL_LATENCY, GPUConfig
from repro.utils.stats import Accumulator
from repro.utils.tables import render_table
from repro.workloads.program import KernelProgram
from repro.workloads.suite import get_benchmark

#: segment name -> (start hop, end hop)
SEGMENTS: dict[str, tuple[str, str]] = {
    "l1_to_l2": ("l1_miss", "l2_in"),
    "l2_queue": ("l2_in", "l2_probed"),
    "l2_to_dram": ("l2_miss", "dram_in"),
    "dram_service": ("dram_in", "dram_done"),
    "dram_to_l2": ("dram_done", "l2_out"),
    "l2_hit_out": ("l2_probed", "l2_out"),
    "response_network": ("l2_out", "l1_fill"),
}


@dataclass
class LatencyBreakdown:
    """Average per-segment latencies for one run."""

    benchmark: str
    #: segment -> Accumulator over requests that traversed it.
    segments: dict[str, Accumulator] = field(default_factory=dict)
    total_l2_hit: Accumulator = field(
        default_factory=lambda: Accumulator("total_l2_hit"))
    total_l2_miss: Accumulator = field(
        default_factory=lambda: Accumulator("total_l2_miss"))

    def observe(self, request: MemoryRequest) -> None:
        """Fold one completed load's timestamps into the breakdown."""
        for name, (start, end) in SEGMENTS.items():
            delta = request.latency(start, end)
            if delta is not None:
                self.segments.setdefault(name, Accumulator(name)).add(delta)
        total = request.latency("l1_miss", "l1_fill")
        if total is None:
            return
        if request.l2_miss:
            self.total_l2_miss.add(total)
        else:
            self.total_l2_hit.add(total)

    def mean(self, segment: str) -> float:
        acc = self.segments.get(segment)
        return acc.mean if acc else 0.0

    def to_table(self) -> str:
        rows = []
        for name in SEGMENTS:
            acc = self.segments.get(name)
            if acc is None or not acc.count:
                continue
            rows.append([name, f"{acc.mean:.1f}", acc.count])
        rows.append([
            "TOTAL (L2 hits)", f"{self.total_l2_hit.mean:.1f}",
            self.total_l2_hit.count,
        ])
        rows.append([
            "TOTAL (L2 misses)", f"{self.total_l2_miss.mean:.1f}",
            self.total_l2_miss.count,
        ])
        return render_table(
            ["segment", "avg cycles", "requests"], rows,
            title=f"Latency breakdown: {self.benchmark}")


def measure_latency_breakdown(
    config: GPUConfig,
    benchmark: str | KernelProgram,
    iteration_scale: float = 1.0,
    seed: int = 1,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> LatencyBreakdown:
    """Run a kernel and collect its per-hop latency breakdown.

    Hooks every SM's L1 access path to observe each load transaction after
    completion (timestamps are final once the fill lands).
    """
    if isinstance(benchmark, str):
        kernel = get_benchmark(benchmark, iteration_scale)
    else:
        kernel = benchmark
    gpu = GPU(config, kernel, seed=seed)
    breakdown = LatencyBreakdown(benchmark=kernel.name)

    for sm in gpu.sms:
        original = sm.l1.collect_completions

        def observing(now, _original=original):
            completed = _original(now)
            for request in completed:
                if "l1_fill" in request.timestamps:
                    breakdown.observe(request)
            return completed

        sm.l1.collect_completions = observing

    gpu.run(max_cycles=max_cycles)
    return breakdown


def congestion_share(breakdown: LatencyBreakdown, config: GPUConfig) -> float:
    """Fraction of the average L2-miss round trip beyond the unloaded one.

    Uses the configured ideal latencies; a value of 0.6 means 60% of the
    observed latency is queueing added by congestion — the quantity the
    paper's Section II points at.
    """
    observed = breakdown.total_l2_miss.mean
    if not observed:
        return 0.0
    timing = config.dram
    unloaded = (
        config.l2.bank_latency
        + timing.t_rcd + timing.t_cas + config.dram_transfer_cycles
        + config.response_transfer_cycles()
        + config.icnt.network_latency
        + L1_FILL_LATENCY
    )
    return max(0.0, (observed - unloaded) / observed)
