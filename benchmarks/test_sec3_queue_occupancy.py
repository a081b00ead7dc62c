"""E3 — Section III: measuring the bandwidth bottleneck.

Regenerates the queue-occupancy measurement: the fraction of each queue's
usage lifetime spent completely full, per benchmark and averaged over the
suite.  The paper reports 46% for the L2 access queues and 39% for the
DRAM scheduler queues on its GTX480 baseline; this reproduction asserts
the *shape* — substantial congestion at both levels on the baseline, and
an order-of-magnitude drop once the Table I design space is applied.
"""

import pytest

from repro import CongestionReport, measure_congestion, scale_levels
from repro.core.report import render_congestion
from repro.core.validation import (
    CLAIMS,
    PAPER_DRAM_SCHEDQ_FULL,
    PAPER_L2_ACCESSQ_FULL,
)


@pytest.mark.benchmark(group="sec3")
def test_sec3_queue_occupancy(benchmark, section_iv_exploration, save_report):
    report = benchmark.pedantic(
        lambda: CongestionReport(runs=section_iv_exploration.runs["baseline"]),
        rounds=1, iterations=1)
    save_report("sec3_queue_occupancy", render_congestion(report))

    l2_full = report.avg_l2_access_queue_full
    dram_full = report.avg_dram_queue_full
    benchmark.extra_info["l2_accessq_full"] = round(l2_full, 3)
    benchmark.extra_info["l2_accessq_full_paper"] = PAPER_L2_ACCESSQ_FULL
    benchmark.extra_info["dram_schedq_full"] = round(dram_full, 3)
    benchmark.extra_info["dram_schedq_full_paper"] = PAPER_DRAM_SCHEDQ_FULL

    # Substantial congestion at both levels (same order as 46% / 39%).
    assert CLAIMS["sec3_l2_congested"].check(report).passed
    assert CLAIMS["sec3_dram_congested"].check(report).passed
    # Per-benchmark sanity: at least half the suite shows L2-path pressure.
    pressured = sum(
        1 for m in report.runs.values()
        if m.l2_accessq.full_fraction > 0.2 or m.l2_respq.full_fraction > 0.2
    )
    assert pressured >= len(report.runs) // 2


@pytest.mark.benchmark(group="sec3")
def test_sec3_congestion_vanishes_when_scaled(
    benchmark, baseline_config, scale, seed, save_report,
    section_iv_exploration,
):
    """Back-pressure, not capacity, fills the baseline queues: with the
    full Table I scaling the same workloads leave them nearly empty."""
    relieved_config = scale_levels(baseline_config, ("l1", "l2", "dram"))

    def run():
        return measure_congestion(
            relieved_config, iteration_scale=scale, seed=seed)

    relieved = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = CongestionReport(runs=section_iv_exploration.runs["baseline"])
    save_report(
        "sec3_scaled_queue_occupancy",
        relieved.to_table()
        + f"\n\nbaseline L2 accessQ full: {baseline.avg_l2_access_queue_full:.0%}"
        + f" -> scaled: {relieved.avg_l2_access_queue_full:.0%}"
        + f"\nbaseline DRAM schedQ full: {baseline.avg_dram_queue_full:.0%}"
        + f" -> scaled: {relieved.avg_dram_queue_full:.0%}",
    )
    benchmark.extra_info["scaled_l2_accessq_full"] = round(
        relieved.avg_l2_access_queue_full, 3)
    benchmark.extra_info["scaled_dram_schedq_full"] = round(
        relieved.avg_dram_queue_full, 3)
    # The scaled machine runs the same workloads much faster, so demand per
    # cycle rises; congestion must still drop in both Table I queues.
    assert relieved.avg_l2_access_queue_full < baseline.avg_l2_access_queue_full
    assert relieved.avg_dram_queue_full < baseline.avg_dram_queue_full
