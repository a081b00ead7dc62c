"""E7 — Section IV: isolated L1 scaling can be counter-productive.

The paper: "increasing the L1 bandwidth by increasing the MSHRs to handle
more outstanding misses can lead to performance degradation due to an
even higher congestion between L1 and L2.  However, matching the
increased bandwidth demand of L1 at L2 significantly improves
performance."

Asserted shape: at least one benchmark slows down under L1-alone scaling,
and for those benchmarks the L1+L2 combination recovers (and beats) the
baseline.
"""

import pytest

from repro.utils.tables import render_table
from repro.core.validation import CLAIMS


@pytest.mark.benchmark(group="sec4")
def test_sec4_l1_counterproductive(
    benchmark, section_iv_exploration, save_report
):
    result = benchmark.pedantic(
        lambda: section_iv_exploration, rounds=1, iterations=1)

    degraded = result.degraded_benchmarks("l1")
    rows = [
        [name,
         f"{result.speedup('l1', name):.3f}x",
         f"{result.speedup('l1+l2', name):.3f}x"]
        for name in result.benchmarks
    ]
    save_report(
        "sec4_l1_counterproductive",
        render_table(
            ["benchmark", "L1 alone", "L1+L2"], rows,
            title="Counter-productive isolated L1 scaling "
                  f"(degraded: {', '.join(degraded) or 'none'})"))
    benchmark.extra_info["degraded"] = ",".join(degraded)

    # The counter-productive case exists...
    assert CLAIMS["sec4_l1_backfires"].check(result).passed
    # ...but matching the L1 demand at the L2 recovers the loss.
    for name in degraded:
        assert result.speedup("l1+l2", name) >= result.speedup("l1", name)
    assert result.average_gain("l1+l2") > 0.2
