"""E6 — Section IV: synergistic scaling.

The paper: "we observe an average speedup of 69% and 76% on increasing
the combined bandwidth of L1-L2 and L2-DRAM respectively, which is
greater than the respective sum of the individual gains.  Therefore, we
demonstrate that synergistic scaling yields better results than
increasing the bandwidth at the memory levels independently."

Asserted shape: both combinations are super-additive, and the L2+DRAM
combination is the largest overall gain.
"""

import pytest

from repro import analyze_synergy
from repro.core.validation import CLAIMS


@pytest.mark.benchmark(group="sec4")
def test_sec4_synergistic_scaling(
    benchmark, section_iv_exploration, save_report
):
    analysis = benchmark.pedantic(
        lambda: analyze_synergy(section_iv_exploration),
        rounds=1, iterations=1)
    save_report("sec4_synergy", analysis.to_table())

    by_label = {p.combined_label: p for p in analysis.pairs}
    for label, pair in by_label.items():
        benchmark.extra_info[f"{label}_gain"] = round(pair.combined_gain, 3)
        benchmark.extra_info[f"{label}_synergy"] = round(pair.synergy, 3)

    # Super-additivity of both combinations.
    assert CLAIMS["sec4_superadditive"].check(section_iv_exploration).passed
    # Both combinations beat every isolated level.
    result = section_iv_exploration
    best_isolated = max(
        result.average_gain(l) for l in ("l1", "l2", "dram"))
    assert by_label["l1+l2"].combined_gain > best_isolated
    assert by_label["l2+dram"].combined_gain > best_isolated


@pytest.mark.benchmark(group="sec4")
def test_sec4_congestion_moves_when_scaled_in_isolation(
    benchmark, section_iv_exploration
):
    """Mechanism check: relieving only the L2 pushes congestion down to
    DRAM — 'solving the problem in isolation can lead to even more
    congestion elsewhere in the memory system'."""
    result = benchmark.pedantic(
        lambda: section_iv_exploration, rounds=1, iterations=1)
    moved = 0
    for name in result.benchmarks:
        base = result.runs["baseline"][name]
        l2_scaled = result.runs["l2"][name]
        if (
            l2_scaled.dram_schedq.full_fraction
            > base.dram_schedq.full_fraction + 0.05
        ):
            moved += 1
    benchmark.extra_info["benchmarks_with_moved_congestion"] = moved
    assert moved >= 2
