"""E1/E2 — Figure 1: performance variation with increasing L1 miss latency.

Regenerates the paper's latency-tolerance profile for the full suite:
IPC under a fixed-latency memory system (x = 0..800 cycles), normalized
to the true baseline.  Asserts the paper's two observations:

1. baseline performance is far from the low-latency plateau for the
   memory-intensive benchmarks (normalized IPC at latency 0 well above 1);
2. the 1.0x intercept — the effective baseline latency — lies above the
   unloaded L2 round trip (~120 cy) for every memory-bound benchmark, and
   above the unloaded DRAM round trip for the most congested ones.
"""

import pytest

from repro import PAPER_SUITE
from repro.core.latency_profile import (
    IDEAL_DRAM_LATENCY,
    REPORT_LATENCIES,
    profile_latency_suite,
)
from repro.core.report import render_figure1
from repro.core.validation import CLAIMS, MEMORY_BOUND


@pytest.fixture(scope="module")
def fig1_profiles(baseline_config, scale, seed):
    """The whole suite's Figure 1 curves, run once as one batch."""
    return profile_latency_suite(
        baseline_config, PAPER_SUITE, REPORT_LATENCIES, iteration_scale=scale,
        seed=seed)


@pytest.mark.benchmark(group="fig1")
def test_fig1_latency_tolerance(benchmark, fig1_profiles, save_report):
    profiles = benchmark.pedantic(
        lambda: fig1_profiles, rounds=1, iterations=1)
    save_report("fig1_latency_tolerance", render_figure1(profiles))

    by_name = {p.benchmark: p for p in profiles}
    for profile in profiles:
        benchmark.extra_info[f"{profile.benchmark}_peak"] = round(
            profile.peak_normalized_ipc, 2)
        intercept = profile.intercept_latency()
        benchmark.extra_info[f"{profile.benchmark}_intercept"] = (
            None if intercept is None else round(intercept))
    # Shape: every curve is non-increasing in latency (small tolerance
    # for simulation noise).
    assert CLAIMS["fig1_curves_fall"].check(by_name).passed

    # Observation 1: memory-bound benchmarks sit far from their plateau.
    for name in MEMORY_BOUND:
        assert by_name[name].peak_normalized_ipc > 2.0, name
    # The compute-bound benchmark barely moves.
    assert CLAIMS["fig1_compute_flat"].check(by_name).passed

    # Observation 2: effective baseline latencies exceed the unloaded L2
    # latency for all memory-bound benchmarks...
    assert CLAIMS["fig1_intercepts_high"].check(by_name).passed
    # ...and exceed the unloaded DRAM latency for most (congestion).
    beyond_dram = sum(
        1 for name in MEMORY_BOUND
        if by_name[name].intercept_latency() > IDEAL_DRAM_LATENCY
    )
    assert beyond_dram >= len(MEMORY_BOUND) - 1


@pytest.mark.benchmark(group="fig1")
def test_fig1_intercept_matches_measured_latency(benchmark, fig1_profiles):
    """Methodology self-check: the 1.0x intercept independently estimates
    the baseline's measured average L1 miss latency."""
    by_name = {p.benchmark: p for p in fig1_profiles}
    profile = benchmark.pedantic(
        lambda: by_name["sc"], rounds=1, iterations=1)
    intercept = profile.intercept_latency()
    measured = profile.baseline_avg_miss_latency
    benchmark.extra_info["intercept"] = round(intercept)
    benchmark.extra_info["measured_avg_miss_latency"] = round(measured)
    assert abs(intercept - measured) / measured < 0.35
