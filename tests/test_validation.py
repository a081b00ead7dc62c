"""Validation-report and claim-registry tests.

The registry's paper numbers, claim ids and band edges are pinned on
synthetic inputs; the full battery runs once on the tiny config to
verify it executes end to end as one deduplicated batch (claim verdicts
at tiny scale are informational — the authoritative run is the
benchmark harness on the default config).
"""

from types import SimpleNamespace

import pytest

from repro.core.congestion import CongestionReport
from repro.core.explorer import SECTION_IV_CONFIGS, ExplorationResult
from repro.core.latency_profile import LatencyPoint, LatencyProfile
from repro.core.metrics import RunMetrics
from repro.core.validation import (
    CLAIMS,
    COMPUTE_BOUND,
    MEMORY_BOUND,
    Check,
    ValidationReport,
    validate_reproduction,
)
from repro.runner import BatchRunner
from repro.sim.config import tiny_gpu
from repro.workloads.suite import PAPER_SUITE


def verdict(claim_id, result):
    return CLAIMS[claim_id].check(result).passed


class TestRegistry:
    def test_figure1_benchmark_sets(self):
        assert MEMORY_BOUND == ("cfd", "dwt2d", "nn", "sc", "lbm", "ss")
        assert COMPUTE_BOUND == "leukocyte"
        assert set(MEMORY_BOUND) | {COMPUTE_BOUND} <= set(PAPER_SUITE)

    def test_nine_claims_in_report_order(self):
        assert list(CLAIMS) == [
            "fig1_curves_fall",
            "fig1_compute_flat",
            "fig1_intercepts_high",
            "sec3_l2_congested",
            "sec3_dram_congested",
            "sec4_l2_dominates",
            "sec4_superadditive",
            "sec4_l1_backfires",
            "sec4_cache_beats_dram",
        ]
        for claim_id, claim in CLAIMS.items():
            assert claim.id == claim_id
            assert claim.section == claim_id.split("_")[0]


def curve(name, *points):
    """A Figure 1 profile from (latency, normalized IPC) pairs."""
    return LatencyProfile(benchmark=name, baseline=None, points=tuple(
        LatencyPoint(latency=l, ipc=n, normalized_ipc=n) for l, n in points))


class TestFigure1Bands:
    def test_monotonic_slack_is_five_percent(self):
        within = {"a": curve("a", (0, 1.0), (100, 1.05))}
        beyond = {"a": curve("a", (0, 1.0), (100, 1.06))}
        assert verdict("fig1_curves_fall", within)
        assert not verdict("fig1_curves_fall", beyond)

    def test_compute_peak_must_stay_below_1_5(self):
        flat = {COMPUTE_BOUND: curve(COMPUTE_BOUND, (0, 1.49), (800, 0.5))}
        peaked = {COMPUTE_BOUND: curve(COMPUTE_BOUND, (0, 1.5), (800, 0.5))}
        assert verdict("fig1_compute_flat", flat)
        assert not verdict("fig1_compute_flat", peaked)

    def test_every_intercept_must_exceed_ideal_l2(self):
        # (0, 2.0) -> (L, 0.0) crosses 1.0x at L / 2.
        high = {n: curve(n, (0, 2.0), (242, 0.0)) for n in MEMORY_BOUND}
        assert verdict("fig1_intercepts_high", high)
        at_ideal = dict(high, nn=curve("nn", (0, 2.0), (240, 0.0)))
        assert not verdict("fig1_intercepts_high", at_ideal)


def congestion(l2_full, dram_full):
    run = SimpleNamespace(
        l2_accessq=SimpleNamespace(full_fraction=l2_full),
        dram_schedq=SimpleNamespace(full_fraction=dram_full))
    return CongestionReport(runs={"a": run})


class TestSection3Bands:
    @pytest.mark.parametrize("full,passed", [
        (0.0999, False), (0.10, True), (0.46, True), (0.80, True),
        (0.8001, False),
    ])
    def test_queue_full_band_is_inclusive_10_to_80(self, full, passed):
        assert verdict("sec3_l2_congested", congestion(full, 0.4)) is passed
        assert verdict("sec3_dram_congested", congestion(0.4, full)) is passed

    def test_evidence_quotes_the_paper(self):
        check = CLAIMS["sec3_dram_congested"].check(congestion(0.4, 0.42))
        assert check.evidence == "DRAM sched queues full 42% (paper 39%)"


class _Run:
    """What the Section IV claims read from a run: its IPC."""

    def __init__(self, ipc):
        self.ipc = ipc

    speedup_over = RunMetrics.speedup_over


def exploration(**ipcs):
    """A one-benchmark Section IV result; baseline IPC is 1.0."""
    ipcs = {"baseline": 1.0, **ipcs}
    return ExplorationResult(
        runs={label: {"a": _Run(ipc)} for label, ipc in ipcs.items()},
        config_labels=tuple(ipcs), benchmarks=("a",))


PAPER_LIKE = dict(l1=0.75, l2=1.5, dram=1.25, **{"l1+l2": 2.0, "l2+dram": 2.0})


class TestSection4Claims:
    def test_paper_like_result_passes_every_claim(self):
        result = exploration(**PAPER_LIKE)
        for claim_id in CLAIMS:
            if claim_id.startswith("sec4"):
                assert verdict(claim_id, result), claim_id

    def test_l2_dominates_is_strict(self):
        assert not verdict(
            "sec4_l2_dominates", exploration(**dict(PAPER_LIKE, dram=1.5)))
        assert not verdict(
            "sec4_l2_dominates", exploration(**dict(PAPER_LIKE, l1=1.25)))

    def test_additive_combination_is_not_superadditive(self):
        additive = exploration(**dict(PAPER_LIKE, **{"l1+l2": 1.25}))
        assert not verdict("sec4_superadditive", additive)

    def test_unchanged_speed_is_not_a_backfire(self):
        assert not verdict(
            "sec4_l1_backfires", exploration(**dict(PAPER_LIKE, l1=1.0)))

    def test_cache_must_beat_dram_strictly(self):
        tie = exploration(**dict(PAPER_LIKE, dram=1.5, **{"l1+l2": 1.5}))
        assert not verdict("sec4_cache_beats_dram", tie)


class TestReportStructure:
    def test_all_pass(self):
        report = ValidationReport(checks=(Check("x", True, "e"),))
        assert report.passed
        assert report.failures == []
        assert "REPRODUCED" in report.to_table()

    def test_failure_detected(self):
        report = ValidationReport(
            checks=(Check("x", True, "e"), Check("y", False, "bad")))
        assert not report.passed
        assert [c.name for c in report.failures] == ["y"]
        assert "NOT REPRODUCED" in report.to_table()

    def test_table_lists_every_check(self):
        report = ValidationReport(
            checks=(Check("alpha", True, "1"), Check("beta", False, "2")))
        table = report.to_table()
        assert "alpha" in table and "beta" in table
        assert "PASS" in table and "FAIL" in table


LATENCIES = (0, 300, 800)


class TestFullBattery:
    @pytest.fixture(scope="class")
    def batches(self):
        return []

    @pytest.fixture(scope="class")
    def report(self, batches):
        real_run = BatchRunner.run

        def spy(runner, jobs):
            batches.append([job.key() for job in jobs])
            return real_run(runner, jobs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchRunner, "run", spy)
            return validate_reproduction(
                tiny_gpu(), iteration_scale=0.15, latencies=LATENCIES)

    def test_one_batch_with_no_job_twice(self, report, batches):
        [keys] = batches
        assert len(keys) == len(set(keys))
        # The Section IV matrix plus the magic-memory points: the
        # matrix's baselines also serve Figure 1 and Section III.
        assert len(keys) == len(PAPER_SUITE) * (
            len(SECTION_IV_CONFIGS) + len(LATENCIES))

    def test_all_nine_checks_present(self, report):
        assert [c.name for c in report.checks] == [
            "fig1_curves_fall",
            "fig1_compute_flat",
            "fig1_intercepts_high",
            "sec3_l2_congested",
            "sec3_dram_congested",
            "sec4_l2_dominates",
            "sec4_superadditive",
            "sec4_l1_backfires",
            "sec4_cache_beats_dram",
        ]

    def test_every_check_has_evidence(self, report):
        assert all(c.evidence for c in report.checks)

    def test_fig1_structural_checks_hold_even_at_tiny_scale(self, report):
        by_name = {c.name: c for c in report.checks}
        assert by_name["fig1_curves_fall"].passed
        assert by_name["fig1_compute_flat"].passed
