"""Report-rendering tests (paper-value constants and formatting).

The Section III/IV paper values live in the claim registry
(repro.core.validation); they are pinned here with the Section II ones.
"""

import pytest

from repro.core.latency_profile import (
    IDEAL_DRAM_LATENCY,
    IDEAL_L2_LATENCY,
    LatencyPoint,
    LatencyProfile,
)
from repro.core.metrics import run_kernel
from repro.core.report import render_figure1
from repro.core.validation import (
    PAPER_AVG_GAINS,
    PAPER_DRAM_SCHEDQ_FULL,
    PAPER_L2_ACCESSQ_FULL,
)
from repro.sim.config import tiny_gpu
from repro.workloads.suite import get_benchmark


class TestPaperConstants:
    def test_section_iv_gains_as_published(self):
        assert PAPER_AVG_GAINS == {
            "l1": 0.04, "l2": 0.59, "dram": 0.11,
            "l1+l2": 0.69, "l2+dram": 0.76,
        }

    def test_section_iii_fractions_as_published(self):
        assert PAPER_L2_ACCESSQ_FULL == 0.46
        assert PAPER_DRAM_SCHEDQ_FULL == 0.39

    def test_section_ii_ideal_latencies_as_published(self):
        assert IDEAL_L2_LATENCY == 120
        assert IDEAL_DRAM_LATENCY == 220  # 120 + ~100 additional via L2


class TestFigureRendering:
    def make_profile(self, name="bench"):
        baseline = run_kernel(tiny_gpu(), get_benchmark("leukocyte", 0.1))
        points = tuple(
            LatencyPoint(latency=l, ipc=2.0 - l / 800, normalized_ipc=(2.0 - l / 800))
            for l in (0, 400, 800)
        )
        return LatencyProfile(benchmark=name, baseline=baseline, points=points)

    def test_render_contains_plot_and_table(self):
        text = render_figure1([self.make_profile()])
        assert "Fig. 1" in text
        assert "normalized to baseline" in text
        assert "intercept lat" in text
        assert "~120" in text and "~220" in text

    def test_render_multiple_series(self):
        text = render_figure1(
            [self.make_profile("a"), self.make_profile("b")])
        assert "a" in text and "b" in text

    def test_intercept_column_formats_none(self):
        baseline = run_kernel(tiny_gpu(), get_benchmark("leukocyte", 0.1))
        flat = LatencyProfile(
            benchmark="flat",
            baseline=baseline,
            points=(
                LatencyPoint(0, 2.0, 2.0),
                LatencyPoint(800, 1.8, 1.8),  # never crosses 1.0
            ),
        )
        text = render_figure1([flat])
        assert ">max" in text
