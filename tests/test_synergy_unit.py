"""Direct unit tests for the synergy analysis (no simulation)."""

import pytest

from repro.core.synergy import (
    DEFAULT_PAIRS,
    SynergyAnalysis,
    SynergyPair,
    analyze_synergy,
)
from repro.errors import ReproError


class FakeResult:
    """Stands in for an ExplorationResult with fixed average gains."""

    def __init__(self, gains):
        self._gains = gains
        self.runs = {label: {} for label in ("baseline", *gains)}

    def average_gain(self, label):
        return self._gains[label]


class TestSynergyPair:
    def test_super_additive(self):
        pair = SynergyPair("l1+l2", ("l1", "l2"), 0.7, 0.6)
        assert pair.synergy == pytest.approx(0.1)
        assert pair.is_super_additive

    def test_sub_additive(self):
        pair = SynergyPair("l1+l2", ("l1", "l2"), 0.5, 0.6)
        assert not pair.is_super_additive


class TestAnalyze:
    def test_paper_numbers_are_super_additive(self):
        """The published averages themselves satisfy the synergy claim."""
        result = FakeResult({
            "l1": 0.04, "l2": 0.59, "dram": 0.11,
            "l1+l2": 0.69, "l2+dram": 0.76,
        })
        analysis = analyze_synergy(result)
        assert analysis.all_super_additive
        by_label = {p.combined_label: p for p in analysis.pairs}
        assert by_label["l1+l2"].synergy == pytest.approx(0.06)
        assert by_label["l2+dram"].synergy == pytest.approx(0.06)

    def test_custom_pairs(self):
        result = FakeResult({"l1": 0.1, "dram": 0.1, "l1+l2": 0.5})
        analysis = analyze_synergy(
            result, pairs=(("l1+l2", ("l1", "dram")),))
        assert analysis.pairs[0].sum_of_parts == pytest.approx(0.2)

    def test_missing_label_raises(self):
        result = FakeResult({"l1": 0.1})
        with pytest.raises(ReproError):
            analyze_synergy(result)

    def test_default_pairs_match_paper(self):
        assert DEFAULT_PAIRS == (
            ("l1+l2", ("l1", "l2")),
            ("l2+dram", ("l2", "dram")),
        )

    def test_table_rendering(self):
        analysis = SynergyAnalysis(pairs=(
            SynergyPair("a+b", ("a", "b"), 0.5, 0.3),
        ))
        table = analysis.to_table()
        assert "a+b" in table and "+20.0%" in table
