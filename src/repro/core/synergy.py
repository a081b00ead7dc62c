"""Synergistic-vs-isolated scaling analysis.

The paper's closing argument: the speedup from scaling two adjacent levels
together exceeds the *sum* of the individual speedups ("average speedup of
69% and 76% on increasing the combined bandwidth of L1-L2 and L2-DRAM
respectively, which is greater than the respective sum of the individual
gains"), because relieving one level in isolation simply moves the
congestion elsewhere.

:func:`analyze_synergy` computes, per benchmark and on average, the gain
of each combination against the sum of its parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.explorer import ExplorationResult
from repro.errors import ReproError
from repro.utils.tables import render_table


@dataclass(frozen=True)
class SynergyPair:
    """One combination measured against the sum of its parts."""

    combined_label: str
    part_labels: tuple[str, ...]
    #: Average gain of the combination (e.g. 0.69 for +69%).
    combined_gain: float
    #: Sum of the parts' average gains.
    sum_of_parts: float

    @property
    def synergy(self) -> float:
        """Extra gain beyond additive (> 0 means super-additive)."""
        return self.combined_gain - self.sum_of_parts

    @property
    def is_super_additive(self) -> bool:
        return self.synergy > 0.0


@dataclass(frozen=True)
class SynergyAnalysis:
    """Synergy across the Section IV combinations."""

    pairs: tuple[SynergyPair, ...]

    @property
    def all_super_additive(self) -> bool:
        return all(p.is_super_additive for p in self.pairs)

    def to_table(self) -> str:
        rows = [
            [
                p.combined_label,
                " + ".join(p.part_labels),
                f"{p.combined_gain:+.0%}",
                f"{p.sum_of_parts:+.0%}",
                f"{p.synergy:+.1%}",
            ]
            for p in self.pairs
        ]
        return render_table(
            ["combined", "parts", "combined gain", "sum of parts", "synergy"],
            rows,
            title="Synergistic vs isolated bandwidth scaling",
        )


#: The paper's two combinations and their constituent levels.
DEFAULT_PAIRS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("l1+l2", ("l1", "l2")),
    ("l2+dram", ("l2", "dram")),
)


def analyze_synergy(
    result: ExplorationResult,
    pairs: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_PAIRS,
) -> SynergyAnalysis:
    """Compare each combined configuration with the sum of its parts."""
    out = []
    for combined_label, part_labels in pairs:
        missing = [
            label
            for label in (combined_label, *part_labels)
            if label not in result.runs
        ]
        if missing:
            raise ReproError(
                f"exploration result lacks configurations {missing}; run "
                "explore_design_space with the Section IV matrix first"
            )
        out.append(
            SynergyPair(
                combined_label=combined_label,
                part_labels=part_labels,
                combined_gain=result.average_gain(combined_label),
                sum_of_parts=sum(
                    result.average_gain(label) for label in part_labels
                ),
            )
        )
    return SynergyAnalysis(pairs=tuple(out))
