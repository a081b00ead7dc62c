"""General-purpose utilities: statistics accumulators, means, tables, plots."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.utils.means import arithmetic_mean, geometric_mean, harmonic_mean
    from repro.utils.stats import Accumulator, Histogram, IntervalTracker, RatioStat
    from repro.utils.tables import render_table
    from repro.utils.ascii_plot import line_plot

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.utils.stats": (
        "Accumulator", "Histogram", "IntervalTracker", "RatioStat",
    ),
    "repro.utils.means": ("arithmetic_mean", "geometric_mean", "harmonic_mean"),
    "repro.utils.tables": ("render_table",),
    "repro.utils.ascii_plot": ("line_plot",),
})
