"""Whole-program static verifier (REP001-REP012).

Extends the classic per-file AST lint into a multi-pass verifier with
cross-file resolution, inline suppressions, a checked-in baseline and
JSON/SARIF reporting.  Pass families:

* **Component contracts** (REP006-008,
  :mod:`repro.analysis.static.contracts`) — every
  :class:`~repro.sim.component.Component` subclass honors the wake-hint
  protocol the engine's fast-forward depends on.
* **Determinism** (REP009-011,
  :mod:`repro.analysis.static.determinism`) — no unordered iteration,
  ``id()`` keys or order-sensitive float reductions feeding metrics or
  dispatch.
* **Layering** (REP012, :mod:`repro.analysis.static.layering`) — the
  module import graph respects the architecture tower and is acyclic.

Entry points: ``repro lint --static`` and ``scripts/lint.py --static``;
programmatic use via :func:`analyze_paths` / :func:`run_static`.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.static.baseline import Baseline, BaselineEntry
    from repro.analysis.static.finding import RULES, Finding, Rule
    from repro.analysis.static.runner import StaticReport, analyze_paths, run_static

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.static.baseline": ("Baseline", "BaselineEntry"),
    "repro.analysis.static.finding": ("Finding", "RULES", "Rule"),
    "repro.analysis.static.runner": ("StaticReport", "analyze_paths", "run_static"),
})
