"""Correctness tooling: simulator sanitizer and repo-specific lint pass.

Two independent halves, both enforcing the model's contracts mechanically
rather than trusting any single implementation:

* :class:`Sanitizer` (``repro.analysis.sanitizer``) — a dynamic checker
  attachable to a running :class:`~repro.sim.engine.Simulator` that proves,
  per cycle or per epoch, request conservation, timestamp monotonicity,
  MSHR integrity, queue bounds and forward progress.  Violations raise
  :class:`~repro.errors.SanitizerError` with a full diagnostic dump.
* The lint pass (``repro.analysis.lint``) — AST rules over ``src/`` that
  keep the simulator deterministic and its failure modes loud (no global
  RNG or wall-clock reads, no bare ``assert`` for protocol violations, all
  exceptions under :class:`~repro.errors.ReproError`, hot-path dataclasses
  slotted, no frozen-config mutation).
* The whole-program static verifier (``repro.analysis.static``) — extends
  the lint into cross-file passes: Component wake-hint/hook contracts
  (REP006-008), determinism hazards (REP009-011) and architecture
  layering over the import graph (REP012), with inline suppressions, a
  checked-in baseline and JSON/SARIF output.  Run as
  ``repro lint --static``.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.lint import LintViolation, lint_paths, lint_source
    from repro.analysis.sanitizer import Sanitizer
    from repro.analysis.static.finding import Finding
    from repro.analysis.static.runner import StaticReport, analyze_paths

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.lint": ("LintViolation", "lint_paths", "lint_source"),
    "repro.analysis.sanitizer": ("Sanitizer",),
    "repro.analysis.static.finding": ("Finding",),
    "repro.analysis.static.runner": ("StaticReport", "analyze_paths"),
})
