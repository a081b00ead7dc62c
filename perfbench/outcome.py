"""What one workload run measured, and the operations it checked."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Outcome:
    """Metrics of one run plus its operation and correctness tally."""

    #: End-to-end metrics listed in BENCHMARK.json, by name.
    e2e: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of the traced run, by name.
    layers: dict[str, float] = field(default_factory=dict)
    #: Further figures for the human-readable report: name -> (value, unit).
    report: dict[str, tuple[Any, str]] = field(default_factory=dict)
    #: Sample counts behind the medians and percentiles.
    samples: dict[str, int] = field(default_factory=dict)
    #: Job-level spans of the traced run.
    spans: list[dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok
