"""Shared fixtures for the experiment-regeneration benchmarks.

Each benchmark module regenerates one artifact of the paper (a figure,
a table, or a reported aggregate).  All experiments run on the reduced-
scale baseline (``small_gpu``); the iteration scale can be adjusted with
the ``REPRO_BENCH_SCALE`` environment variable (default 0.5 — halves each
kernel's iteration count to keep the full suite's wall time reasonable
while leaving the congestion behaviour intact).

Results are printed AND written to ``benchmarks/results/*.txt`` so the
regenerated artifacts survive pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import small_gpu
from repro.core.explorer import explore_design_space

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Iteration scale for every experiment (env-overridable).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE


@pytest.fixture(scope="session")
def seed() -> int:
    return SEED


@pytest.fixture(scope="session")
def baseline_config():
    return small_gpu()


@pytest.fixture(scope="session")
def save_report():
    """Writer for regenerated artifacts: save_report(name, text)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> pathlib.Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}] written to {path}\n{text}")
        return path

    return _save


_EXPLORATION_CACHE: dict = {}


@pytest.fixture(scope="session")
def section_iv_exploration(baseline_config):
    """The Section IV experiment matrix, computed once per session."""
    key = (SCALE, SEED)
    if key not in _EXPLORATION_CACHE:
        _EXPLORATION_CACHE[key] = explore_design_space(
            baseline_config, iteration_scale=SCALE, seed=SEED)
    return _EXPLORATION_CACHE[key]
