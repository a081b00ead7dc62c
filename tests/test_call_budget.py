"""Call budget of the per-cycle path.

The simulator's host speed is mostly Python call overhead: every stepped
cycle calls each awake component, and each call into a trivial accessor
(a queue's room test, an epoch sum, a timestamp setter) costs as much as
the work it guards.  This test counts the Python-level calls into
``repro`` made by one congested run — the ``small`` baseline ``nn`` run
that ``test_golden_metrics.py`` pins — and fails when the count grows
past the budget.  Unlike a timing gate it reads the same on a slow or a
loaded host, and the count is exact: the simulation is deterministic.

The budget sits under 10% above the count of the code it was set on
(132,217 calls on CPython 3.11; 3.12 inlines comprehensions, so its count
is lower).  A change that puts calls back on the per-cycle path fails
here; a change that removes more should lower the budget.
"""

import sys
from pathlib import Path

import repro
from repro.core.metrics import run_kernel
from repro.core.profile import config_for_label
from repro.sim.config import small_gpu
from repro.workloads.suite import get_benchmark

CALL_BUDGET = 145_000


def count_repro_calls(fn) -> int:
    """Python ``call`` events whose code lives in the ``repro`` package."""
    root = str(Path(repro.__file__).parent)
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_congested_run_stays_within_call_budget():
    config = config_for_label(small_gpu(), "baseline")
    kernel = get_benchmark("nn", 0.03)
    calls = count_repro_calls(lambda: run_kernel(config, kernel, seed=1))
    # Guard against counting nothing (e.g. a path mismatch).
    assert calls > 10_000
    assert calls <= CALL_BUDGET, (
        f"{calls} calls into repro, budget {CALL_BUDGET}")
