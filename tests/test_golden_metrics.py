"""Golden metrics: pinned results for a fixed matrix of runs.

Every ``PAPER_SUITE`` benchmark at scale 0.1, seed 1, runs on ``tiny_gpu()``
under nine configurations that between them reach every simulator layer
and its alternatives (Section IV scaling, magic memory, ring topology,
GTO and FCFS schedulers, DRAM refresh, L1 write-back, TLP throttling).
Each run's JSON export is hashed and compared with
``tests/fixtures/golden_metrics.json``, so any change to any exported
metric of any run fails here and names the runs that moved.  The matrix
runs with the engine's fast-forward on and off against the same fixture:
both modes must reproduce the recorded results, not merely each other.

The tiny matrix never fills an L2 miss queue (its 8 L2 MSHRs fill
first), so one ``small`` run that does is pinned beside the fixture by
its own digest, recorded from the model before the L2 and DRAM stall
gates existed.

The fixture records the model's behaviour; a refactor must pass it
unchanged.  Only a deliberate change to the model's behaviour may rewrite
it, by running this file as a script::

    PYTHONPATH=src python tests/test_golden_metrics.py > tests/fixtures/golden_metrics.json

and such a change updates ``CONGESTED_DIGEST`` by hand.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.export import runs_to_text
from repro.core.metrics import run_kernel
from repro.core.profile import config_for_label
from repro.sim.config import small_gpu, tiny_gpu
from repro.workloads.suite import PAPER_SUITE, get_benchmark

FIXTURE = Path(__file__).parent / "fixtures" / "golden_metrics.json"
SCALE = 0.1
SEED = 1
#: ``small`` baseline ``nn`` at scale 0.03: L2 banks stall on a full
#: miss queue about 200 times.
CONGESTED_DIGEST = "545e6304239870ae"


def _variants():
    base = tiny_gpu()
    return {
        "baseline": config_for_label(base, "baseline"),
        "l2+dram": config_for_label(base, "l2+dram"),
        "magic200": base.with_magic_memory(200),
        "ring": replace(base, icnt=replace(base.icnt, topology="ring")),
        "gto": replace(base, core=replace(base.core, scheduler="gto")),
        "fcfs": replace(base, dram=replace(base.dram, scheduler="fcfs")),
        "refresh": replace(base, dram=replace(
            base.dram, refresh_interval=500, refresh_cycles=20)),
        "l1_write_back": replace(
            base, l1=replace(base.l1, write_policy="write_back")),
        "warp_limit2": replace(
            base, core=replace(base.core, active_warp_limit=2)),
    }


def golden_digests(fast_forward=True):
    """``"<variant>/<benchmark>"`` -> sha256 prefix of the run's JSON export."""
    digests = {}
    for variant, config in _variants().items():
        for name in PAPER_SUITE:
            run = run_kernel(config, get_benchmark(name, SCALE), seed=SEED,
                             fast_forward=fast_forward)
            digests[f"{variant}/{name}"] = _digest(run)
    return digests


def _digest(run):
    text = runs_to_text([run], "json")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("fast_forward", [True, False])
def test_metrics_match_golden_fixture(fast_forward):
    expected = json.loads(FIXTURE.read_text())
    actual = golden_digests(fast_forward)
    assert sorted(actual) == sorted(expected)
    moved = sorted(key for key in expected if actual[key] != expected[key])
    assert not moved, f"{len(moved)} run(s) changed metrics: {moved}"



@pytest.mark.parametrize("fast_forward", [True, False])
def test_congested_run_matches_pinned_digest(fast_forward):
    config = config_for_label(small_gpu(), "baseline")
    run = run_kernel(config, get_benchmark("nn", 0.03), seed=SEED,
                     fast_forward=fast_forward)
    assert _digest(run) == CONGESTED_DIGEST

if __name__ == "__main__":
    print(json.dumps(golden_digests(), indent=2, sort_keys=True))
