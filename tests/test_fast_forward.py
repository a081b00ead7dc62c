"""Event-horizon fast-forward determinism suite.

The optimisation contract is *byte identity*: a run with fast-forward
enabled must produce exactly the same :class:`RunMetrics` — cycles,
instructions, IPC, every per-queue ``full_fraction`` — as the naive
per-cycle loop, on every benchmark, under magic memory, for any seed and
for both warp schedulers.  These tests are the lock on that contract.

Engine-level semantics (wake hints, tick replay, observer gating) are
covered on hand-built components below the workload sweep.
"""

import pytest

from repro.analysis import Sanitizer
from repro.core.metrics import run_kernel
from repro.gpu import GPU
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.engine import Simulator
from repro.sim.config import tiny_gpu
from repro.workloads.suite import BENCHMARKS, get_benchmark

SCALE = 0.2


def _pair(config, name, seed=1, **kwargs):
    fast = run_kernel(
        config, get_benchmark(name, SCALE), seed=seed, **kwargs)
    naive = run_kernel(
        config, get_benchmark(name, SCALE), seed=seed,
        fast_forward=False, **kwargs)
    return fast, naive


class TestSuiteDeterminism:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("seed", (1, 2))
    def test_identical_metrics(self, name, seed):
        fast, naive = _pair(tiny_gpu(), name, seed=seed)
        assert fast == naive

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_identical_metrics_magic_memory(self, name):
        fast, naive = _pair(tiny_gpu().with_magic_memory(200), name)
        assert fast == naive

    @pytest.mark.parametrize("name", ("leukocyte", "sc"))
    def test_identical_metrics_gto_scheduler(self, name):
        """GTO bypasses the LRR burst fast paths; identity must still hold."""
        from dataclasses import replace

        base = tiny_gpu()
        config = replace(base, core=replace(base.core, scheduler="gto"))
        fast, naive = _pair(config, name)
        assert fast == naive

    def test_fast_forward_actually_engages(self):
        """The compute-bound benchmark must see real jumps, not a no-op."""
        gpu = GPU(tiny_gpu(), get_benchmark("leukocyte", SCALE))
        gpu.run(max_cycles=500_000)
        assert gpu.sim.cycles_fast_forwarded > 0


class TestObserverGating:
    def test_observer_suspends_fast_forward(self):
        """Observers assume on_cycle fires every cycle: attaching one must
        force the naive loop (no jumps), while leaving results identical."""
        plain = GPU(tiny_gpu(), get_benchmark("sc", SCALE))
        plain.run(max_cycles=500_000)
        observed = GPU(tiny_gpu(), get_benchmark("sc", SCALE))
        Sanitizer.attach(observed, interval=1)
        observed.run(max_cycles=500_000)
        assert observed.sim.cycles_fast_forwarded == 0
        assert observed.cycles == plain.cycles
        assert observed.instructions == plain.instructions

    def test_disabled_flag_forces_naive_loop(self):
        gpu = GPU(tiny_gpu(), get_benchmark("leukocyte", SCALE))
        gpu.sim.fast_forward_enabled = False
        gpu.run(max_cycles=500_000)
        assert gpu.sim.cycles_fast_forwarded == 0


class _Sleeper(Component):
    """Wakes at fixed cycles; counts real steps and replayed ticks."""

    def __init__(self, wakes):
        self.wakes = sorted(wakes)
        self.stepped = []
        self.replayed = 0

    def step(self, now):
        self.stepped.append(now)

    def next_wake(self, now):
        for wake in self.wakes:
            if wake >= now:
                return wake
        return WAKE_NEVER

    def fast_forward(self, cycles):
        self.replayed += cycles


class TestEngineSemantics:
    def test_jump_lands_on_joint_horizon(self):
        sim = Simulator()
        a = sim.add(_Sleeper([0, 10]))
        b = sim.add(_Sleeper([0, 7]))
        sim.run(lambda: sim.cycle >= 7, drain=False)
        # Cycle 0 steps naively (both wake there); after the retry
        # cooldown the engine jumps straight to 7 — the earlier of the two
        # horizons — never to a's later wake at 10.
        assert sim.cycle == 7
        assert sim.cycles_fast_forwarded > 0
        assert a.stepped == b.stepped  # lockstep: same naive cycles
        assert a.replayed == b.replayed == 7 - len(a.stepped)

    def test_replay_plus_steps_cover_every_cycle(self):
        sim = Simulator()
        s = sim.add(_Sleeper([0, 5, 11]))
        sim.run(lambda: sim.cycle >= 11, drain=False)
        assert len(s.stepped) + s.replayed == 11

    def test_none_hint_disables_fast_forward_for_good(self):
        sim = Simulator()
        hinted = sim.add(_Sleeper([0, 50]))
        unhinted = sim.add(_Sleeper([0, 50]))
        unhinted.next_wake = lambda now: None
        sim.run(lambda: sim.cycle >= 50, drain=False)
        assert sim.fast_forward_enabled is False
        assert hinted.replayed == 0  # every cycle stepped naively
        assert len(hinted.stepped) == 50

    def test_budget_overrun_fires_at_naive_cycle(self):
        from repro.errors import CycleLimitExceeded

        sim = Simulator()
        sim.add(_Sleeper([0, 10_000]))
        with pytest.raises(CycleLimitExceeded):
            sim.run(lambda: False, max_cycles=100)
        assert sim.cycle == 100  # horizon clamped to the budget

    def test_component_added_mid_run_gets_fast_mode(self):
        """add() after run() started must propagate the active fast flag
        (components cache burst state keyed on it) and step the newcomer
        from the next cycle on."""
        sim = Simulator()
        seen = []

        class _Recorder(_Sleeper):
            def set_fast_mode(self, enabled):
                seen.append(enabled)

        recorder = _Recorder([4])
        trigger = sim.add(_Sleeper([0, 3]))
        original = trigger.step

        def add_late(now):
            original(now)
            if now == 3:
                sim.add(recorder)

        trigger.step = add_late
        sim.run(lambda: sim.cycle >= 6, drain=False)
        assert seen == [True]
        assert 4 in recorder.stepped
