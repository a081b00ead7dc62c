"""Simulation engine tests."""

import pytest

from repro.errors import CycleLimitExceeded, SimulationError
from repro.sim.component import Component
from repro.sim.engine import Simulator


class Ticker(Component):
    """Records the cycles at which it was stepped."""

    def __init__(self, idle_after=None):
        self.ticks = []
        self.idle_after = idle_after
        self.finalized_at = None

    def step(self, now):
        self.ticks.append(now)

    def is_idle(self):
        if self.idle_after is None:
            return True
        return len(self.ticks) >= self.idle_after

    def finalize(self, now):
        self.finalized_at = now


class TestSimulator:
    def test_step_order_is_registration_order(self):
        sim = Simulator()
        order = []

        class Probe(Component):
            def __init__(self, tag):
                self.tag = tag

            def step(self, now):
                order.append(self.tag)

        sim.add(Probe("a"))
        sim.add(Probe("b"))
        sim.step()
        assert order == ["a", "b"]

    def test_run_until_done(self):
        sim = Simulator()
        t = Ticker()
        sim.add(t)
        finished = sim.run(lambda: len(t.ticks) >= 5)
        assert finished == 5

    def test_run_drains_to_idle(self):
        sim = Simulator()
        t = Ticker(idle_after=10)
        sim.add(t)
        finished = sim.run(lambda: len(t.ticks) >= 3)
        assert finished == 3
        assert sim.cycle == 10  # drained past "done"
        assert t.finalized_at == 10

    def test_cycle_limit_raises(self):
        sim = Simulator()
        sim.add(Ticker())
        with pytest.raises(CycleLimitExceeded):
            sim.run(lambda: False, max_cycles=50)

    def test_finalize_idempotent_and_run_after_finalize_rejected(self):
        sim = Simulator()
        t = Ticker()
        sim.add(t)
        sim.run(lambda: True)
        sim.finalize()
        with pytest.raises(SimulationError):
            sim.run(lambda: True)

    def test_add_after_start_resets_fast_path(self):
        sim = Simulator()
        a = Ticker()
        sim.add(a)
        sim.step()
        b = Ticker()
        sim.add(b)
        sim.step()
        assert b.ticks == [1]


class TestComponentDefaults:
    def test_base_component_contract(self):
        c = Component()
        with pytest.raises(NotImplementedError):
            c.step(0)
        assert c.is_idle()
        c.finalize(0)  # no-op by default

    def test_components_property_in_order(self):
        sim = Simulator()
        a, b = Ticker(), Ticker()
        sim.add(a)
        sim.add(b)
        assert sim.components == [a, b]
