"""The cycle-driven simulation engine.

The engine owns an ordered list of components and advances them one cycle at
a time.  Component order within a cycle is fixed at registration time; the
GPU model registers components front-to-back (cores, interconnect, memory
partitions) so requests can traverse at most one hop per cycle in the
forward direction while responses ride the same discipline backwards — the
same one-hop-per-cycle contract GPGPU-Sim's queue-based model provides.

Termination is delegated to a ``done`` predicate (usually "all warps
retired") guarded by ``max_cycles``; exceeding the guard raises
:class:`~repro.errors.CycleLimitExceeded` so mis-calibrated experiments fail
loudly instead of spinning.

Every component is stepped on every core cycle; an event-horizon
fast-forward jumps windows in which *all* components sleep.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

from repro.errors import CycleLimitExceeded, SimulationError
from repro.sim.component import WAKE_NEVER, Component


class SimObserver(Protocol):
    """Structural type for :meth:`Simulator.attach_observer` targets."""

    def on_cycle(self, cycle: int) -> None: ...

    def on_finalize(self, cycle: int) -> None: ...


#: Default cycle budget for a simulation run.  Shared by
#: :meth:`Simulator.run`, :meth:`repro.gpu.GPU.run` and
#: :func:`repro.core.metrics.run_kernel` so every entry point fails at the
#: same, single place when an experiment is mis-calibrated.
DEFAULT_MAX_CYCLES = 5_000_000


class Simulator:
    """Owns the clock and the ordered component list."""

    def __init__(self) -> None:
        self.cycle: int = 0
        self._entries: list[Component] = []
        self._finalized = False
        #: The fast flag of the active :meth:`run`, so components
        #: registered mid-run still receive :meth:`set_fast_mode`.
        self._run_fast: bool | None = None
        #: Bound ``step`` / ``next_wake`` methods in registration order,
        #: built at the first step or jump after an :meth:`add` (late, so
        #: wrappers installed on a built GPU's components are the ones
        #: called); None until then.
        self._step_fns: list[Callable[[int], None]] | None = None
        self._wake_fns: list[Callable[[int], int | None]] | None = None
        #: Index of the component that vetoed the last fast-forward
        #: attempt; probed first, since a busy component usually stays
        #: busy, making the common no-jump case a single wake call.
        self._last_blocker: int = 0
        #: Do not re-attempt a fast-forward before this cycle.  Set after
        #: a failed attempt so sustained-activity stretches don't pay the
        #: wake-scan every cycle; skipping an attempt only delays a jump
        #: by a few naively-stepped cycles, which is result-neutral.
        self._ff_cooldown: int = 0
        #: Event-horizon fast-forward switch (see :meth:`run`).  On by
        #: default; auto-suspended while observers are attached because
        #: their ``on_cycle`` contract assumes every cycle fires.
        self.fast_forward_enabled: bool = True
        #: Cycles skipped by fast-forward jumps (diagnostic).
        self.cycles_fast_forwarded: int = 0
        #: Opt-in observers (e.g. the repro.analysis sanitizer); empty in
        #: normal runs so the per-cycle cost is one truthiness test.
        self._observers: list[SimObserver] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register ``component`` after those already added; returns it."""
        self._entries.append(component)
        self._step_fns = None
        self._wake_fns = None
        if self._run_fast is not None:
            component.set_fast_mode(self._run_fast)
        return component

    @property
    def components(self) -> list[Component]:
        """Registered components in step order."""
        return list(self._entries)

    def attach_observer(self, observer: SimObserver) -> None:
        """Register an observer called at cycle and finalize boundaries.

        An observer provides ``on_cycle(cycle)`` — invoked after every
        component has stepped, at the quiescent point between cycles — and
        ``on_finalize(cycle)`` — invoked once when the simulation
        finalizes.  Observers may raise (the sanitizer raises
        :class:`~repro.errors.SanitizerError` on an invariant violation);
        the exception propagates out of :meth:`step` / :meth:`run`.
        """
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _bind(self) -> list[Callable[[int], None]]:
        """Bind the components' ``step`` and ``next_wake`` methods."""
        steps = self._step_fns = [c.step for c in self._entries]
        self._wake_fns = [c.next_wake for c in self._entries]
        self._last_blocker = 0
        return steps

    def step(self) -> None:
        """Advance the simulation by one core cycle."""
        now = self.cycle
        steps = self._step_fns
        if steps is None:
            steps = self._bind()
        for step in steps:
            step(now)
        self.cycle = now + 1
        if self._observers:
            for observer in self._observers:
                observer.on_cycle(now)

    def run(
        self,
        done: Callable[[], bool],
        max_cycles: int = DEFAULT_MAX_CYCLES,
        drain: bool = True,
    ) -> int:
        """Run until ``done()`` is true; returns the final cycle count.

        With ``drain`` (the default) the run continues past ``done()`` until
        every component reports idle, so in-flight requests (e.g. stores
        still percolating to DRAM) finish and statistics intervals close at
        their true ends.  Raises :class:`CycleLimitExceeded` if the budget
        runs out first.
        """
        if self._finalized:
            raise SimulationError("simulator already finalized; build a new one")
        fast = self.fast_forward_enabled and not self._observers
        self._run_fast = fast
        for component in self._entries:
            component.set_fast_mode(fast)
        while not done():
            if self.cycle >= max_cycles:
                raise CycleLimitExceeded(max_cycles, "done() never satisfied")
            if fast and self._try_fast_forward(max_cycles):
                continue  # re-check the cycle budget at the new time
            self.step()
        finished_at = self.cycle
        if drain:
            while not all(c.is_idle() for c in self._entries):
                if self.cycle >= max_cycles:
                    raise CycleLimitExceeded(
                        max_cycles, "drain never completed"
                    )
                if fast and self._try_fast_forward(max_cycles):
                    continue
                self.step()
        self.finalize()
        return finished_at

    def _try_fast_forward(self, limit: int) -> bool:
        """Jump ``self.cycle`` to the components' joint event horizon.

        Returns True when time advanced.  The jump happens only when every
        component publishes a wake cycle strictly beyond ``self.cycle`` —
        then no component would change any state in the skipped window, so
        only the per-cycle counters need replaying, via
        :meth:`Component.fast_forward` with the window length.  Any
        ``None`` hint vetoes fast-forward for good.  The horizon is clamped
        to ``limit`` so a cycle-budget overrun fires at the same cycle as
        the naive loop.
        """
        now = self.cycle
        if now < self._ff_cooldown:
            return False
        if self._wake_fns is None:
            self._bind()
        fns = self._wake_fns
        horizon = WAKE_NEVER
        if fns:
            # Probe the last veto first: a component busy this cycle is
            # almost always busy the next, so the common no-jump case
            # costs one wake call instead of a full scan.
            blocker = self._last_blocker
            w = fns[blocker](now)
            if w is None:
                self.fast_forward_enabled = False
                return False
            if w <= now:
                self._ff_cooldown = now + 3
                return False
            horizon = w
            for i, wake in enumerate(fns):
                if i == blocker:
                    continue
                w = wake(now)
                if w is None:
                    self.fast_forward_enabled = False
                    return False
                if w <= now:
                    self._last_blocker = i
                    self._ff_cooldown = now + 3
                    return False
                if w < horizon:
                    horizon = w
        if horizon > limit:
            horizon = limit
        if horizon <= now:
            return False
        window = horizon - now
        for component in self._entries:
            component.fast_forward(window)
        self.cycles_fast_forwarded += window
        self.cycle = horizon
        return True

    def finalize(self) -> None:
        """Close statistics intervals on every component (idempotent)."""
        if self._finalized:
            return
        for component in self._entries:
            component.finalize(self.cycle)
        for observer in self._observers:
            observer.on_finalize(self.cycle)
        self._finalized = True
