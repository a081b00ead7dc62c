"""Component protocol for the cycle-driven simulator.

A component is anything stepped once per core cycle.  The engine calls
:meth:`Component.step` with the current cycle; the component performs one
cycle of work — popping input queues, advancing pipelines, pushing output
queues — and returns.  Back-pressure is expressed
purely through finite queues: a component that cannot push its output simply
leaves the item where it is and retries on a later cycle.

Components also expose :meth:`finalize` (close open statistics intervals)
and :meth:`is_idle` (used by the engine to detect global quiescence and by
tests to assert drained state).

Introspection
-------------
The ``sample_*`` hooks let the :mod:`repro.telemetry` time-series probe
and the :mod:`repro.analysis` sanitizer enumerate a component's
instruments without knowing its concrete type.  Each yields
``(label, thing)`` pairs where the label names the *family* the
instrument belongs to (``"l2_accessq"``, ``"l1_mshr"``,
``"instructions"``), so the probe can aggregate the instances living on
different components into one per-window series; the sanitizer reads
every bounded queue (:meth:`sample_queues`) and MSHR table
(:meth:`sample_mshrs`) and ignores the labels.  ``sample_counters`` yields
*cumulative monotone* counters; the probe reports their per-window
deltas.  :meth:`inspect_inflight` additionally lists every request
currently travelling through the component's private buffers (pipeline
registers, crossbar FIFOs, pending-response lists; *not* MSHR residence,
which the sanitizer reads from the tables themselves).  The defaults
return empty iterables, so introspection is strictly opt-in and free when
no probe is attached.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

#: Wake hint meaning "idle until something external arrives".  Far beyond
#: any reachable cycle count, but small enough that arithmetic on it stays
#: in CPython's fast int range.
WAKE_NEVER = 1 << 62


class Component:
    """Base class for simulated hardware components."""

    #: Name used in statistics reports; subclasses should override.
    name: str = "component"

    def step(self, now: int) -> None:
        """Advance the component by one cycle (cycle ``now``)."""
        raise NotImplementedError

    def finalize(self, now: int) -> None:
        """Close any open measurement intervals at end of simulation."""

    def is_idle(self) -> bool:
        """True when the component holds no in-flight work."""
        return True

    # ------------------------------------------------------------------
    # event-horizon fast-forward hooks
    # ------------------------------------------------------------------
    def next_wake(self, now: int) -> int | None:
        """Earliest core cycle >= ``now`` at which stepping could matter.

        The contract backing :meth:`Simulator.run`'s fast-forward:

        * ``now`` — the component must step this cycle;
        * ``> now`` — stepping before that cycle is a no-op *provided no
          other component acts first* (the engine only skips when every
          component agrees, so a producer that would feed this component
          pins the horizon to ``now`` itself);
        * :data:`WAKE_NEVER` — idle until external input arrives;
        * ``None`` (the default) — no hint; disables fast-forward for the
          whole simulation, keeping ad-hoc components conservative.

        A hint must only depend on state that is stable while *every*
        component sleeps; per-cycle statistics for skipped cycles are
        replayed through :meth:`fast_forward`.
        """
        return None

    def fast_forward(self, cycles: int) -> None:
        """Account for ``cycles`` skipped cycles.

        Called by the engine after a fast-forward jump, once per component,
        with the length of the skipped window.  Implementations replicate exactly the per-cycle counters an idle
        :meth:`step` would have accumulated; the default assumes there are
        none.
        """

    def set_fast_mode(self, enabled: bool) -> None:
        """Tell the component whether fast-forward replay is permitted.

        Called by :meth:`Simulator.run` before the main loop with the same
        switch that governs global event-horizon jumps (user flag AND no
        observers attached).  Components with *component-local* skip
        optimisations (e.g. the SM's burst windows) gate them on this, so
        ``fast_forward=False`` runs — the determinism reference — and
        observed runs always execute the naive per-cycle path.  Default:
        ignore.
        """

    # ------------------------------------------------------------------
    # sanitizer / telemetry introspection hooks
    # ------------------------------------------------------------------
    def sample_queues(self) -> Iterable[tuple[str, Any]]:
        """``(family, StatQueue)`` pairs: every bounded queue owned here."""
        return ()

    def sample_mshrs(self) -> Iterable[tuple[str, Any]]:
        """``(family, MSHRTable)`` pairs: every MSHR table owned here."""
        return ()

    def inspect_inflight(self) -> Iterable[Any]:
        """Requests held in transit buffers other than the above queues."""
        return ()

    def sample_counters(self) -> Iterable[tuple[str, float]]:
        """``(name, cumulative value)`` monotone counters for delta series."""
        return ()

    def sample_stalls(self) -> Iterable[tuple[str, int]]:
        """``(cause, cumulative stall cycles)`` pairs for attribution.

        Causes are stable string keys (the ``AccessResult`` stall values:
        ``"stall_mshr_full"``, ``"stall_merge_full"``,
        ``"stall_missq_full"``).  Like :meth:`sample_counters`, values are
        cumulative and monotone; the attribution probe reports per-window
        deltas.  Components without a stalling issue stage return nothing.
        """
        return ()

    def inspect_cycle_classes(self) -> dict[str, int]:
        """Exhaustive cycle-accounting partition for this component.

        A component that classifies its cycles returns a mapping holding
        the key ``"cycles"`` (its total stepped cycles) plus one entry per
        accounting class.  The contract — enforced by the sanitizer and
        the attribution tests — is *exact conservation*: the class counts
        sum to ``cycles`` at every cycle boundary, with no overlap and no
        gap.  The default (empty mapping) means "no accounting here".
        """
        return {}
