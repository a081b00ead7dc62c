"""Cycle-windowed time series over the memory hierarchy.

:class:`TimeSeriesProbe` is a :class:`~repro.sim.engine.Simulator`
observer (attached via ``Simulator.attach_observer``, like the
:mod:`repro.analysis` sanitizer) that chops the run into fixed-cycle
windows and records, per window:

* **IPC** — instructions issued in the window / window length;
* **queue congestion** per Table I family (L1 miss queues, L2 access /
  miss / response queues, DRAM scheduler and return queues): the full and
  busy fractions *within the window* plus the instantaneous depth at the
  window boundary;
* **MSHR occupancy** for the L1 and L2 tables (fraction of entries held
  at the boundary);
* **DRAM bus utilization** — data-bus busy cycles in the window / window
  cycles, averaged over channels;
* raw **counter deltas** for every ``sample_counters`` source, so derived
  series (crossbar flits, L2 fills, ...) need no probe changes.

The probe is event-light: ``on_cycle`` is a modulo test except at window
boundaries, where it snapshots the cumulative counters the components
already maintain (the :class:`~repro.utils.stats.IntervalTracker` totals
behind the Section III metrics) and stores the *deltas*.  Nothing is
sampled per cycle, and attaching the probe never changes simulated
behaviour.

Windows land in a ring buffer (``max_windows`` deep); beyond that the
oldest windows are dropped and counted in :attr:`TimeSeriesProbe.dropped`,
so arbitrarily long runs hold O(max_windows) memory.  Because windows
store cycle *deltas*, the retained windows always reconcile exactly with
the difference of the cumulative aggregates at their two edges — the
property the telemetry tests pin down.

The window loop itself (boundaries, ring buffer, ``dropped``) is
:class:`WindowedProbe`, which
:class:`~repro.telemetry.attribution.AttributionProbe` shares.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.errors import UsageError

#: Default window length in core cycles.
DEFAULT_WINDOW = 2_000
#: Default ring-buffer capacity, in windows.
DEFAULT_MAX_WINDOWS = 512

#: The per-window record type a :class:`WindowedProbe` retains.
WindowT = TypeVar("WindowT")


@dataclass(frozen=True)
class WindowSample:
    """Telemetry for one ``[start, end)`` cycle window."""

    index: int
    start: int
    end: int
    #: Instructions issued in the window / window length (whole GPU).
    ipc: float
    #: family -> cycles the family's queues were full inside the window
    #: (summed over instances).
    queue_full_cycles: dict[str, int] = field(default_factory=dict)
    #: family -> cycles the family's queues held >= 1 entry (summed).
    queue_busy_cycles: dict[str, int] = field(default_factory=dict)
    #: family -> full cycles / busy cycles within the window (the windowed
    #: Section III metric; 0.0 for an idle window).
    queue_full_fraction: dict[str, float] = field(default_factory=dict)
    #: family -> busy cycles / (window length * instances).
    queue_busy_fraction: dict[str, float] = field(default_factory=dict)
    #: family -> mean instantaneous fill level (0..1) at the window edge.
    queue_depth: dict[str, float] = field(default_factory=dict)
    #: family -> pushes refused inside the window.
    queue_rejections: dict[str, int] = field(default_factory=dict)
    #: family -> successful pushes inside the window.
    queue_pushes: dict[str, int] = field(default_factory=dict)
    #: family -> fraction of MSHR entries held at the window edge.
    mshr_occupancy: dict[str, float] = field(default_factory=dict)
    #: Data-bus busy cycles / window cycles, averaged over DRAM channels.
    dram_bus_utilization: float = 0.0
    #: name -> windowed delta of every ``sample_counters`` source.
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready rendition (used by ``RunMetrics.extras``)."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "ipc": self.ipc,
            "queue_full_cycles": dict(self.queue_full_cycles),
            "queue_busy_cycles": dict(self.queue_busy_cycles),
            "queue_full_fraction": dict(self.queue_full_fraction),
            "queue_busy_fraction": dict(self.queue_busy_fraction),
            "queue_depth": dict(self.queue_depth),
            "queue_rejections": dict(self.queue_rejections),
            "queue_pushes": dict(self.queue_pushes),
            "mshr_occupancy": dict(self.mshr_occupancy),
            "dram_bus_utilization": self.dram_bus_utilization,
            "counters": dict(self.counters),
        }


class WindowedProbe(Generic[WindowT]):
    """The window loop shared by the cycle-windowed observers.

    Owns everything about windows except what is measured in them: the
    ``window`` / ``max_windows`` validation, the engine hooks that close
    a window at each ``window``-cycle boundary and a final partial one at
    finalize, and the ring buffer with its :attr:`dropped` count.
    Subclasses implement :meth:`_scan`, which discovers instruments once
    before the first capture, and :meth:`_measure`, which returns the
    record of the window ending at ``boundary``.

    Parameters
    ----------
    sim:
        The simulator whose components are read.
    window:
        Window length in core cycles.
    max_windows:
        Ring-buffer depth; when exceeded, the oldest window is dropped
        and counted in :attr:`dropped`.
    """

    #: Noun naming the probe in validation errors.
    _kind = "telemetry"

    def __init__(
        self,
        sim,
        *,
        window: int = DEFAULT_WINDOW,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if window < 1:
            raise UsageError(f"{self._kind} window must be >= 1, got {window}")
        if max_windows < 1:
            raise UsageError(
                f"{self._kind} max_windows must be >= 1, got {max_windows}"
            )
        self._sim = sim
        self.window = window
        self.max_windows = max_windows
        self._windows: deque[WindowT] = deque(maxlen=max_windows)
        #: Windows evicted from the ring buffer (oldest first).
        self.dropped = 0
        self._window_start = 0
        self._index = 0
        self._finalized = False
        self._scanned = False

    @classmethod
    def attach(cls, gpu, **options):
        """Attach a new probe (constructor ``options``) to a built GPU."""
        probe = cls(gpu.sim, **options)
        gpu.sim.attach_observer(probe)
        return probe

    def _scan(self) -> None:
        """Discover instruments through the components' hooks."""
        raise NotImplementedError

    def _measure(self, boundary: int, length: int) -> WindowT:
        """Record of the ``length``-cycle window ending at ``boundary``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # observer protocol
    # ------------------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        """Engine hook: capture a window at each boundary."""
        boundary = now + 1  # the engine has already advanced past ``now``
        if boundary % self.window:
            return
        self._capture(boundary)

    def on_finalize(self, now: int) -> None:
        """Engine hook: close the final (possibly partial) window."""
        if self._finalized:
            return
        self._finalized = True
        self._capture(now)

    def _capture(self, boundary: int) -> None:
        if not self._scanned:
            self._scan()
            self._scanned = True
        length = boundary - self._window_start
        if length <= 0:
            return
        record = self._measure(boundary, length)
        if len(self._windows) == self.max_windows:
            self.dropped += 1  # deque evicts the oldest on append
        self._windows.append(record)
        self._index += 1
        self._window_start = boundary

    @property
    def windows(self) -> list[WindowT]:
        """Retained windows, oldest first."""
        return list(self._windows)


class TimeSeriesProbe(WindowedProbe[WindowSample]):
    """Samples windowed telemetry at cycle boundaries (see
    :class:`WindowedProbe` for the window parameters)."""

    def __init__(self, sim, **options) -> None:
        super().__init__(sim, **options)
        #: family -> [StatQueue, ...] discovered through sample_queues.
        self._queues: dict[str, list] = {}
        #: family -> [MSHRTable, ...] discovered through sample_mshrs.
        self._mshrs: dict[str, list] = {}
        #: counter name -> number of components publishing it.
        self._counter_sources: dict[str, int] = {}
        # Cumulative snapshots at the previous window boundary.
        self._prev_queue: dict[str, tuple[int, int, int, int]] = {}
        self._prev_counters: dict[str, float] = {}

    def _scan(self) -> None:
        """Discover instruments through the components' sample hooks."""
        for component in self._sim.components:
            for family, queue in component.sample_queues():
                self._queues.setdefault(family, []).append(queue)
            for family, table in component.sample_mshrs():
                self._mshrs.setdefault(family, []).append(table)
            for name, _value in component.sample_counters():
                self._counter_sources[name] = (
                    self._counter_sources.get(name, 0) + 1
                )

    # ------------------------------------------------------------------
    # the capture itself
    # ------------------------------------------------------------------
    def _read_counters(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for component in self._sim.components:
            for name, value in component.sample_counters():
                totals[name] = totals.get(name, 0) + value
        return totals

    def _measure(self, boundary: int, length: int) -> WindowSample:
        full_cycles: dict[str, int] = {}
        busy_cycles: dict[str, int] = {}
        full_fraction: dict[str, float] = {}
        busy_fraction: dict[str, float] = {}
        depth: dict[str, float] = {}
        rejections: dict[str, int] = {}
        pushes: dict[str, int] = {}
        for family, queues in self._queues.items():
            full = sum(q.full_cycles(boundary) for q in queues)
            busy = sum(q.busy_cycles(boundary) for q in queues)
            rej = sum(q.rejections for q in queues)
            psh = sum(q.pushes for q in queues)
            p_full, p_busy, p_rej, p_psh = self._prev_queue.get(
                family, (0, 0, 0, 0)
            )
            d_full = full - p_full
            d_busy = busy - p_busy
            full_cycles[family] = d_full
            busy_cycles[family] = d_busy
            full_fraction[family] = d_full / d_busy if d_busy else 0.0
            busy_fraction[family] = d_busy / (length * len(queues))
            depth[family] = sum(
                len(q) / q.capacity for q in queues
            ) / len(queues)
            rejections[family] = rej - p_rej
            pushes[family] = psh - p_psh
            self._prev_queue[family] = (full, busy, rej, psh)

        mshr_occupancy = {
            family: sum(len(t) / t.capacity for t in tables) / len(tables)
            for family, tables in self._mshrs.items()
        }

        totals = self._read_counters()
        deltas = {
            name: value - self._prev_counters.get(name, 0)
            for name, value in totals.items()
        }
        self._prev_counters = totals

        n_channels = self._counter_sources.get("dram_bus_busy_cycles", 0)
        bus_util = (
            deltas.get("dram_bus_busy_cycles", 0) / (length * n_channels)
            if n_channels
            else 0.0
        )

        return WindowSample(
            index=self._index,
            start=self._window_start,
            end=boundary,
            ipc=deltas.get("instructions", 0) / length,
            queue_full_cycles=full_cycles,
            queue_busy_cycles=busy_cycles,
            queue_full_fraction=full_fraction,
            queue_busy_fraction=busy_fraction,
            queue_depth=depth,
            queue_rejections=rejections,
            queue_pushes=pushes,
            mshr_occupancy=mshr_occupancy,
            dram_bus_utilization=bus_util,
            counters=deltas,
        )

    # ------------------------------------------------------------------
    # reading the series
    # ------------------------------------------------------------------
    @property
    def queue_families(self) -> list[str]:
        """Family labels in component-registration order."""
        return list(self._queues)

    def series(self, key: str, family: str | None = None) -> list[tuple[int, float]]:
        """``(window end cycle, value)`` points for one metric.

        ``key`` is a :class:`WindowSample` field name; dict-valued fields
        (``queue_full_fraction``, ``mshr_occupancy``, ``counters``, ...)
        additionally need ``family`` to pick the entry.
        """
        points = []
        for sample in self._windows:
            try:
                value = getattr(sample, key)
            except AttributeError:
                raise UsageError(
                    f"unknown telemetry series {key!r}"
                ) from None
            if isinstance(value, dict):
                if family is None:
                    raise UsageError(
                        f"series {key!r} is per-family; pass family="
                    )
                value = value.get(family, 0.0)
            points.append((sample.end, value))
        return points

    def total_queue_cycles(self, family: str) -> tuple[int, int]:
        """Summed (full, busy) cycles over the *retained* windows.

        With no windows dropped this equals the end-of-run aggregate of
        the family's queues — the reconciliation the tests assert.
        """
        full = sum(w.queue_full_cycles.get(family, 0) for w in self._windows)
        busy = sum(w.queue_busy_cycles.get(family, 0) for w in self._windows)
        return full, busy

    def summary(self) -> dict:
        """JSON-ready structure for ``RunMetrics.extras['timeline']``."""
        return {
            "window": self.window,
            "max_windows": self.max_windows,
            "dropped": self.dropped,
            "queue_families": self.queue_families,
            "windows": [w.to_dict() for w in self._windows],
        }
