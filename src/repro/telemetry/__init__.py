"""Observability layer for the simulator: time series and request traces.

The paper's central claims are *temporal* — queues are full for given
fractions of their usage lifetime, congestion latency dominates the L1
miss round trip — yet :class:`~repro.core.metrics.RunMetrics` only shows
end-of-run aggregates.  This package turns the reproduction into an
instrument:

* :class:`TimeSeriesProbe` — a :class:`~repro.sim.engine.Simulator`
  observer that folds the run into fixed-cycle windows: per-window IPC,
  full/busy fractions and depths for every Table I queue family, L1/L2
  MSHR occupancy and DRAM bus utilization.  A ring-buffer cap keeps long
  runs O(1) in memory.
* :class:`RequestTracer` — deterministic stride sampling of
  factory-issued requests; converts their per-hop ``timestamps`` into
  Chrome trace-event JSON (one track per component, loadable in
  chrome://tracing or https://ui.perfetto.dev) and a per-hop latency
  histogram registry.
* :class:`AttributionProbe` — top-down cycle accounting (every SM cycle
  classified issue / issue-starved / no-ready-warp / drained with exact
  conservation) plus per-window blame chains that walk downstream
  occupancy evidence and charge each memory-pipeline stall cycle to the
  deepest congested stage (DRAM, L2, interconnect, L1 or raw latency);
  the measurement behind ``repro profile``.

All are strictly opt-in: with nothing attached the simulator executes
exactly the same code it always did (the observer list is empty and the
request factory keeps its original listener), so results are bit-identical
to an uninstrumented run.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.attribution import (
        BLAME_STAGES,
        DEFAULT_BLAME_THRESHOLD,
        AttributionProbe,
        AttributionWindow,
    )
    from repro.telemetry.timeseries import (
        DEFAULT_MAX_WINDOWS,
        DEFAULT_WINDOW,
        TimeSeriesProbe,
        WindowedProbe,
        WindowSample,
    )
    from repro.telemetry.tracer import (
        DEFAULT_TRACE_LIMIT,
        DEFAULT_TRACE_STRIDE,
        RequestTracer,
        hop_track,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.attribution": (
        "BLAME_STAGES", "DEFAULT_BLAME_THRESHOLD", "AttributionProbe",
        "AttributionWindow",
    ),
    "repro.telemetry.timeseries": (
        "DEFAULT_MAX_WINDOWS", "DEFAULT_WINDOW", "TimeSeriesProbe",
        "WindowedProbe", "WindowSample",
    ),
    "repro.telemetry.tracer": (
        "DEFAULT_TRACE_LIMIT", "DEFAULT_TRACE_STRIDE", "RequestTracer",
        "hop_track",
    ),
})
