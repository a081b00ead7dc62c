"""Host-time tracing and summary statistics for the benchmark.

Nothing here edits the simulator.  :class:`LayerTimer` wraps component
*instance* methods from outside (the same technique
``repro.core.latency_breakdown`` uses on ``collect_completions``) and
aggregates every call into per-layer counters in memory: one counter
update per call, never one record per call.  Self time is a call's
duration minus the part of it that nested wrapped calls cover, so an L1
access made inside an SM ``step`` is charged to ``cache.l1`` and not to
``cores``, and a fill delivered inside a crossbar ``step`` is charged to
``cache.l1`` and not to ``icnt``.

:class:`SpanLog` records job-level spans (``job`` -> ``workloads.build``,
``gpu.build``, ``sim.run``, ``core.collect``) that share a job id and carry
parent links; they stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from typing import Any

#: Component methods the engine calls; wrapped on every component.
COMPONENT_METHODS = ("step", "next_wake", "fast_forward")
#: L1 entry points, called from inside SM ``step`` and crossbar ``step``.
L1_METHODS = ("try_access", "collect_completions", "deliver_fill")
#: Layers whose host time is measured by wrapping, in report order.
LAYERS = ("cores", "cache.l1", "cache.l2", "icnt", "dram")

#: Percentiles a tail is reported at, each with the share of samples
#: beyond it (one in N), lowest first.
TAIL_LADDER = ((90.0, 10), (99.0, 100), (99.9, 1000))
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond.

    ``None`` when even p90 would rest on fewer than ten samples (n < 100).
    """
    best = None
    for p, one_in in TAIL_LADDER:
        if n >= MIN_BEYOND * one_in:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, the highest tail with ten samples beyond it, and the count."""
    tail = tail_percentile(len(values))
    summary = {"n": len(values), "p50": median(values)}
    if tail is not None:
        summary["tail_p"] = tail
        summary["tail"] = percentile(values, tail)
    return summary


class LayerTimer:
    """Per-layer call counts and self time of wrapped instance methods.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: layer -> self nanoseconds (duration minus nested wrapped calls).
        self.self_ns: Counter[str] = Counter()
        #: (layer, method) -> calls.
        self.calls: Counter[tuple[str, str]] = Counter()
        # Child-time accumulators of the open calls; slot 0 collects the
        # duration of outermost calls.
        self._open = [0]

    @property
    def top_ns(self) -> int:
        """Summed duration of calls made from outside any wrapped call."""
        return self._open[0]

    def wrap(self, obj: Any, method: str, layer: str) -> None:
        """Replace ``obj.method`` with a timing wrapper charged to ``layer``."""
        original = getattr(obj, method)
        clock = self._clock
        open_calls = self._open
        self_ns = self.self_ns
        calls = self.calls
        key = (layer, method)

        def timed(*args: Any) -> Any:
            open_calls.append(0)
            start = clock()
            try:
                return original(*args)
            finally:
                duration = clock() - start
                self_ns[layer] += duration - open_calls.pop()
                open_calls[-1] += duration
                calls[key] += 1

        setattr(obj, method, timed)

    def instrument(self, gpu: Any) -> None:
        """Wrap every engine-called method of a GPU's components.

        Must run before ``GPU.run``: the engine binds ``step`` and
        ``next_wake`` when it builds its dispatch table on the first run.
        """
        layer_of: dict[int, str] = {}
        for sm in gpu.sms:
            layer_of[id(sm)] = "cores"
            for method in L1_METHODS:
                self.wrap(sm.l1, method, "cache.l1")
        for l2 in gpu.l2_slices:
            layer_of[id(l2)] = "cache.l2"
        for dram in gpu.dram_channels:
            layer_of[id(dram)] = "dram"
        for xbar in (gpu.request_xbar, gpu.response_xbar):
            if xbar is not None:
                layer_of[id(xbar)] = "icnt"
        for component in gpu.sim.components:
            layer = layer_of.get(id(component))
            if layer is None:
                raise ValueError(
                    f"component {component!r} belongs to no traced layer"
                )
            for method in COMPONENT_METHODS:
                self.wrap(component, method, layer)

    def layer_calls(self, layer: str, method: str | None = None) -> int:
        """Calls into ``layer`` (all methods, or one)."""
        return sum(
            n for (lay, meth), n in self.calls.items()
            if lay == layer and (method is None or meth == method)
        )

    def method_calls(self, method: str) -> int:
        """Calls of ``method`` summed over every layer."""
        return sum(n for (_, meth), n in self.calls.items() if meth == method)


class SpanLog:
    """Job-level spans, kept in memory and written out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, job: int, parent: int | None = None):
        """Record ``name`` around the block; yields the new span's id."""
        record: dict[str, Any] = {
            "id": len(self.spans), "parent": parent, "job": job,
            "name": name, "start_ns": time.perf_counter_ns(), "end_ns": None,
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end_ns"] = time.perf_counter_ns()

    def total_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        return sum(
            s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name
        )

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``, in seconds."""
        return self.total_ns(name) / 1e9
