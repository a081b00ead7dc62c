"""Tests of the benchmark's own logic: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.core.metrics import collect_metrics
from repro.gpu import GPU
from repro.sim.config import tiny_gpu
from repro.workloads.suite import get_benchmark

import jobs
import serve
from inprocess import self_time_errors
from tracing import LayerTimer, SpanLog, percentile, summarize, tail_percentile


# --- median and highest percentile ------------------------------------

@pytest.mark.parametrize("n, tail", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, tail):
    assert tail_percentile(n) == tail


def test_summarize_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 101)]
    summary = summarize(values[::-1])
    assert summary == {"n": 100, "p50": 50.5, "tail_p": 90.0, "tail": 90.0}
    assert sum(v > summary["tail"] for v in values) == 10


def test_summarize_omits_tail_below_one_hundred_samples():
    assert "tail" not in summarize([1.0] * 99)
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


# --- self-time subtraction --------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _fake_tree(clock):
    """An SM whose step makes an L1 access, and a crossbar delivering a fill."""

    def spend(ticks):
        clock.now += ticks

    l1 = SimpleNamespace(
        try_access=lambda req, now: spend(3),
        collect_completions=lambda now: spend(0) or [],
        deliver_fill=lambda req, now: spend(1),
    )

    def sm_step(now):
        spend(5)
        sm.l1.try_access(None, now)
        spend(2)

    sm = SimpleNamespace(l1=l1, step=sm_step, next_wake=lambda now: spend(1),
                         fast_forward=lambda cycles: None)

    def xbar_step(now):
        spend(4)
        sm.l1.deliver_fill(None, now)

    xbar = SimpleNamespace(step=xbar_step, next_wake=lambda now: now,
                           fast_forward=lambda cycles: None)
    gpu = SimpleNamespace(
        sms=[sm], l2_slices=[], dram_channels=[], request_xbar=xbar,
        response_xbar=None, sim=SimpleNamespace(components=[sm, xbar]),
    )
    return gpu, sm, xbar


def test_nested_calls_are_charged_to_the_callee_layer():
    clock = FakeClock()
    timer = LayerTimer(clock)
    gpu, sm, xbar = _fake_tree(clock)
    timer.instrument(gpu)
    sm.step(0)
    xbar.step(0)
    sm.next_wake(1)
    assert timer.self_ns == {"cores": 5 + 2 + 1, "cache.l1": 3 + 1, "icnt": 4}
    assert timer.top_ns == 5 + 3 + 2 + 4 + 1 + 1
    assert timer.layer_calls("cores", "step") == 1
    assert timer.layer_calls("cache.l1") == 2
    assert timer.method_calls("next_wake") == 1
    assert self_time_errors(timer, run_ns=timer.top_ns) == []
    assert self_time_errors(timer, run_ns=timer.top_ns - 1)


def test_unknown_component_is_refused():
    clock = FakeClock()
    gpu, _, _ = _fake_tree(clock)
    gpu.sim.components.append(SimpleNamespace(step=None))
    with pytest.raises(ValueError, match="no traced layer"):
        LayerTimer(clock).instrument(gpu)


def test_wrapped_gpu_simulates_identically_and_conserves():
    kernel = get_benchmark("sc", 0.05)
    plain = GPU(tiny_gpu(), kernel, seed=3)
    plain.run()
    traced = GPU(tiny_gpu(), get_benchmark("sc", 0.05), seed=3)
    timer = LayerTimer()
    timer.instrument(traced)
    spans = SpanLog()
    with spans.span("sim.run", 0):
        traced.run()
    assert collect_metrics(traced) == collect_metrics(plain)
    assert self_time_errors(timer, spans.total_ns("sim.run")) == []
    assert set(timer.self_ns) == {"cores", "cache.l1", "cache.l2", "icnt", "dram"}


# --- seed determinism -------------------------------------------------

@pytest.mark.parametrize("workload", sorted(jobs.JOB_LISTS))
def test_seed_fixes_the_job_list(workload):
    make = jobs.JOB_LISTS[workload]
    first, again, other = make(1), make(1), make(2)
    assert first == again
    assert len(other) == len(first)
    assert [(j.label, j.benchmark, j.scale, j.config) for j in other] == \
        [(j.label, j.benchmark, j.scale, j.config) for j in first]
    assert [j.seed for j in other] != [j.seed for j in first]


def _digest(job_list):
    spans = SpanLog()
    small = [dataclasses.replace(job, scale=0.02) for job in job_list[:2]]
    return jobs.digest([jobs.run_job(job, spans).metrics for job in small])


def test_seed_fixes_the_simulated_digest():
    assert _digest(jobs.magic_sweep_jobs(1)) == _digest(jobs.magic_sweep_jobs(1))
    assert _digest(jobs.magic_sweep_jobs(1)) != _digest(jobs.magic_sweep_jobs(2))


def test_seed_fixes_the_serve_sweeps():
    first, other = serve.sweep_specs(1), serve.sweep_specs(2)
    assert first == serve.sweep_specs(1)
    assert first != other
    sizes = [len(serve.spec_jobs(spec)) for spec in first]
    assert sizes == [len(serve.spec_jobs(spec)) for spec in other] == [4] * 8
    # Consecutive sweeps share one baseline job: a store read per sweep.
    keys = [{(j.label, j.benchmark) for j in serve.spec_jobs(s)} for s in first]
    for a, b in zip(keys, keys[1:] + keys[:1]):
        assert len(a & b) == 1
