"""The in-process workloads: ``design_space`` and ``magic_sweep``.

A run repeats passes over the workload's fixed job list, serially in this
process, as many as nominally fit in ``--seconds``.  End-to-end timings
take each job's best time over the untraced passes.  With tracing on,
one extra pass runs with every component method wrapped; its results
must equal the untraced ones job for job, and its per-layer self times
must conserve to the traced ``GPU.run`` time.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.metrics import run_kernel
from repro.workloads.suite import get_benchmark

from jobs import JOB_LISTS, JobResult, SimJob, digest, fidelity_error_pts, run_job
from outcome import Outcome
from tracing import LAYERS, LayerTimer, SpanLog, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Host seconds of one pass on a 2-core container at the commit that
#: introduced the benchmark; sets how many passes fit in ``--seconds``.
NOMINAL_PASS_S = {"design_space": 5.0, "magic_sweep": 1.8}
MIN_PASSES = 2
#: On a host slower than nominal, passes stop once this share of
#: ``--seconds`` is spent, so a run's length stays bounded.
OVERRUN = 1.2
#: Fresh-interpreter set-up samples behind ``setup_s``.
SETUP_SAMPLES = 7


@dataclass
class Pass:
    """One pass over the job list."""

    wall_s: float
    results: list[JobResult]
    spans: SpanLog

    @property
    def runs(self):
        return [r.metrics for r in self.results]


def run_pass(jobs: list[SimJob], timer: LayerTimer | None = None) -> Pass:
    spans = SpanLog()
    start = time.perf_counter()
    results = [run_job(job, spans, i, timer) for i, job in enumerate(jobs)]
    return Pass(time.perf_counter() - start, results, spans)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(p: Pass, timer: LayerTimer) -> dict[str, float]:
    """Per-layer host time, work counts and modelled ratios of a traced pass."""
    runs = [m for m in p.runs if m is not None]
    run_s = p.spans.total_s("sim.run")
    out: dict[str, float] = {
        "sim.run_s": run_s,
        "sim.self_s": run_s - timer.top_ns / 1e9,
        "sim.wake_probes": timer.method_calls("next_wake"),
        "sim.ff_cycle_frac": sum(r.ff_cycles for r in p.results)
        / sum(m.cycles for m in runs),
        "workloads.build_s": p.spans.total_s("workloads.build"),
        "gpu.build_s": p.spans.total_s("gpu.build"),
        "core.collect_s": p.spans.total_s("core.collect"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = timer.self_ns[layer] / 1e9
    sm_cycles = sum(m.sm_cycles for m in runs)
    out.update({
        "cores.step_calls": timer.layer_calls("cores", "step"),
        "cores.issue_frac": sum(m.issue_cycles for m in runs) / sm_cycles,
        "cores.no_ready_warp_frac":
            sum(m.no_ready_warp_cycles for m in runs) / sm_cycles,
        "cache.l1.calls": timer.layer_calls("cache.l1"),
        "cache.l1.hit_rate": _mean(m.l1_hit_rate for m in runs),
        "cache.l1.miss_latency_p95": _mean(m.l1_p95_miss_latency for m in runs),
        "cache.l2.step_calls": timer.layer_calls("cache.l2", "step"),
        "cache.l2.hit_rate": _mean(m.l2_hit_rate for m in runs),
        "cache.l2.accessq_full_frac":
            _mean(m.l2_accessq.full_fraction for m in runs),
        "icnt.step_calls": timer.layer_calls("icnt", "step"),
        "icnt.req_util": _mean(m.req_xbar_utilization for m in runs),
        "dram.step_calls": timer.layer_calls("dram", "step"),
        "dram.schedq_full_frac": _mean(m.dram_schedq.full_fraction for m in runs),
        "dram.row_hit_rate": _mean(m.dram_row_hit_rate for m in runs),
        "dram.bus_util": _mean(m.dram_bus_utilization for m in runs),
    })
    families = [
        q for m in runs
        for q in (m.l1_missq, m.l2_accessq, m.l2_missq, m.l2_respq,
                  m.dram_schedq)
    ]
    attempts = sum(q.pushes + q.rejections for q in families)
    out["mem.push_reject_frac"] = (
        sum(q.rejections for q in families) / attempts if attempts else 0.0
    )
    return out


def self_time_errors(timer: LayerTimer, run_ns: int) -> list[str]:
    """Violations of the self-time accounting of one traced pass.

    Every self time is non-negative, the layer self times telescope to
    the summed outermost-call durations, and those fit inside
    ``GPU.run`` so the engine's own remainder is non-negative.
    """
    errors = [
        f"negative self time in {layer}: {ns} ns"
        for layer, ns in timer.self_ns.items() if ns < 0
    ]
    if sum(timer.self_ns.values()) != timer.top_ns:
        errors.append(
            f"layer self times sum to {sum(timer.self_ns.values())} ns, "
            f"outermost calls to {timer.top_ns} ns"
        )
    if timer.top_ns > run_ns:
        errors.append(
            f"component calls ({timer.top_ns} ns) exceed GPU.run ({run_ns} ns)"
        )
    return errors


def reference_errors(jobs: list[SimJob], p: Pass, seed: int) -> list[str]:
    """Compare one seed-chosen job with a naive-loop, sanitized reference."""
    index = random.Random(f"reference:{seed}").randrange(len(jobs))
    job = jobs[index]
    reference = run_kernel(
        job.config, get_benchmark(job.benchmark, job.scale), seed=job.seed,
        fast_forward=False, sanitize=True,
    )
    if reference.truncated:
        return [f"reference run of job {index} truncated"]
    if dataclasses.replace(reference, extras={}) != p.runs[index]:
        return [f"job {index} ({job.label}/{job.benchmark}) differs from "
                "its fast_forward=False, sanitize=True reference"]
    return []


def passes_for(workload: str, seconds: float) -> int:
    """Passes a run makes: as many nominal passes as fit in ``seconds``.

    The count depends only on the workload and ``seconds``, so two
    commits compared with the same settings do the same work (unless a
    pass takes over 20 % longer than nominal; see ``OVERRUN``).
    """
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def setup_probe_s(workload: str, seed: int) -> float:
    """Spawn-to-first-job-ready seconds of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    jobs = JOB_LISTS[workload](seed)
    outcome = Outcome()
    count = passes_for(workload, seconds)
    # Set-up probes are spread between the passes, so their median does
    # not hinge on one stretch of the host's load.
    probe_at = [k * count // SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    setups: list[float] = []
    passes: list[Pass] = []
    deadline = time.perf_counter() + OVERRUN * seconds
    for n in range(count):
        if n >= MIN_PASSES and time.perf_counter() > deadline:
            break
        setups.extend(setup_probe_s(workload, seed) for _ in range(probe_at.count(n)))
        passes.append(run_pass(jobs))
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe_s(workload, seed))
    outcome.e2e["setup_s"] = median(setups)
    first = passes[0]
    for p in passes:
        for i, r in enumerate(p.results):
            outcome.check(not r.error, f"job {i} failed: {r.error}")
    if outcome.failed:
        return outcome
    expected = digest(first.runs)
    for n, p in enumerate(passes[1:], start=2):
        outcome.check(digest(p.runs) == expected,
                      f"pass {n} simulated different results than pass 1")
    errors = reference_errors(jobs, first, seed)
    outcome.check(not errors, "; ".join(errors))

    # Each job's best time over the passes: co-tenants on a shared host
    # slow whole multi-second stretches by up to 2x, and a job's passes
    # fall in different stretches.
    best = [min(p.results[i].total_s for p in passes) for i in range(len(jobs))]
    best_run = [min(p.results[i].run_s for p in passes) for i in range(len(jobs))]
    instructions = sum(m.instructions for m in first.runs)
    outcome.e2e.update({
        "wall_s": sum(best),
        "sim_kinstr_per_s": instructions / sum(best_run) / 1000.0,
        "op_p50_ms": median(best) * 1000.0,
    })
    outcome.samples.update({"passes": len(passes), "jobs": len(jobs),
                            "setup": len(setups)})
    if workload == "design_space":
        outcome.report["fidelity_err_pts"] = (
            fidelity_error_pts(jobs, first.runs), "pp")
    outcome.report["digest"] = (expected, "")

    if trace:
        timer = LayerTimer()
        traced = run_pass(jobs, timer)
        for i, (a, b) in enumerate(zip(traced.runs, first.runs)):
            outcome.check(a is not None and a == b,
                          f"traced job {i} differs from its untraced run")
        errors = self_time_errors(timer, traced.spans.total_ns("sim.run"))
        outcome.check(not errors, "; ".join(errors))
        if not outcome.failed:
            outcome.layers.update(layer_metrics(traced, timer))
        outcome.layers["trace.overhead_s"] = (
            traced.wall_s - median([p.wall_s for p in passes]))
        outcome.spans = traced.spans.spans
    return outcome
