"""The ``serve`` workload: one closed-loop client against ``repro serve``.

Each pass starts a fresh daemon (``--workers 1 --jobs 2``, a new state
directory, so every modelled cache and the result store start empty) on a
unix socket, then drives it from one client connection at a time:

1. fresh sweeps: submit, re-submit the identical spec while it is in
   flight (it must coalesce onto the same id), wait for ``done`` and
   fetch the results;
2. hits: with the daemon otherwise idle, re-submit the finished sweeps
   and fetch their results, ``HITS`` times;
3. drain: SIGTERM, which must exit cleanly.

Consecutive sweeps share one baseline job, so part of every fresh sweep
is served from the store the previous sweep wrote: reads beside writes.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.design_space import scale_levels
from repro.core.explorer import SECTION_IV_CONFIGS
from repro.core.export import runs_to_text
from repro.service import ServiceClient, ServiceError, sweep_spec
from repro.sim.config import small_gpu
from repro.workloads.suite import PAPER_SUITE

from jobs import SimJob, run_job
from outcome import Outcome
from tracing import SpanLog, median, summarize

#: Iteration scale of the sweeps the daemon simulates.
SERVE_SCALE = 0.05
#: Fresh sweeps per pass; each covers two suite benchmarks, so the
#: passes cover the whole suite once.
SWEEPS = len(PAPER_SUITE)
#: Finished-sweep re-submits per pass: a p90 with ten samples beyond it.
HITS = 100
#: Host seconds of one pass including daemon start and drain, on a
#: 2-core container at the commit that introduced the benchmark; sets
#: how many passes fit in ``--seconds``.
NOMINAL_CYCLE_S = 6.5
MIN_PASSES = 2
#: On a host slower than nominal, passes stop once this share of
#: ``--seconds`` is spent, so a run's length stays bounded.
OVERRUN = 1.2
#: Daemon start-up samples behind ``setup_s``, at least.
SETUP_SAMPLES = 7
#: Status poll interval while a fresh sweep runs (seconds).
POLL_S = 0.01
#: Seconds a daemon may take to answer its first ping or to drain.
DAEMON_TIMEOUT_S = 60.0
#: Section IV configurations a sweep pairs with the baseline.
SCALED_LABELS = tuple(label for label in SECTION_IV_CONFIGS if label != "baseline")


def sweep_specs(seed: int) -> list[dict[str, Any]]:
    """The pass's fresh sweeps: baseline + one scaled config x two benchmarks.

    Sweep ``i`` covers benchmarks ``i`` and ``i+1`` of a seeded order of
    the suite (cyclically), so each benchmark's baseline job is simulated
    by one sweep and read from the store by the next.
    """
    rng = random.Random(f"serve:{seed}")
    order = list(PAPER_SUITE)
    rng.shuffle(order)
    offset = rng.randrange(len(SCALED_LABELS))
    sim_seed = rng.randrange(1, 2**31)
    return [
        sweep_spec(
            config="small",
            configs=["baseline", SCALED_LABELS[(offset + i) % len(SCALED_LABELS)]],
            benchmarks=[order[i], order[(i + 1) % len(order)]],
            seeds=[sim_seed],
            scale=SERVE_SCALE,
        )
        for i in range(SWEEPS)
    ]


def spec_jobs(spec: dict[str, Any]) -> list[SimJob]:
    """The jobs of a sweep spec, in the daemon's order (labels x benchmarks x seeds)."""
    sweep = spec["sweep"]
    base = small_gpu()
    return [
        SimJob(label, name, seed, sweep["scale"],
               scale_levels(base, SECTION_IV_CONFIGS[label]))
        for label in sweep["configs"]
        for name in sweep["benchmarks"]
        for seed in sweep["seeds"]
    ]


class Daemon:
    """A ``repro serve`` subprocess in a fresh state directory."""

    def __init__(self, workdir: Path) -> None:
        self.state = state = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        # A relative socket path stays under the 108-byte unix limit
        # however deep the checkout is.
        self.socket = os.path.relpath(state / "s.sock")
        self.log_path = state / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--socket", self.socket, "--state-dir", str(state),
                 "--workers", "1", "--jobs", "2"],
                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.client = ServiceClient(socket_path=self.socket)
        deadline = start + DAEMON_TIMEOUT_S
        while True:
            try:
                self.client.ping()
                break
            except ServiceError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.kill()
                    raise RuntimeError(
                        f"daemon never answered a ping: {self.log_path.read_text()}"
                    ) from None
                time.sleep(0.005)
        #: Daemon start to first answered ping.
        self.setup_s = time.perf_counter() - start

    def drain(self) -> str:
        """SIGTERM and wait; returns an error message, empty when clean."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return "daemon did not drain within the timeout"
        log = self.log_path.read_text()
        socket_left = os.path.exists(self.socket)
        shutil.rmtree(self.state, ignore_errors=True)
        if socket_left:
            return "drained daemon left its socket behind"
        if code != 0 or "drained and stopped" not in log:
            return f"unclean drain (exit {code}): {log.strip()[-300:]}"
        return ""

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        shutil.rmtree(self.state, ignore_errors=True)


@dataclass
class ServePass:
    """What one pass against one daemon measured."""

    wall_s: float = 0.0
    fresh_s: list[float] = field(default_factory=list)
    hit_ms: list[float] = field(default_factory=list)
    submit_ms: list[float] = field(default_factory=list)
    results_ms: list[float] = field(default_factory=list)
    #: Per fresh sweep: id, submit and terminal-seen epochs, results text.
    sweeps: list[dict[str, Any]] = field(default_factory=list)
    coalesced: int = 0
    duplicates: int = 0
    refused: int = 0
    events: dict[str, list[dict[str, Any]]] = field(default_factory=dict)
    spans: SpanLog = field(default_factory=SpanLog)


def _call(outcome: Outcome, result: ServePass, what: str, fn, *args):
    """One timed request; a typed service error counts as a failed op."""
    start = time.perf_counter()
    try:
        response = fn(*args)
    except ServiceError as exc:
        if exc.code in ("queue-full", "draining"):
            result.refused += 1
        outcome.check(False, f"{what} failed: [{exc.code}] {exc}")
        return None, 0.0
    outcome.attempted += 1
    return response, (time.perf_counter() - start) * 1000.0


def run_pass(daemon: Daemon, specs: list[dict[str, Any]], outcome: Outcome) -> ServePass:
    client = daemon.client
    result = ServePass()
    spans = result.spans
    start = time.perf_counter()
    for n, spec in enumerate(specs):
        with spans.span("sweep", n) as root:
            t0 = time.perf_counter()
            submitted_at = time.time()
            with spans.span("service.submit", n, root):
                first, ms = _call(outcome, result, "submit", client.submit, spec)
            if first is None:
                continue
            result.submit_ms.append(ms)
            outcome.check(not first["coalesced"],
                          f"fresh sweep {n} coalesced onto an earlier one")
            with spans.span("service.submit", n, root):
                dup, ms = _call(outcome, result, "duplicate submit",
                                client.submit, spec)
            if dup is not None:
                result.submit_ms.append(ms)
                result.duplicates += 1
                coalesced = (dup["coalesced"] and dup["id"] == first["id"]
                             and dup["state"] in ("queued", "running"))
                result.coalesced += coalesced
                outcome.check(coalesced,
                              f"in-flight duplicate of sweep {n} did not coalesce")
            with spans.span("service.wait", n, root):
                status, _ = _call(outcome, result, "wait", client.wait_done,
                                  first["id"], POLL_S, DAEMON_TIMEOUT_S)
            seen_at = time.time()
            if status is None or not outcome.check(
                    status["state"] == "done",
                    f"sweep {n} ended {status and status['state']}"):
                continue
            with spans.span("service.results", n, root):
                res, ms = _call(outcome, result, "results", client.results,
                                first["id"])
            if res is None:
                continue
            result.results_ms.append(ms)
            result.fresh_s.append(time.perf_counter() - t0)
            result.sweeps.append({"id": first["id"], "submitted": submitted_at,
                                  "seen": seen_at, "text": res["text"]})
    if len(result.sweeps) == len(specs):
        for k in range(HITS):
            sweep = result.sweeps[k % len(specs)]
            with spans.span("hit", len(specs) + k) as root:
                t0 = time.perf_counter()
                with spans.span("service.submit", len(specs) + k, root):
                    again, ms = _call(outcome, result, "re-submit",
                                      client.submit, specs[k % len(specs)])
                if again is None:
                    continue
                result.submit_ms.append(ms)
                with spans.span("service.results", len(specs) + k, root):
                    res, ms = _call(outcome, result, "results", client.results,
                                    again["id"])
                if res is None:
                    continue
                result.results_ms.append(ms)
                result.hit_ms.append((time.perf_counter() - t0) * 1000.0)
                outcome.check(
                    again["coalesced"] and again["id"] == sweep["id"]
                    and res["text"] == sweep["text"],
                    f"re-submit {k} did not return the finished sweep's results")
    result.wall_s = time.perf_counter() - start
    for sweep in result.sweeps:
        result.events[sweep["id"]] = _events_until_end(client, sweep["id"])
    return result


def _events_until_end(client: ServiceClient, sub_id: str) -> list[dict[str, Any]]:
    """The submission's event log, once ``submission_end`` is in it.

    The daemon flips a submission to ``done`` before it appends
    ``submission_end``, so a client can see the state first.
    """
    deadline = time.perf_counter() + 10.0
    while True:
        events = client.events(sub_id)["events"]
        if any(e["event"] == "submission_end" for e in events) \
                or time.perf_counter() > deadline:
            return events
        time.sleep(0.01)


def _of(events: dict[str, list[dict[str, Any]]], name: str) -> list[dict[str, Any]]:
    return [e for log in events.values() for e in log if e["event"] == name]


def layer_metrics(p: ServePass) -> dict[str, float]:
    """``runner.*`` from the daemon's event logs, ``service.*`` from the client."""
    starts = {sid: next((e["ts"] for e in log if e["event"] == "submission_start"), None)
              for sid, log in p.events.items()}
    ends = {sid: next((e["ts"] for e in log if e["event"] == "submission_end"), None)
            for sid, log in p.events.items()}
    batch_starts = _of(p.events, "batch_start")
    batch_ends = _of(p.events, "batch_end")
    capacity = sum(e["wall_s"] * e["workers"] for e in batch_ends)
    unique = sum(e["unique"] for e in batch_starts)
    waits = [starts[s["id"]] - s["submitted"] for s in p.sweeps
             if starts.get(s["id"]) is not None]
    lags = [(s["seen"] - ends[s["id"]]) * 1000.0 for s in p.sweeps
            if ends.get(s["id"]) is not None]
    return {
        "runner.job_busy_s": sum(e["wall_s"] for e in _of(p.events, "job_finish")),
        "runner.pool_util": sum(e["busy_s"] for e in batch_ends) / capacity
        if capacity else 0.0,
        "runner.store_hit_frac": sum(e["cache_hits"] for e in batch_starts) / unique
        if unique else 0.0,
        "service.submit_ms": median(p.submit_ms),
        "service.results_ms": median(p.results_ms),
        "service.queue_wait_s": median(waits) if waits else 0.0,
        "service.notify_lag_ms": median(lags) if lags else 0.0,
        "service.coalesced_frac": p.coalesced / p.duplicates if p.duplicates else 0.0,
        "service.refused": p.refused,
    }


def _best_busy_s(passes: list[ServePass]) -> float:
    """In-worker seconds of the pass's jobs, each at its best pass."""
    best: dict[str, float] = {}
    for p in passes:
        for e in _of(p.events, "job_finish"):
            best[e["key"]] = min(e["wall_s"], best.get(e["key"], e["wall_s"]))
    return sum(best.values())


def _verify(specs, passes: list[ServePass], outcome: Outcome) -> int:
    """Check daemon results against in-process runs; returns their instructions.

    Every fresh sweep's results must be byte-identical to
    ``runs_to_text`` over in-process runs of the same jobs.
    """
    runs: dict[tuple[str, str, int], Any] = {}
    spans = SpanLog()
    for spec in specs:
        for job in spec_jobs(spec):
            key = (job.label, job.benchmark, job.seed)
            if key not in runs:
                result = run_job(job, spans)
                outcome.check(result.metrics is not None,
                              f"in-process {key} failed: {result.error}")
                runs[key] = result.metrics
    if outcome.failed:
        return 0
    for n, spec in enumerate(specs):
        expected = runs_to_text(
            [runs[j.label, j.benchmark, j.seed] for j in spec_jobs(spec)], "csv")
        for p in passes:
            outcome.check(p.sweeps[n]["text"] == expected,
                          f"daemon results of sweep {n} differ from in-process runs")
    return sum(m.instructions for m in runs.values())


def measure(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    specs = sweep_specs(seed)
    setups: list[float] = []
    passes: list[ServePass] = []

    def one_pass() -> ServePass | None:
        daemon = Daemon(workdir)
        setups.append(daemon.setup_s)
        try:
            p = run_pass(daemon, specs, outcome)
        finally:
            error = daemon.drain()
        outcome.check(not error, error)
        complete = len(p.sweeps) == len(specs) and len(p.hit_ms) == HITS
        return p if complete else None

    deadline = time.perf_counter() + OVERRUN * seconds
    for n in range(max(MIN_PASSES, int(seconds // NOMINAL_CYCLE_S))):
        if n >= MIN_PASSES and time.perf_counter() > deadline:
            break
        p = one_pass()
        if p is None:
            return outcome
        passes.append(p)
    traced = one_pass() if trace else None
    if trace and traced is None:
        return outcome
    while len(setups) < SETUP_SAMPLES:
        daemon = Daemon(workdir)
        setups.append(daemon.setup_s)
        error = daemon.drain()
        outcome.check(not error, error)

    instructions = _verify(specs, passes + ([traced] if traced else []), outcome)
    if outcome.failed:
        return outcome
    hits = summarize([ms for p in passes for ms in p.hit_ms])
    fresh = [s for p in passes for s in p.fresh_s]
    # Each operation at its best pass: co-tenants on a shared host slow
    # whole multi-second stretches by up to 2x, and an operation's passes
    # fall in different stretches.
    best_fresh = [min(p.fresh_s[i] for p in passes) for i in range(len(specs))]
    best_hit_ms = [min(p.hit_ms[k] for p in passes) for k in range(HITS)]
    busy = _best_busy_s(passes)
    outcome.check(busy > 0, "no job_finish events in the daemon's event logs")
    outcome.e2e.update({
        "setup_s": median(setups),
        "wall_s": sum(best_fresh) + sum(best_hit_ms) / 1000.0,
        "sim_kinstr_per_s": instructions / busy / 1000.0 if busy else 0.0,
        "op_p50_ms": median(best_hit_ms),
    })
    outcome.report.update({
        "fresh_p50_s": (median(fresh), "s"),
        "hit_p50_ms": (hits["p50"], "ms"),
        "hit_p90_ms": (hits.get("tail", 0.0), "ms"),
    })
    outcome.samples.update({"passes": len(passes), "setup": len(setups),
                            "fresh_latency": len(fresh), "hit_latency": hits["n"]})
    if traced is not None:
        outcome.layers.update(layer_metrics(traced))
        outcome.layers["trace.overhead_s"] = (
            traced.wall_s - median([p.wall_s for p in passes]))
        outcome.spans = traced.spans.spans
    return outcome
