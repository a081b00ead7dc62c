"""Wire protocol of the simulation service: line-JSON requests and specs.

One request is one JSON object on one line; one response is one JSON
object on one line (the ``events`` operation with ``follow`` streams
several).  The same protocol runs unchanged over a unix stream socket
(``repro serve --socket PATH``) or a loopback TCP socket (``--port N``),
so the client and tests never care which transport the daemon chose.

Three things live here, shared by daemon, server and client:

* **Submission specs.**  :func:`build_jobs` turns a client's JSON spec
  into concrete :class:`~repro.runner.Job`\\ s.  A spec is either a
  *sweep* (``{"sweep": {...}}`` — Section IV config labels x benchmarks
  x seeds, the same matrix ``repro campaign run`` shards) or an explicit
  job list (``{"jobs": [...]}``, each entry carrying a full config dict
  rebuilt through :func:`~repro.sim.config.config_from_dict`).
* **Submission identity.**  :func:`submission_id` hashes the submission's
  unique :meth:`Job.key` sequence, so byte-identical sweeps submitted by
  concurrent clients share one id — the daemon coalesces them onto one
  running campaign instead of simulating twice.
* **Typed errors.**  :class:`ServiceError` carries a machine-readable
  ``code`` (``queue-full``, ``draining``, ``unknown-job``, ...) that
  survives the wire round trip, so clients can distinguish backpressure
  from a genuine failure without parsing prose.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.profile import sweep_jobs
from repro.errors import ReproError
from repro.runner.job import Job
from repro.sim.config import NAMED_CONFIGS, GPUConfig, config_from_dict
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.workloads.suite import PAPER_SUITE

#: Bumped when the request/response layout changes.
PROTOCOL_VERSION = 1

#: Machine-readable error codes a response may carry.
ERROR_CODES = (
    "bad-request",    # malformed request or submission spec
    "queue-full",     # bounded submission queue rejected the submit
    "draining",       # daemon is draining: no new submissions
    "unknown-job",    # no submission with that id
    "not-done",       # results requested before the submission settled
    "incomplete",     # stored results vanished (store cleared externally)
    "internal",       # unexpected server-side failure
)


class ServiceError(ReproError):
    """A typed service failure that survives the wire round trip."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            code = "internal"
        self.code = code
        super().__init__(message)

    def to_payload(self) -> dict[str, Any]:
        return {"ok": False, "error": {"code": self.code, "message": str(self)}}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ServiceError":
        error = payload.get("error")
        if not isinstance(error, dict):
            return cls("internal", "malformed error response")
        return cls(
            str(error.get("code", "internal")),
            str(error.get("message", "service request failed")),
        )


def encode_line(payload: dict[str, Any]) -> bytes:
    """One protocol message: compact JSON plus the line terminator."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol message; raises ``bad-request`` on junk."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ServiceError("bad-request", f"malformed JSON request: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("bad-request", "request must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# submission specs
# ----------------------------------------------------------------------

def submission_id(keys: list[str]) -> str:
    """Content id of a submission: a hash of its unique job keys.

    Job keys already cover config, kernel, seed, scale, cycle budget and
    code digest, so two submissions share an id iff they describe the
    same simulations — the invariant the daemon's coalescing rides on.
    """
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()[:24]


def _base_config(raw: Any) -> GPUConfig:
    if raw is None:
        return NAMED_CONFIGS["small"]()
    if isinstance(raw, str):
        try:
            return NAMED_CONFIGS[raw]()
        except KeyError:
            raise ServiceError(
                "bad-request",
                f"unknown named config {raw!r}; choose from "
                + ", ".join(sorted(NAMED_CONFIGS)),
            ) from None
    if isinstance(raw, dict):
        try:
            return config_from_dict(raw)
        except ReproError as exc:
            raise ServiceError("bad-request", f"bad config dict: {exc}") from exc
    raise ServiceError("bad-request", "sweep config must be a name or a dict")


def _sweep_jobs(sweep: dict[str, Any]) -> list[Job]:
    """Validate a sweep spec, then expand it through :func:`sweep_jobs`."""
    base = _base_config(sweep.get("config"))
    labels = sweep.get("configs", ["baseline"])
    benchmarks = sweep.get("benchmarks", list(PAPER_SUITE))
    seeds = sweep.get("seeds", [1])
    for name, value in (
        ("configs", labels), ("benchmarks", benchmarks), ("seeds", seeds)
    ):
        if not isinstance(value, list) or not value:
            raise ServiceError(
                "bad-request", f"sweep {name!r} must be a non-empty list"
            )
    try:
        return sweep_jobs(
            base, labels, benchmarks, seeds,
            iteration_scale=sweep.get("scale", 1.0),
            max_cycles=sweep.get("max_cycles", DEFAULT_MAX_CYCLES),
        )
    except ReproError as exc:
        raise ServiceError("bad-request", str(exc)) from exc


def _explicit_jobs(raw_jobs: list[Any]) -> list[Job]:
    jobs: list[Job] = []
    for index, raw in enumerate(raw_jobs):
        if not isinstance(raw, dict):
            raise ServiceError(
                "bad-request", f"jobs[{index}] must be an object"
            )
        try:
            jobs.append(
                Job(
                    config_from_dict(raw.get("config", {})),
                    raw.get("kernel", ""),
                    seed=raw.get("seed", 1),
                    iteration_scale=raw.get("iteration_scale", 1.0),
                    max_cycles=raw.get("max_cycles", DEFAULT_MAX_CYCLES),
                )
            )
        except (ReproError, TypeError) as exc:
            raise ServiceError(
                "bad-request", f"jobs[{index}] is malformed: {exc}"
            ) from exc
    return jobs


def build_jobs(spec: dict[str, Any]) -> list[Job]:
    """Concrete jobs of one submission spec (sweep or explicit list)."""
    sweep = spec.get("sweep")
    raw_jobs = spec.get("jobs")
    if (sweep is None) == (raw_jobs is None):
        raise ServiceError(
            "bad-request",
            "a submission carries exactly one of 'sweep' or 'jobs'",
        )
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ServiceError("bad-request", "'sweep' must be an object")
        jobs = _sweep_jobs(sweep)
    else:
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ServiceError(
                "bad-request", "'jobs' must be a non-empty list"
            )
        jobs = _explicit_jobs(raw_jobs)
    if not jobs:
        raise ServiceError("bad-request", "submission describes no jobs")
    return jobs


def sweep_spec(
    config: str = "small",
    configs: list[str] | None = None,
    benchmarks: list[str] | None = None,
    seeds: list[int] | None = None,
    scale: float = 1.0,
    max_cycles: int | None = None,
) -> dict[str, Any]:
    """Convenience builder for the CLI: a sweep spec as the wire dict."""
    sweep: dict[str, Any] = {
        "config": config,
        "configs": list(configs) if configs else ["baseline"],
        "benchmarks": list(benchmarks) if benchmarks else list(PAPER_SUITE),
        "seeds": list(seeds) if seeds else [1],
        "scale": scale,
    }
    if max_cycles is not None:
        sweep["max_cycles"] = max_cycles
    return {"sweep": sweep}


def check_spec_types(spec: dict[str, Any]) -> None:
    """Early scalar validation shared by client and daemon."""
    if not isinstance(spec, dict):
        raise ServiceError("bad-request", "submission spec must be an object")
    sweep = spec.get("sweep")
    if isinstance(sweep, dict):
        scale = sweep.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or scale <= 0:
            raise ServiceError("bad-request", "sweep scale must be > 0")


__all__ = [
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ServiceError",
    "build_jobs",
    "check_spec_types",
    "decode_line",
    "encode_line",
    "submission_id",
    "sweep_spec",
]
