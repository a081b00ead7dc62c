"""The unit of batch execution: one simulation as a pure, picklable value.

A :class:`Job` captures everything that determines a simulation's outcome
— the frozen :class:`~repro.sim.config.GPUConfig`, the suite benchmark
name, the seed, the iteration scale and the cycle budget — and nothing
else, so it can cross a process boundary and serve as a cache key.
Kernels are referenced *by name* (closures inside
:class:`~repro.workloads.program.KernelProgram` do not pickle); the worker
rebuilds the kernel from the suite spec, which is deterministic.

:func:`Job.key` is a stable content hash over the config's dataclass
fields, the run parameters and :func:`code_version` (a digest of the
package's own sources), so results cached on disk are invalidated by any
change to either the experiment or the simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from numbers import Real
from pathlib import Path

from repro.core.metrics import RunMetrics, run_kernel
from repro.errors import UsageError
from repro.sim.config import GPUConfig
from repro.sim.engine import DEFAULT_MAX_CYCLES
from repro.workloads.suite import get_benchmark


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``.py`` source in the repro package.

    Part of every job key: a simulator change silently invalidates all
    cached results instead of serving metrics computed by old code.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class Job:
    """One ``run_kernel`` invocation as a value."""

    config: GPUConfig
    kernel_name: str
    seed: int = 1
    iteration_scale: float = 1.0
    max_cycles: int = DEFAULT_MAX_CYCLES

    def __post_init__(self) -> None:
        if not self.kernel_name or not isinstance(self.kernel_name, str):
            raise UsageError("Job.kernel_name must be a suite benchmark name")
        # Specs arrive from outside (service clients, manifests): a
        # non-number fails here as a usage error, not inside the run.
        for name, kind, noun in (
            ("seed", int, "an integer"),
            ("max_cycles", int, "an integer"),
            ("iteration_scale", Real, "a number"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise UsageError(f"Job.{name} must be {noun}, got {value!r}")
        if self.max_cycles < 1:
            raise UsageError("Job.max_cycles must be >= 1")
        if self.iteration_scale <= 0:
            raise UsageError("Job.iteration_scale must be > 0")

    def key(self) -> str:
        """Stable content hash identifying this job's result."""
        payload = json.dumps(
            {
                "config": dataclasses.asdict(self.config),
                "kernel": self.kernel_name,
                "seed": self.seed,
                "iteration_scale": self.iteration_scale,
                "max_cycles": self.max_cycles,
                "code": code_version(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """One-line human identification for logs and error summaries."""
        parts = [f"seed={self.seed}"]
        if self.iteration_scale != 1.0:
            parts.append(f"scale={self.iteration_scale}")
        if self.config.magic_memory:
            parts.append(f"magic_latency={self.config.magic_latency}")
        return f"{self.kernel_name}({', '.join(parts)})"

    def execute(self) -> RunMetrics:
        """Run the simulation in the current process."""
        kernel = get_benchmark(self.kernel_name, self.iteration_scale)
        return run_kernel(
            self.config, kernel, seed=self.seed, max_cycles=self.max_cycles
        )
