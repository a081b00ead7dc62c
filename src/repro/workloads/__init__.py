"""Workloads: kernel programs, address patterns, and the paper's benchmark suite."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.program import KernelProgram
    from repro.workloads.synthetic import SyntheticKernelSpec, build_kernel
    from repro.workloads.suite import BENCHMARKS, PAPER_SUITE, get_benchmark
    from repro.workloads.trace import (
        load_trace,
        parse_trace,
        record_program,
        save_trace,
        trace_kernel,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.program": ("KernelProgram",),
    "repro.workloads.synthetic": ("SyntheticKernelSpec", "build_kernel"),
    "repro.workloads.suite": ("BENCHMARKS", "PAPER_SUITE", "get_benchmark"),
    "repro.workloads.trace": (
        "load_trace", "parse_trace", "record_program", "save_trace",
        "trace_kernel",
    ),
})
