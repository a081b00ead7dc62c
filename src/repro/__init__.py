"""repro — reproduction of *Characterizing Memory Bottlenecks in GPGPU
Workloads* (Dublish, Nagarajan, Topham; IISWC 2016).

A cycle-level GPU memory-hierarchy simulator (SIMT cores, L1D with MSHRs,
flit-based crossbars, banked L2 slices, FR-FCFS DRAM channels — all with
finite, instrumented queues and real back-pressure) plus the paper's
characterization methodology on top: the Figure 1 latency-tolerance
profile, the Section III queue-congestion measurement and the Table I /
Section IV design-space exploration.

Quickstart::

    from repro import small_gpu, get_benchmark, run_kernel

    metrics = run_kernel(small_gpu(), get_benchmark("lbm"))
    print(metrics.ipc, metrics.l2_accessq.full_fraction)
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.config import (
        CoreConfig,
        DRAMConfig,
        GPUConfig,
        ICNTConfig,
        L1Config,
        L2Config,
        fermi_gtx480,
        small_gpu,
        tiny_gpu,
    )
    from repro.gpu import GPU
    from repro.core.metrics import RunMetrics, run_kernel
    from repro.core.latency_profile import (
        DEFAULT_LATENCIES,
        LatencyProfile,
        profile_latency_tolerance,
    )
    from repro.core.congestion import CongestionReport, measure_congestion
    from repro.core.design_space import (
        TABLE_I,
        DesignParameter,
        render_table_i,
        scale_level,
        scale_levels,
        scaled_config,
    )
    from repro.core.explorer import (
        SECTION_IV_CONFIGS,
        ExplorationResult,
        explore_design_space,
        sweep_parameter,
    )
    from repro.core.synergy import SynergyAnalysis, analyze_synergy
    from repro.core.latency_breakdown import (
        LatencyBreakdown,
        congestion_share,
        measure_latency_breakdown,
    )
    from repro.core.bottleneck import (
        Bottleneck,
        Diagnosis,
        classify,
        diagnose_suite,
        render_diagnoses,
    )
    from repro.core.cost_model import (
        DEFAULT_COSTS,
        CostEffectiveness,
        configuration_cost,
        cost_effectiveness,
        pareto_frontier,
        render_cost_effectiveness,
    )
    from repro.core.scaling_curve import (
        ScalingCurve,
        render_scaling_curves,
        scale_level_by,
        sweep_scaling_coefficient,
    )
    from repro.core.replication import Replication, ReplicationReport, replicate
    from repro.core.validation import Check, ValidationReport, validate_reproduction
    from repro.runner.pool import BatchRunner
    from repro.runner.job import Job, code_version
    from repro.runner.cache import ResultCache
    from repro.telemetry.tracer import RequestTracer
    from repro.telemetry.timeseries import TimeSeriesProbe
    from repro.workloads.program import KernelProgram
    from repro.workloads.synthetic import SyntheticKernelSpec, build_kernel
    from repro.workloads.suite import BENCHMARKS, PAPER_SUITE, SPECS, get_benchmark

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.config": (
        "CoreConfig", "DRAMConfig", "GPUConfig", "ICNTConfig", "L1Config",
        "L2Config", "fermi_gtx480", "small_gpu", "tiny_gpu",
    ),
    "repro.gpu": ("GPU",),
    "repro.core.metrics": ("RunMetrics", "run_kernel"),
    "repro.core.latency_profile": (
        "DEFAULT_LATENCIES", "LatencyProfile", "profile_latency_tolerance",
    ),
    "repro.core.congestion": ("CongestionReport", "measure_congestion"),
    "repro.core.design_space": (
        "TABLE_I", "DesignParameter", "render_table_i", "scale_level",
        "scale_levels", "scaled_config",
    ),
    "repro.core.explorer": (
        "SECTION_IV_CONFIGS", "ExplorationResult", "explore_design_space",
        "sweep_parameter",
    ),
    "repro.core.synergy": ("SynergyAnalysis", "analyze_synergy"),
    "repro.core.latency_breakdown": (
        "LatencyBreakdown", "congestion_share", "measure_latency_breakdown",
    ),
    "repro.core.bottleneck": (
        "Bottleneck", "Diagnosis", "classify", "diagnose_suite",
        "render_diagnoses",
    ),
    "repro.core.cost_model": (
        "DEFAULT_COSTS", "CostEffectiveness", "configuration_cost",
        "cost_effectiveness", "pareto_frontier", "render_cost_effectiveness",
    ),
    "repro.core.scaling_curve": (
        "ScalingCurve", "render_scaling_curves", "scale_level_by",
        "sweep_scaling_coefficient",
    ),
    "repro.core.replication": ("Replication", "ReplicationReport", "replicate"),
    "repro.core.validation": (
        "Check", "ValidationReport", "validate_reproduction",
    ),
    "repro.runner.pool": ("BatchRunner",),
    "repro.runner.job": ("Job", "code_version"),
    "repro.runner.cache": ("ResultCache",),
    "repro.telemetry.tracer": ("RequestTracer",),
    "repro.telemetry.timeseries": ("TimeSeriesProbe",),
    "repro.workloads.program": ("KernelProgram",),
    "repro.workloads.synthetic": ("SyntheticKernelSpec", "build_kernel"),
    "repro.workloads.suite": (
        "BENCHMARKS", "PAPER_SUITE", "SPECS", "get_benchmark",
    ),
})
__all__.append("__version__")
