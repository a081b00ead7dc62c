"""The paper's characterization methodology.

Four instruments, one per artifact of the paper:

* :mod:`repro.core.latency_profile` — Figure 1's latency-tolerance sweep;
* :mod:`repro.core.congestion` — Section III's queue-occupancy measurement;
* :mod:`repro.core.design_space` — Table I's parameter groups and scaling;
* :mod:`repro.core.explorer` / :mod:`repro.core.synergy` — Section IV's
  isolated and synergistic bandwidth-scaling experiments.
"""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.metrics import RunMetrics, run_kernel
    from repro.core.latency_profile import LatencyProfile, profile_latency_tolerance
    from repro.core.congestion import CongestionReport, measure_congestion
    from repro.core.design_space import (
        TABLE_I,
        DesignParameter,
        scale_level,
        scale_levels,
        scaled_config,
    )
    from repro.core.explorer import ExplorationResult, explore_design_space
    from repro.core.synergy import SynergyAnalysis, analyze_synergy
    from repro.core.latency_breakdown import LatencyBreakdown, measure_latency_breakdown
    from repro.core.bottleneck import Bottleneck, Diagnosis, classify, diagnose_suite
    from repro.core.cost_model import cost_effectiveness, pareto_frontier
    from repro.core.scaling_curve import ScalingCurve, sweep_scaling_coefficient
    from repro.core.replication import Replication, ReplicationReport, replicate
    from repro.core.validation import Check, ValidationReport, validate_reproduction

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.metrics": ("RunMetrics", "run_kernel"),
    "repro.core.latency_profile": (
        "LatencyProfile", "profile_latency_tolerance",
    ),
    "repro.core.congestion": ("CongestionReport", "measure_congestion"),
    "repro.core.design_space": (
        "TABLE_I", "DesignParameter", "scale_level", "scale_levels",
        "scaled_config",
    ),
    "repro.core.explorer": ("ExplorationResult", "explore_design_space"),
    "repro.core.synergy": ("SynergyAnalysis", "analyze_synergy"),
    "repro.core.latency_breakdown": (
        "LatencyBreakdown", "measure_latency_breakdown",
    ),
    "repro.core.bottleneck": (
        "Bottleneck", "Diagnosis", "classify", "diagnose_suite",
    ),
    "repro.core.cost_model": ("cost_effectiveness", "pareto_frontier"),
    "repro.core.scaling_curve": ("ScalingCurve", "sweep_scaling_coefficient"),
    "repro.core.replication": ("Replication", "ReplicationReport", "replicate"),
    "repro.core.validation": (
        "Check", "ValidationReport", "validate_reproduction",
    ),
})
