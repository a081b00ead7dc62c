"""Cycle-level simulation kernel: components, engine, configuration."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.component import Component
    from repro.sim.engine import Simulator
    from repro.sim.config import (
        CoreConfig,
        DRAMConfig,
        GPUConfig,
        ICNTConfig,
        L1Config,
        L2Config,
        fermi_gtx480,
        small_gpu,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.component": ("Component",),
    "repro.sim.engine": ("Simulator",),
    "repro.sim.config": (
        "CoreConfig", "DRAMConfig", "GPUConfig", "ICNTConfig", "L1Config",
        "L2Config", "fermi_gtx480", "small_gpu",
    ),
})
