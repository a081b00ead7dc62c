"""Cycle-level simulation kernel: components, engine, configuration."""

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

__all__ = [
    "Component",
    "Simulator",
    "CoreConfig",
    "DRAMConfig",
    "GPUConfig",
    "ICNTConfig",
    "L1Config",
    "L2Config",
    "fermi_gtx480",
    "small_gpu",
]
