"""DRAM channel model: flat bank state, scheduling policies, controller."""

from repro.dram.bankstate import BankFile
from repro.dram.scheduler import FCFSScheduler, FRFCFSScheduler, make_scheduler
from repro.dram.controller import DRAMChannel

__all__ = [
    "BankFile",
    "FCFSScheduler",
    "FRFCFSScheduler",
    "make_scheduler",
    "DRAMChannel",
]
