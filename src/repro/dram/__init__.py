"""DRAM channel model: flat bank state, scheduling policies, controller."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dram.bankstate import BankFile
    from repro.dram.scheduler import FCFSScheduler, FRFCFSScheduler, make_scheduler
    from repro.dram.controller import DRAMChannel

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dram.bankstate": ("BankFile",),
    "repro.dram.scheduler": (
        "FCFSScheduler", "FRFCFSScheduler", "make_scheduler",
    ),
    "repro.dram.controller": ("DRAMChannel",),
})
