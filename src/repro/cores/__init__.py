"""SIMT cores: warps, warp schedulers, and streaming multiprocessors."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cores.warp import Warp, WarpState
    from repro.cores.scheduler import GTOScheduler, LRRScheduler, make_warp_scheduler
    from repro.cores.sm import SM
    from repro.cores.coalescer import Coalescer, CoalescingStats, coalesce

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cores.warp": ("Warp", "WarpState"),
    "repro.cores.scheduler": (
        "GTOScheduler", "LRRScheduler", "make_warp_scheduler",
    ),
    "repro.cores.sm": ("SM",),
    "repro.cores.coalescer": ("Coalescer", "CoalescingStats", "coalesce"),
})
