"""Cache models: LRU tag arrays, MSHRs, L1D and L2 slices."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cache.tag_array import LineState, TagArray
    from repro.cache.mshr import MSHRTable
    from repro.cache.l1 import L1DCache
    from repro.cache.l2 import L2Slice

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cache.tag_array": ("LineState", "TagArray"),
    "repro.cache.mshr": ("MSHRTable",),
    "repro.cache.l1": ("L1DCache",),
    "repro.cache.l2": ("L2Slice",),
})
