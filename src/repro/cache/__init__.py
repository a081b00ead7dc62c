"""Cache models: LRU tag arrays, MSHRs, L1D and L2 slices."""

from repro.cache.tag_array import LineState, TagArray
from repro.cache.mshr import MSHRTable
from repro.cache.l1 import L1DCache
from repro.cache.l2 import L2Slice

__all__ = [
    "LineState",
    "TagArray",
    "MSHRTable",
    "L1DCache",
    "L2Slice",
]
