"""Interconnect: flit-based crossbars between SMs and memory partitions."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.icnt.crossbar import Crossbar, PacketSink
    from repro.icnt.ring import RingNetwork

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.icnt.crossbar": ("Crossbar", "PacketSink"),
    "repro.icnt.ring": ("RingNetwork",),
})
