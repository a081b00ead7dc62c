"""Memory-system primitives: requests, instrumented queues, delay pipes."""

from typing import TYPE_CHECKING

from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mem.request import AccessKind, MemoryRequest, RequestFactory
    from repro.mem.queue import StatQueue
    from repro.mem.pipe import DelayPipe

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mem.request": ("AccessKind", "MemoryRequest", "RequestFactory"),
    "repro.mem.queue": ("StatQueue",),
    "repro.mem.pipe": ("DelayPipe",),
})
