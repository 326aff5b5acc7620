"""Host runtime: allocators, the runtime server, handles and futures."""

from repro._lazy import lazy_exports

_LAZY = {
    "CommandContext": "repro.runtime.server",
    "WatchdogConfig": "repro.runtime.server",
    "ClientHandle": "repro.runtime.handle",
    "AllocationError": "repro.runtime.allocator",
    "EmbeddedAllocator": "repro.runtime.allocator",
    "FirstFitAllocator": "repro.runtime.allocator",
    "HUGEPAGE_BYTES": "repro.runtime.allocator",
    "make_allocator": "repro.runtime.allocator",
    "FpgaHandle": "repro.runtime.handle",
    "RemotePtr": "repro.runtime.handle",
    "ResponseHandle": "repro.runtime.handle",
    "bindings_for": "repro.runtime.handle",
    "RuntimeServer": "repro.runtime.server",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
