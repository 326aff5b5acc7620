"""Beethoven memory primitives: Readers, Writers, Scratchpads."""

from repro._lazy import lazy_exports

_LAZY = {
    "Reader": "repro.memory.reader",
    "ReaderTuning": "repro.memory.reader",
    "Writer": "repro.memory.writer",
    "WriterTuning": "repro.memory.writer",
    "Memory": "repro.memory.scratchpad",
    "Scratchpad": "repro.memory.scratchpad",
    "ScratchpadPort": "repro.memory.scratchpad",
    "SpReq": "repro.memory.scratchpad",
    "ReadRequest": "repro.memory.types",
    "WriteRequest": "repro.memory.types",
    "split_into_bursts": "repro.memory.types",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(globals(), _LAZY)
