"""Typed errors for the fault-injection and runtime-hardening layer.

These are the *contract* of the chaos harness: under any seeded fault
schedule, a command either completes with verified output or surfaces as one
of these exceptions — never a hang, never silently wrong data.  They live in
their own module (importing nothing from the rest of the package) so the
simulation kernel, the runtime server and the host handle can all raise them
without import cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple


class FaultError(RuntimeError):
    """Base class for typed fault outcomes surfaced to the host."""

    _state = ("args", "key", "dump")

    def __init__(self, message: str, key: Optional[Tuple[int, int]] = None) -> None:
        super().__init__(message)
        #: (system_id, core_id) of the command this fault surfaced on, if known.
        self.key = key
        #: Optional structured state dump (e.g. from a DeadlockError cause).
        self.dump = None


class CommandTimeout(FaultError):
    """A command's response did not arrive within its deadline.

    Raised by ``ResponseHandle.get(timeout_cycles=...)`` on the host side and
    delivered through ``CommandContext.on_error`` when the runtime server's
    watchdog exhausts its retries.
    """

    _state = ("attempts",)

    def __init__(
        self,
        message: str,
        key: Optional[Tuple[int, int]] = None,
        attempts: int = 1,
        dump=None,
    ) -> None:
        super().__init__(message, key)
        self.attempts = attempts
        self.dump = dump


class FaultedResponse(FaultError):
    """A response arrived but the data path it summarises was corrupted.

    The modeled ECC/link-CRC machinery (``err`` beats) poisons the core's
    fault state; when the command completes, the poison converts the result
    into this error instead of silently handing corrupt data to the caller.
    """

    _state = ("attempts", "events")

    def __init__(
        self,
        message: str,
        key: Optional[Tuple[int, int]] = None,
        attempts: int = 1,
        events=(),
    ) -> None:
        super().__init__(message, key)
        self.attempts = attempts
        #: The FaultEvent records that poisoned this command.
        self.events = tuple(events)


class CoreQuarantined(FaultError):
    """No healthy core is left to run (or re-run) a command on.

    Raised synchronously by ``FpgaHandle.call`` / resubmission when every
    core of the addressed system has been quarantined by the watchdog.
    """

    _state = ()
