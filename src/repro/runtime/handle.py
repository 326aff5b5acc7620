"""The user-facing runtime library (paper Figure 3c and Section II-C3).

``FpgaHandle`` is the Python analogue of ``fpga_handle_t``: it owns the
allocator for the accelerator memory space, provides DMA routines between the
host and device domains, and sends commands through the runtime server.
Sending a command returns a :class:`ResponseHandle` future whose ``get()``
advances the simulation until the accelerator responds — the same blocking
semantics the generated C++ gives on real hardware.

With a :class:`WatchdogConfig` installed the handle also owns *graceful
degradation*: cores the server quarantines are marked degraded and later
commands (including watchdog retries) are transparently rerouted to the next
healthy core of the same system, so a wedged core costs throughput, not
correctness.  Detected data corruption (``err`` beats poisoning the fault
state) turns a completed command into a retry or a typed
:class:`FaultedResponse` — never silently wrong data.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.command.rocc import RoccInstruction, RoccResponse
from repro.faults.errors import CommandTimeout, CoreQuarantined, FaultedResponse
from repro.obs.registry import Counter
from repro.runtime.allocator import make_allocator
from repro.runtime.server import CommandContext, RuntimeServer, WatchdogConfig
from repro.sim import DeadlockError, PartitionSyncTimeout


class RemotePtr:
    """A device-memory allocation with a host-side shadow buffer.

    On discrete platforms the shadow models the host copy of the data and
    ``copy_to_fpga``/``copy_from_fpga`` move bytes across PCIe; on embedded
    platforms host and device share memory, so the "shadow" writes through
    immediately and the copies are coherence no-ops.
    """

    def __init__(self, handle: "FpgaHandle", fpga_addr: int, size: int) -> None:
        self._handle = handle
        self.fpga_addr = fpga_addr
        self.size = size
        self._host = bytearray(size)

    def get_host_addr(self) -> bytearray:
        """Host-side view (paper: ``mem.getHostAddr()``)."""
        return self._host

    def write(self, data: bytes, offset: int = 0) -> None:
        if offset < 0:
            raise ValueError("negative write offset")
        if offset + len(data) > self.size:
            raise ValueError("write past end of allocation")
        self._host[offset : offset + len(data)] = data
        if not self._handle.discrete:
            self._handle._store_write(self.fpga_addr + offset, bytes(data))

    def read(self, length: Optional[int] = None, offset: int = 0) -> bytes:
        if offset < 0:
            raise ValueError("negative read offset")
        length = self.size - offset if length is None else length
        if length < 0:
            raise ValueError("negative read length")
        if offset + length > self.size:
            raise ValueError("read past end of allocation")
        if not self._handle.discrete:
            return self._handle._store_read(self.fpga_addr + offset, length)
        return bytes(self._host[offset : offset + length])

    def offset(self, n: int) -> int:
        """Device address at byte offset ``n`` (pointer arithmetic)."""
        if n < 0 or n > self.size:
            raise ValueError("offset outside allocation")
        return self.fpga_addr + n

    def __len__(self) -> int:
        return self.size


class ResponseHandle:
    """Future for one in-flight accelerator command.

    Completes either with a response or with a typed error (watchdog
    timeout, quarantine, detected corruption); ``get``/``try_get`` raise the
    stored error rather than returning bad data.
    """

    def __init__(self, handle: "FpgaHandle", response_spec) -> None:
        self._handle = handle
        self._spec = response_spec
        self._response: Optional[RoccResponse] = None
        self._error: Optional[Exception] = None
        self._callbacks: list = []
        self.submitted_cycle = handle.design.sim.cycle

    def _complete(self, resp: RoccResponse) -> None:
        if self._error is None and self._response is None:
            self._response = resp
            self._notify()

    def _fail(self, exc: Exception) -> None:
        # First outcome wins; a late response after a typed error is dropped.
        if self._error is None and self._response is None:
            self._error = exc
            self._notify()

    def _notify(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def add_done_callback(self, fn) -> None:
        """Invoke ``fn(self)`` exactly once when the future settles.

        Fires from inside the runtime server's poll tick (or immediately if
        already settled) — the same mid-tick context the watchdog's retry
        resubmission runs in, so callbacks may safely submit new commands.
        Retries are invisible here: only the terminal outcome notifies.
        """
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    @property
    def done(self) -> bool:
        return self._response is not None or self._error is not None

    def try_get(self) -> Optional[Dict[str, object]]:
        """Non-blocking check (paper: ``try_get``)."""
        if self._error is not None:
            raise self._error
        if self._response is None:
            return None
        return self._decode()

    def get(
        self, max_cycles: int = 10_000_000, timeout_cycles: Optional[int] = None
    ) -> Dict[str, object]:
        """Block (advance simulation) until the response arrives.

        ``timeout_cycles`` bounds how long *this wait* may run: past it the
        wait raises :class:`CommandTimeout` (carrying the kernel's structured
        deadlock dump) instead of the generic deadlock error.
        """
        budget = max_cycles if timeout_cycles is None else min(max_cycles, timeout_cycles)
        try:
            self._handle.run_until(lambda: self.done, budget)
        except DeadlockError as exc:
            if self._error is not None:
                raise self._error
            if isinstance(exc, PartitionSyncTimeout):
                # Infrastructure failure (a partition worker died or missed
                # its slice barrier) — never convert into a model-level
                # CommandTimeout, which the watchdog would retry.
                raise
            if timeout_cycles is not None:
                raise CommandTimeout(
                    f"no response within timeout_cycles={timeout_cycles}",
                    dump=exc.dump,
                ) from exc
            raise
        if self._error is not None:
            raise self._error
        return self._decode()

    def _decode(self) -> Dict[str, object]:
        if self._spec is None or not self._spec.fields:
            return {"ok": True}
        return self._spec.unpack(self._response.data)

    @property
    def latency_cycles(self) -> Optional[int]:
        if self._response is None:
            return None
        return self._completed_cycle - self.submitted_cycle

    def _note_completion_cycle(self, cycle: int) -> None:
        self._completed_cycle = cycle


class FpgaHandle:
    """Open handle to the Beethoven runtime for one elaborated design."""

    def __init__(self, design, watchdog: Optional[WatchdogConfig] = None) -> None:
        self.design = design
        platform = design.platform
        self.discrete = platform.host.discrete
        self.allocator = make_allocator(
            self.discrete, platform.memory_base, platform.memory_bytes
        )
        wd = watchdog or getattr(design, "watchdog", None) or WatchdogConfig()
        self.server = RuntimeServer(
            design.mmio,
            platform.host,
            spans=getattr(design, "span_tracker", None),
            watchdog=wd,
            tracer=getattr(design, "tracer", None),
        )
        self.server.on_quarantine = self._mark_degraded
        #: Cores taken out of rotation by the watchdog.
        self.degraded_cores: Set[Tuple[int, int]] = set()
        #: FaultState of the compiled FaultPlan, when one was elaborated in.
        self.faults = getattr(design, "faults", None)
        design.sim.add(self.server)
        self.dma_cycles_spent = 0
        self._next_client = 0
        # uid -> {"ctx", "fut", "make_cb"} for every call() issued through
        # this handle.  The snapshot layer serialises in-flight commands by
        # uid; on restore (after the host-side setup has been replayed so
        # the uids line up) it resolves them back to the live context and
        # future and rebuilds the response callback via make_cb.
        self._calls: Dict[int, Dict[str, object]] = {}
        self._call_uid = 0
        self.server._host_calls = self._calls

    # ------------------------------------------------------------ memory API
    def malloc(self, n_bytes: int) -> RemotePtr:
        addr = self.allocator.malloc(n_bytes)
        return RemotePtr(self, addr, n_bytes)

    def free(self, ptr: RemotePtr) -> None:
        self.allocator.free(ptr.fpga_addr)

    def _store_write(self, addr: int, data: bytes) -> None:
        self.design.controller.store.write(addr, data)

    def _store_read(self, addr: int, length: int) -> bytes:
        return self.design.controller.store.read(addr, length)

    def copy_to_fpga(self, ptr: RemotePtr) -> None:
        """DMA host -> device (no-op coherence sync on embedded)."""
        self._store_write(ptr.fpga_addr, bytes(ptr.get_host_addr()))
        self._advance_dma(ptr.size)

    def copy_from_fpga(self, ptr: RemotePtr) -> None:
        """DMA device -> host."""
        data = self._store_read(ptr.fpga_addr, ptr.size)
        ptr.get_host_addr()[:] = data
        self._advance_dma(ptr.size)

    def _advance_dma(self, n_bytes: int) -> None:
        host = self.design.platform.host
        if self.discrete and host.dma_bytes_per_cycle > 0:
            cycles = int(n_bytes / host.dma_bytes_per_cycle) + 1
            self.dma_cycles_spent += cycles
            self.run_cycles(cycles)

    # ------------------------------------------------------------ processes
    def new_client(self, name: str = "") -> "ClientHandle":
        """A second process sharing this runtime (paper Section II-C2).

        Clients share the card's allocator state (held host-side, so their
        allocations never conflict) and are served round-robin by the
        runtime server's command arbitration.
        """
        self._next_client += 1
        return ClientHandle(self, self._next_client, name or f"client{self._next_client}")

    # ------------------------------------------------------------ degradation
    def _mark_degraded(self, key: Tuple[int, int]) -> None:
        self.degraded_cores.add(key)

    def _route_core(self, system, core_idx: int) -> int:
        """The preferred core, or the next healthy one of the same system."""
        n = len(system.cores)
        for k in range(n):
            idx = (core_idx + k) % n
            if (system.system_id, idx) not in self.degraded_cores:
                if k:
                    self.server.rerouted += 1
                    tracer = getattr(self.design, "tracer", None)
                    if tracer is not None:
                        tracer.record(
                            self.design.sim.cycle,
                            "watchdog",
                            "reroute",
                            {"from": (system.system_id, core_idx),
                             "to": (system.system_id, idx)},
                        )
                return idx
        raise CoreQuarantined(
            f"all {n} cores of system {system.config.name!r} are quarantined",
            key=(system.system_id, core_idx),
        )

    # ----------------------------------------------------------- command API
    def call(
        self,
        system_name: str,
        io_name: str,
        core_idx: int,
        _client: int = 0,
        _retryable: bool = True,
        _tenant: str = "",
        _batch: Optional[int] = None,
        **fields,
    ) -> ResponseHandle:
        """Send one custom command; returns a response future.

        ``_retryable=False`` marks the command non-idempotent: the watchdog
        will never re-issue it, and a timeout surfaces directly as a typed
        error on the future.  ``_tenant`` tags the command's span for
        per-tenant attribution and ``_batch`` groups compatible commands so
        the server amortises lock acquisition (both set by ``repro.serve``).
        """
        design = self.design
        system = next(
            (s for s in design.systems if s.config.name == system_name), None
        )
        if system is None:
            raise KeyError(f"no system {system_name!r}")
        if not 0 <= core_idx < len(system.cores):
            raise IndexError(
                f"core index {core_idx} out of range for {system_name!r} "
                f"({len(system.cores)} cores)"
            )
        core = system.cores[core_idx]
        io_index, io = next(
            (
                (i, io)
                for i, io in enumerate(core.ctx.ios)
                if io.command_spec.name == io_name
            ),
            (None, None),
        )
        if io is None:
            raise KeyError(f"no IO {io_name!r} on system {system_name!r}")
        handle = ResponseHandle(self, io.response_spec)
        ctx = CommandContext(
            key=(system.system_id, core_idx),
            label=io_name,
            retryable=_retryable,
        )
        ctx.resubmit = lambda: self._submit_command(
            system, io_index, io, core_idx, dict(fields), handle, ctx, _client,
            tenant=_tenant, batch=_batch,
        )
        ctx.on_error = handle._fail
        self._call_uid += 1
        ctx.uid = self._call_uid
        self._calls[ctx.uid] = {
            "ctx": ctx,
            "fut": handle,
            "make_cb": lambda: self._make_on_response(
                system, io_index, io, core_idx, dict(fields), handle, ctx,
                _client, _tenant, _batch,
            ),
        }
        self._submit_command(
            system, io_index, io, core_idx, dict(fields), handle, ctx, _client,
            tenant=_tenant, batch=_batch,
        )
        return handle

    def _submit_command(
        self, system, io_index, io, core_idx, fields, handle, ctx, client,
        tenant: str = "", batch: Optional[int] = None,
    ) -> None:
        """Issue (or re-issue) one command onto the next healthy core."""
        design = self.design
        routed = self._route_core(system, core_idx)
        ctx.key = (system.system_id, routed)
        chunks = io.command_spec.pack(fields, design.platform.addr_bits)
        on_response = self._make_on_response(
            system, io_index, io, core_idx, fields, handle, ctx, client,
            tenant, batch,
        )
        for i, (rs1, rs2) in enumerate(chunks):
            last = i == len(chunks) - 1
            inst = RoccInstruction(
                system_id=system.system_id,
                core_id=routed,
                funct7=io_index,
                rs1=rs1,
                rs2=rs2,
                xd=last,  # only the completing chunk expects a response
                rd=1,
            )
            self.server.submit(
                inst,
                on_response if last else None,
                design.sim.cycle,
                client=client,
                label=ctx.label,
                ctx=ctx if last else None,
                tenant=tenant,
                batch=batch,
            )

    def _make_on_response(
        self, system, io_index, io, core_idx, fields, handle, ctx, client,
        tenant: str = "", batch: Optional[int] = None,
    ) -> "Callable[[RoccResponse], None]":
        """Response callback for one logical command.

        Factored out of :meth:`_submit_command` so snapshot restore can
        rebuild a behaviourally identical callback for a command that was in
        flight at capture time: every closed-over value is retry-invariant
        (the routed core only affects the already-encoded command words and
        ``ctx.key``, both of which the snapshot carries explicitly).
        """
        design = self.design

        def on_response(resp: RoccResponse) -> None:
            faults = self.faults
            if faults is not None:
                poison = faults.take_poison(ctx.key)
                if poison:
                    # Detected corruption: the data this response summarises
                    # is suspect.  Re-run if allowed, else fail typed.
                    if (
                        ctx.retryable
                        and ctx.attempts - 1 < self.server.watchdog.max_retries
                    ):
                        ctx.attempts += 1
                        self.server.retries += 1
                        try:
                            self._submit_command(
                                system, io_index, io, core_idx, fields,
                                handle, ctx, client, tenant=tenant, batch=batch,
                            )
                        except Exception as exc:
                            handle._fail(exc)
                        return
                    handle._fail(
                        FaultedResponse(
                            f"command {ctx.label!r} on core {ctx.key} completed "
                            f"with {len(poison)} detected data fault(s)",
                            key=ctx.key,
                            attempts=ctx.attempts,
                            events=poison,
                        )
                    )
                    return
                if ctx.attempts > 1:
                    faults.note_recovery(
                        design.sim.cycle,
                        "runtime/handle",
                        f"{ctx.label} ok after {ctx.attempts} attempts",
                    )
            handle._note_completion_cycle(design.sim.cycle)
            handle._complete(resp)

        return on_response

    # ----------------------------------------------------------- snapshot
    def snapshot_state(self, fr) -> Dict[str, object]:
        """Host-side state for ``repro.snapshot``: allocator, degradation
        bookkeeping, and the outcome of every command issued so far.

        Futures are addressed by command uid — restore runs after the host
        setup has been *replayed* against a rebuilt design (recreating the
        same uids in the same order) and overwrites each future's outcome in
        place.  Host shadow buffers (:class:`RemotePtr`) are not captured;
        the replay rewrites them, and device memory is restored through the
        memory store's component state.
        """
        calls = {}
        for uid, rec in self._calls.items():
            fut = rec["fut"]
            calls[uid] = {
                "response": fr.freeze(fut._response),
                "error": fr.freeze(fut._error),
                "submitted_cycle": fut.submitted_cycle,
                "completed_cycle": getattr(fut, "_completed_cycle", None),
            }
        return {
            "allocator": fr.freeze_attrs(self.allocator),
            "degraded_cores": sorted(self.degraded_cores),
            "dma_cycles_spent": self.dma_cycles_spent,
            "next_client": self._next_client,
            "calls": calls,
        }

    def restore_state(self, state: Dict[str, object], th) -> None:
        th.pair_attrs(self.allocator, state["allocator"])
        th.thaw_attrs(self.allocator, state["allocator"])
        self.degraded_cores.clear()
        self.degraded_cores.update(tuple(k) for k in state["degraded_cores"])
        self.dma_cycles_spent = state["dma_cycles_spent"]
        self._next_client = state["next_client"]
        for uid, st in state["calls"].items():
            rec = self._calls.get(uid)
            if rec is None:
                th.unresolved += 1
                continue
            fut = rec["fut"]
            fut._response = th.thaw(st["response"])
            fut._error = th.thaw(st["error"])
            fut.submitted_cycle = st["submitted_cycle"]
            if st["completed_cycle"] is not None:
                fut._completed_cycle = st["completed_cycle"]
            if fut.done:
                # This outcome fired before the checkpoint: its callback
                # effects are already part of the restored state (metrics,
                # counters), so replay-registered callbacks must not fire
                # again.
                fut._callbacks = []

    # ------------------------------------------------------------- sim plumbing
    def run_until(self, predicate, max_cycles: int = 10_000_000) -> int:
        if predicate is not None and predicate():
            return self.cycle  # already settled: no wake-all, no channel-stat sync
        return self.design.sim.run(max_cycles, until=predicate)

    def run_cycles(self, n: int) -> None:
        """Let ``n`` cycles pass through the design's configured scheduler."""
        self.design.sim.run(n)

    @property
    def cycle(self) -> int:
        return self.design.sim.cycle


class ClientHandle:
    """A process-local view of a shared :class:`FpgaHandle`.

    Allocations go through the shared (host-resident) allocator, so separate
    clients never receive overlapping device memory; commands are tagged
    with the client id and arbitrated fairly by the runtime server.

    **FIFO-per-client guarantee**: commands submitted through one client are
    dispatched onto the MMIO bus in exactly their submission order.  The
    server round-robins *between* clients but each client's queue is a strict
    FIFO, checked per dispatch (``runtime/server/fifo_violations`` stays 0).
    Per-client traffic counters are published under ``serve/client/<id>/``.
    """

    def __init__(self, handle: FpgaHandle, client_id: int, name: str) -> None:
        self._handle = handle
        self.client_id = client_id
        self.name = name
        #: Tenant this client fronts (set by the serving layer; spans carry it).
        self.tenant = ""
        self.submitted = Counter()
        self.completed = Counter()
        scope = handle.design.registry.scope(f"serve/client/{client_id}")
        scope.attach("submitted", self.submitted)
        scope.attach("completed", self.completed)
        scope.bind("in_flight", lambda: int(self.submitted) - int(self.completed))

    @property
    def in_flight(self) -> int:
        return int(self.submitted) - int(self.completed)

    def malloc(self, n_bytes: int) -> RemotePtr:
        return self._handle.malloc(n_bytes)

    def free(self, ptr: RemotePtr) -> None:
        self._handle.free(ptr)

    def copy_to_fpga(self, ptr: RemotePtr) -> None:
        self._handle.copy_to_fpga(ptr)

    def copy_from_fpga(self, ptr: RemotePtr) -> None:
        self._handle.copy_from_fpga(ptr)

    def call(
        self,
        system_name: str,
        io_name: str,
        core_idx: int,
        _retryable: bool = True,
        _batch: Optional[int] = None,
        **fields,
    ) -> ResponseHandle:
        fut = self._handle.call(
            system_name, io_name, core_idx,
            _client=self.client_id,
            _retryable=_retryable,
            _tenant=self.tenant,
            _batch=_batch,
            **fields,
        )
        self.submitted += 1
        fut.add_done_callback(lambda _f: self.completed.__iadd__(1))
        return fut


def bindings_for(handle: FpgaHandle, system_name: str):
    """Generated-style Python bindings: one callable per IO of the system.

    Mirrors the generated C++: ``b = bindings_for(h, "VectorAdd");
    resp = b.my_accel(core_idx, addend=…, vec_addr=…, n_eles=…)``.
    """

    class _Bindings:
        def __getattr__(self, io_name: str):
            def call(core_idx: int, **fields) -> ResponseHandle:
                return handle.call(system_name, io_name, core_idx, **fields)

            return call

    return _Bindings()
