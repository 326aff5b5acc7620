"""The sharded-simulation engine: slice/barrier supervisor and workers.

:class:`DistSimulator` presents the ordinary :class:`repro.sim.Simulator`
driving surface (``cycle``/``step``/``run``/``add``/``register_channel``/
``registry``/``state_dump``) over a set of partition simulators produced by
:func:`repro.dist.partition.register_partitioned`.  Two engines share the
same slice loop:

* ``"serial"`` — every partition advances in-process, one slice at a time,
  with all bridges on the local transport.  This is the bit-identity
  reference: it exercises the exact cut structure without any IPC.
* ``"fork"`` — partitions 1..N-1 run in forked worker processes (farm-style
  private queue pairs, redirected stderr); cross-partition bridges run
  detached and their deltas are exchanged at slice barriers, along with
  fault-event deltas.  Workers are forked lazily at the first advance, after
  the runtime server and any late components have been added to partition 0.

The conservative-synchronization contract (slice width <= minimum bridge
latency) is established by the partitioner; the engine only has to ship
committed deltas at barriers and keep the partitions' cycle counters in
lockstep.  ``until`` predicates are evaluated at slice barriers **in both
engines**, so completion cycles are barrier-quantized identically.

A worker that dies, errors, or misses the barrier deadline surfaces as a
typed :class:`repro.sim.PartitionSyncTimeout` carrying whatever partition
state could still be collected.
"""

from __future__ import annotations

import time
import traceback
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.dist.config import DistConfig, DistError
from repro.dist.partition import PartitionPlan
from repro.farm.pool import _POLL_S, multiprocessing_context
from repro.sim import (
    DeadlockError,
    PartitionSyncTimeout,
    compact_state_dump,
    render_deadlock_report,
)
from repro.snapshot.engine import capture_partition_state, restore_partition_state


class _WorkerFailure(Exception):
    """Internal: a recoverable worker failure detected at a slice barrier.

    Raised by ``_fail_partition`` instead of the terminal
    :class:`PartitionSyncTimeout` while checkpoint-armed failover can still
    roll the run back; carries everything the terminal path would need if
    the restart budget runs out mid-recovery.
    """

    def __init__(self, child, message: str, status: str, child_dump=None) -> None:
        super().__init__(message)
        self.child = child
        self.message = message
        self.status = status
        self.child_dump = child_dump


def _fork_available() -> bool:
    """Fork-engine precondition: real ``fork`` start method (workers inherit
    the elaborated object graph; nothing is pickled at spawn time)."""
    try:
        ctx = multiprocessing_context()
        if getattr(ctx, "_name", getattr(ctx, "get_start_method", lambda: "")()) != "fork":
            return False
        a, b = ctx.Pipe(duplex=True)
        a.close()
        b.close()
        return True
    except Exception:  # pragma: no cover — sandboxed /dev/shm etc.
        return False


class MergedRegistry:
    """One metric namespace over every partition's registry.

    Reads (``dump``/``value``/``names``) merge all partitions; writes
    (``scope``/``bind``/``counter``...) go to partition 0's registry, which
    is where runtime/serving metrics belong.  Merge rules:

    * ``sim/cycles_total`` appears in every partition and must agree (the
      barrier keeps them in lockstep) — one copy survives;
    * other *stable*-key collisions must be value-equal (e.g. the constant
      ``trace/spans = 0`` each partition binds) — unequal values mean the
      cut leaked state and raise :class:`DistError`;
    * volatile collisions (per-partition wall-clock, tick counts) are kept
      under a ``@p<n>`` suffix.
    """

    def __init__(self, engine: "DistSimulator") -> None:
        self._engine = engine
        self._root = engine.root.registry

    # Writes -> root registry.
    def scope(self, prefix: str):
        return self._root.scope(prefix)

    def counter(self, name: str):
        return self._root.counter(name)

    def gauge(self, name: str):
        return self._root.gauge(name)

    def histogram(self, name: str, *args, **kwargs):
        return self._root.histogram(name, *args, **kwargs)

    def attach(self, name: str, metric, volatile: bool = False):
        return self._root.attach(name, metric, volatile=volatile)

    def bind(self, name: str, fn, volatile: bool = False):
        return self._root.bind(name, fn, volatile=volatile)

    def get(self, name: str):
        return self._root.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._root or name in self.dump()

    # Reads -> merged view.
    def dump(self, prefix: Optional[str] = None, stable_only: bool = False) -> Dict[str, Any]:
        merged = self._root.dump(prefix, stable_only=stable_only)
        for pid, part_dump, stable_keys in self._engine._partition_dumps(prefix, stable_only):
            stable = set(stable_keys)
            for key, value in part_dump.items():
                if key not in merged:
                    merged[key] = value
                    continue
                if key == "sim/cycles_total" or key in stable:
                    if merged[key] != value:
                        raise DistError(
                            f"stable metric {key!r} disagrees between the "
                            f"root partition ({merged[key]!r}) and partition "
                            f"{pid} ({value!r}): the cut leaked state"
                        )
                    continue
                merged[f"{key}@p{pid}"] = value
        return merged

    def value(self, name: str, default=0):
        if name in self._root:
            return self._root.value(name, default)
        return self.dump().get(name, default)

    def names(self, prefix: Optional[str] = None) -> List[str]:
        return list(self.dump(prefix).keys())

    def to_json(self, prefix: Optional[str] = None, indent: int = 2) -> str:
        import json

        return json.dumps(self.dump(prefix), indent=indent, sort_keys=True)

    def render_report(self, prefix: Optional[str] = None) -> str:
        lines = [f"{'metric':<58} value"]
        for name, value in sorted(self.dump(prefix).items()):
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"{name:<58} {shown}")
        return "\n".join(lines)


class _Child:
    """Supervisor-side record of one forked partition worker.

    ``conn`` is the supervisor's end of a duplex pipe.  Pipes (not queues):
    a barrier is a latency-bound round trip repeated every ``slice_width``
    cycles, and a ``Connection`` round trip is several times cheaper than a
    feeder-thread ``multiprocessing.Queue`` — on dense designs the barrier
    rate makes that difference the bulk of the sharding overhead.
    """

    def __init__(self, pid: int, process, conn, stderr_path: str) -> None:
        self.pid = pid
        self.process = process
        self.conn = conn
        self.stderr_path = stderr_path


def _child_main(pid, sim, bridges, fault_state, conn, stderr_path) -> None:
    """Worker body: apply inbound deltas, advance slices, post committed
    deltas back.  Any exception becomes an ("error", ...) reply carrying the
    partition's state dump, so the supervisor can attach it to the typed
    :class:`PartitionSyncTimeout`."""
    import os

    try:
        fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        os.dup2(fd, 2)
        os.close(fd)
    except OSError:
        pass  # diagnostics only
    egresses = [b for b in bridges if b.src == pid and b.cross_partition]
    ingress_of = {b.bridge_id: b.ingress for b in bridges if b.dst == pid and b.cross_partition}
    if fault_state is not None:
        # Everything logged pre-fork (compile-time hang schedules) is already
        # in the supervisor's copy — ship only post-fork deltas.
        fault_state.begin_partition_feed()
    while True:
        try:
            msg = conn.recv()
        except EOFError:  # supervisor went away
            return
        if msg is None or msg[0] == "stop":
            return
        try:
            kind = msg[0]
            if kind == "slice":
                _kind, n, inbound = msg
                for bid, batch in inbound:
                    ingress_of[bid].accept(batch)
                sim.run_slice(n)
                outs = [(b.bridge_id, b.egress.take_deltas()) for b in egresses]
                fd_ = fault_state.drain_deltas() if fault_state is not None else None
                conn.send(("done", pid, sim.cycle, outs, fd_))
            elif kind == "dump":
                _kind, prefix, stable_only, inbound = msg
                # Inbound deltas ride along so in-flight bridge items are
                # visible in the dump exactly as they would be in one process.
                for bid, batch in inbound:
                    ingress_of[bid].accept(batch)
                part_dump = sim.registry.dump(prefix, stable_only=stable_only)
                stable_keys = list(sim.registry.dump(prefix, stable_only=True))
                conn.send(("dumped", pid, part_dump, stable_keys))
            elif kind == "state":
                conn.send(("stated", pid, sim.state_dump()))
            elif kind == "snap":
                conn.send(("snapped", pid, capture_partition_state(sim, fault_state)))
            elif kind == "restore":
                _kind, payload = msg
                restore_partition_state(sim, payload, fault_state)
                conn.send(("restored", pid))
            else:  # pragma: no cover — protocol drift guard
                raise RuntimeError(f"unknown supervisor message {kind!r}")
        except Exception:
            tb = traceback.format_exc(limit=30)
            try:
                dump = sim.state_dump()
            except Exception:
                dump = {}
            try:
                conn.send(("error", pid, tb, dump))
            except (BrokenPipeError, OSError):
                pass
            return


def _shutdown_children(children: List[_Child]) -> None:
    import os

    for child in children:
        try:
            child.conn.send(("stop",))
        except Exception:
            pass
    for child in children:
        child.process.join(timeout=0.5)
        if child.process.is_alive():
            child.process.terminate()
            child.process.join(timeout=1.0)
        try:
            child.conn.close()
        except Exception:
            pass
        if child.stderr_path:
            try:
                os.unlink(child.stderr_path)
            except OSError:
                pass


class DistSimulator:
    """Slice/barrier supervisor presenting the single-``Simulator`` surface."""

    def __init__(
        self,
        plan: PartitionPlan,
        sims,
        config: DistConfig,
        fault_state=None,
    ) -> None:
        self.plan = plan
        self.sims = list(sims)
        self.config = config
        self.fault_state = fault_state
        self.root = self.sims[0]
        self.name = self.root.name + ":dist"
        self.slice_width = plan.slice_width
        if config.engine == "fork":
            if not _fork_available():
                raise DistError(
                    "engine='fork' needs the multiprocessing 'fork' start "
                    "method; use engine='serial' (or 'auto') here"
                )
            self.engine = "fork"
        elif config.engine == "serial":
            self.engine = "serial"
        else:
            self.engine = "fork" if _fork_available() else "serial"

        self._children: List[_Child] = []
        self._forked = False
        self._broken: Optional[Exception] = None
        self._finalizer = None
        #: Per-partition inbound delta buffers, shipped with the next message.
        self._inbound: Dict[int, List[Tuple[str, list]]] = {
            p: [] for p in range(plan.n_partitions)
        }
        self._root_egresses = [
            b for b in plan.bridges if b.src == 0 and b.cross_partition
        ]
        self._ingress_of = {b.bridge_id: b.ingress for b in plan.bridges}
        self._dst_of = {b.bridge_id: b.dst for b in plan.bridges}

        self._slices = 0
        self._barriers = 0
        self._items_shipped = 0
        self.barrier_wait_s = 0.0
        # Barrier-aligned checkpoint (cycle, root payload, worker payloads,
        # pending inbound deltas) + failover bookkeeping.
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._checkpoints = 0
        self._restarts = 0
        self.checkpoint_write_s = 0.0
        self._in_slice = False
        self.registry = MergedRegistry(self)
        # All dist/* metrics are volatile: they describe the execution
        # harness, not the modeled hardware, and differ across engines and
        # worker counts by design.
        scope = self.root.registry.scope("dist")
        scope.bind("partitions", lambda: self.plan.n_partitions, volatile=True)
        scope.bind("slice_width", lambda: self.slice_width, volatile=True)
        scope.bind("slices", lambda: self._slices, volatile=True)
        scope.bind("barriers", lambda: self._barriers, volatile=True)
        scope.bind("items_shipped", lambda: self._items_shipped, volatile=True)
        scope.bind("barrier_wait_s", lambda: self.barrier_wait_s, volatile=True)
        scope.bind("checkpoints", lambda: self._checkpoints, volatile=True)
        scope.bind("restarts", lambda: self._restarts, volatile=True)
        scope.bind("checkpoint_write_s", lambda: self.checkpoint_write_s, volatile=True)

    # --------------------------------------------------- simulator surface
    @property
    def cycle(self) -> int:
        return self.root.cycle

    @property
    def scheduling(self) -> str:
        return self.root.scheduling

    @property
    def tracer(self):
        return self.root.tracer

    def add(self, component) -> None:
        self.root.add(component)

    def register_channel(self, chan) -> None:
        self.root.register_channel(chan)

    def run_slice(self, n_cycles: int) -> int:
        if n_cycles > 0:
            self._advance(n_cycles)
        return self.cycle

    def run(self, max_cycles: int, until=None) -> int:
        deadline = self.cycle + max_cycles
        while self.cycle < deadline:
            if until is not None and until():
                return self.cycle
            self._advance(min(self.slice_width, deadline - self.cycle))
        if until is None or until():
            return self.cycle
        self._raise_deadlock(max_cycles)

    def state_dump(self) -> Dict[str, Any]:
        dump = self.root.state_dump()
        dump["partitions"] = self._gather_partition_states()
        return dump

    # ------------------------------------------------------------ slice loop
    def _advance(self, n: int) -> None:
        """Advance ``n`` cycles, in at most ``slice_width`` steps.

        ``target`` is absolute: a recoverable worker failure rolls every
        partition back to the last checkpoint (possibly several slices), and
        the loop then re-advances to the same barrier the call was headed
        for — so callers (and ``until`` evaluation in :meth:`run`) observe
        identical barrier cycles whether or not a recovery happened.
        Determinism makes skipping ``until`` checks on re-advanced slices
        sound: the pre-kill execution already passed those barriers with the
        predicate false.
        """
        if self._broken is not None:
            raise self._broken
        target = self.cycle + n
        while self.cycle < target:
            step = min(self.slice_width, target - self.cycle)
            self._in_slice = True
            try:
                if self.engine == "serial":
                    for sim in self.sims:
                        sim.run_slice(step)
                else:
                    self._advance_fork(step)
                self._slices += 1
                self._barriers += 1
                if self.engine == "serial":
                    cycles = {sim.cycle for sim in self.sims}
                    if len(cycles) != 1:
                        raise DistError(
                            f"partition cycle skew after slice: {sorted(cycles)}"
                        )
                self._maybe_checkpoint()
            except _WorkerFailure as failure:
                self._recover(failure)
            finally:
                self._in_slice = False

    # ----------------------------------------------------- checkpoint/failover
    def _recovery_armed(self) -> bool:
        """Turn a worker failure into a rollback instead of a terminal error?

        Only at slice barriers (dump/state collection has per-child protocol
        state a rollback could not rewind), only with a checkpoint to roll
        back to, and only while the restart budget lasts.
        """
        return (
            self._in_slice
            and self.engine == "fork"
            and self._checkpoint is not None
            and self._restarts < self.config.max_restarts
        )

    def _maybe_checkpoint(self) -> None:
        every = self.config.checkpoint_every_slices
        if every <= 0 or self.engine != "fork" or self._slices % every:
            return
        import copy

        t0 = time.perf_counter()
        payloads: Dict[int, Any] = {}
        for child in self._children:
            self._send(child, ("snap",))
        for child in self._children:
            _kind, pid, payload = self._collect(child, "snapped")
            payloads[pid] = payload
        self._checkpoint = {
            "cycle": self.root.cycle,
            "root": capture_partition_state(self.root, self.fault_state),
            "workers": payloads,
            # Deltas routed but not yet delivered ride the checkpoint too.
            "inbound": copy.deepcopy(self._inbound),
        }
        self._checkpoints += 1
        self.checkpoint_write_s += time.perf_counter() - t0

    def _recover(self, failure: _WorkerFailure) -> None:
        while True:
            if self._checkpoint is None or self._restarts >= self.config.max_restarts:
                self._fail_terminal(
                    failure.child, failure.message, failure.status, failure.child_dump
                )
            self._restarts += 1
            if self.tracer is not None:
                self.tracer.record(
                    self.root.cycle,
                    "dist",
                    "worker_restart",
                    {
                        "partition": failure.child.pid,
                        "status": failure.status,
                        "restart": self._restarts,
                        "rollback_to": self._checkpoint["cycle"],
                    },
                )
            try:
                self._restore_from_checkpoint()
                return
            except _WorkerFailure as nxt:
                failure = nxt

    def _restore_from_checkpoint(self) -> None:
        """Roll every partition back to the last barrier checkpoint.

        The supervisor's ``sims[1..]`` copies never advance after the fork,
        so killing the old workers and re-forking hands each fresh worker a
        pristine pre-fork partition; the checkpoint payload then overwrites
        its mutable state.  The supervisor's own fault state is restored
        *before* the re-fork so new workers inherit it and their
        ``begin_partition_feed()`` marks line up with the restored payload.
        """
        import copy

        ck = self._checkpoint
        self.shutdown()
        self._forked = False
        restore_partition_state(self.root, ck["root"], self.fault_state)
        self._inbound = copy.deepcopy(ck["inbound"])
        self._ensure_forked()
        for child in self._children:
            self._send(child, ("restore", ck["workers"][child.pid]))
        for child in self._children:
            self._collect(child, "restored")

    def _advance_fork(self, n: int) -> None:
        self._ensure_forked()
        for child in self._children:
            self._send(child, ("slice", n, self._take_inbound(child.pid)))
        self.root.run_slice(n)
        t0 = time.perf_counter()
        replies = [self._collect(child, "done") for child in self._children]
        self.barrier_wait_s += time.perf_counter() - t0

        deltas: List[Tuple[str, list]] = [
            (b.bridge_id, b.egress.take_deltas()) for b in self._root_egresses
        ]
        for _kind, pid, cycle, outs, fault_delta in replies:
            if cycle != self.root.cycle:
                self._break(DistError(
                    f"partition {pid} is at cycle {cycle}, root at "
                    f"{self.root.cycle}: barrier protocol violated"
                ))
            deltas.extend(outs)
            if fault_delta is not None and self.fault_state is not None:
                self.fault_state.absorb(*fault_delta)
        # Deterministic routing order; root-bound batches are applied now so
        # metric dumps between slices see every committed item, child-bound
        # batches ride the next message to that partition.
        for bid, batch in sorted(deltas):
            if not batch:
                continue
            self._items_shipped += len(batch)
            dst = self._dst_of[bid]
            if dst == 0:
                self._ingress_of[bid].accept(batch)
            else:
                self._inbound[dst].append((bid, batch))

    def _take_inbound(self, pid: int) -> List[Tuple[str, list]]:
        out = self._inbound[pid]
        self._inbound[pid] = []
        return out

    def _ensure_forked(self) -> None:
        if self._forked:
            return
        # Detach every cross-partition bridge *before* forking so the
        # workers inherit the detached flag.
        for spec in self.plan.bridges:
            if spec.cross_partition:
                spec.egress.detached = True
        import tempfile
        import os

        ctx = multiprocessing_context()
        for pid in range(1, self.plan.n_partitions):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            fd, stderr_path = tempfile.mkstemp(prefix=f"dist-p{pid}-", suffix=".stderr")
            os.close(fd)
            bridges = [
                b for b in self.plan.bridges
                if b.cross_partition and pid in (b.src, b.dst)
            ]
            process = ctx.Process(
                target=_child_main,
                args=(pid, self.sims[pid], bridges, self.fault_state,
                      child_conn, stderr_path),
                daemon=True,
            )
            process.start()
            child_conn.close()  # the worker holds its end; EOF detection needs ours only
            self._children.append(_Child(pid, process, parent_conn, stderr_path))
        self._forked = True
        self._finalizer = weakref.finalize(self, _shutdown_children, self._children)

    # --------------------------------------------------------- reply plumbing
    def _send(self, child: _Child, msg: tuple) -> None:
        try:
            child.conn.send(msg)
        except (BrokenPipeError, OSError):
            child.process.join(timeout=1.0)
            self._fail_partition(
                child,
                f"partition {child.pid} worker is gone (exit code "
                f"{child.process.exitcode}); could not deliver {msg[0]!r} "
                f"for the slice barrier at cycle {self.root.cycle}",
                status="dead",
            )

    def _collect(self, child: _Child, expected: str):
        deadline = time.monotonic() + self.config.barrier_timeout_s
        while True:
            try:
                ready = child.conn.poll(_POLL_S)
                msg = child.conn.recv() if ready else None
            except (EOFError, OSError):
                # The worker's end closed mid-message: it is gone, whatever
                # ``is_alive`` says while the exit is still being reaped.
                child.process.join(timeout=1.0)
                self._fail_partition(
                    child,
                    f"partition {child.pid} worker hung up (exit code "
                    f"{child.process.exitcode}) before reaching the slice "
                    f"barrier at cycle {self.root.cycle}",
                    status="dead",
                )
            if not ready:
                if not child.process.is_alive():
                    self._fail_partition(
                        child,
                        f"partition {child.pid} worker died (exit code "
                        f"{child.process.exitcode}) before reaching the slice "
                        f"barrier at cycle {self.root.cycle}",
                        status="dead",
                    )
                if time.monotonic() > deadline:
                    self._fail_partition(
                        child,
                        f"partition {child.pid} missed the slice barrier at "
                        f"cycle {self.root.cycle} "
                        f"(barrier_timeout_s={self.config.barrier_timeout_s})",
                        status="stalled",
                    )
                continue
            if msg[0] == "error":
                _kind, pid, tb, child_dump = msg
                self._fail_partition(
                    child,
                    f"partition {pid} worker raised during its slice:\n{tb}",
                    status="error",
                    child_dump=child_dump,
                )
            if msg[0] != expected:
                self._fail_partition(
                    child,
                    f"partition {child.pid} replied {msg[0]!r} when the "
                    f"supervisor expected {expected!r}",
                    status="protocol",
                )
            return msg

    def _stderr_tail(self, child: _Child, max_chars: int = 2000) -> str:
        import os

        try:
            with open(child.stderr_path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - max_chars))
                return fh.read().decode("utf-8", "replace").strip()
        except OSError:
            return ""

    def _fail_partition(self, child, message, status, child_dump=None):
        if self._recovery_armed():
            raise _WorkerFailure(child, message, status, child_dump)
        self._fail_terminal(child, message, status, child_dump)

    def _fail_terminal(self, child, message, status, child_dump=None):
        # Dumps are bounded before they ride the exception: a large design's
        # raw state dump (every channel and component of every partition)
        # can run to megabytes, which no log sink wants embedded in an error.
        dump = compact_state_dump(self.root.state_dump())
        info: Dict[str, Any] = {"status": status}
        tail = self._stderr_tail(child)
        if tail:
            info["stderr_tail"] = tail
        if child_dump:
            info["state_dump"] = compact_state_dump(child_dump)
        if self._restarts:
            info["restarts"] = self._restarts
        dump["partitions"] = {child.pid: info}
        exc = PartitionSyncTimeout(message, dump=dump, partition=child.pid)
        self._break(exc)

    def _break(self, exc: Exception) -> None:
        self._broken = exc
        self.shutdown()
        raise exc

    def shutdown(self) -> None:
        """Stop worker processes (idempotent; also runs via finalizer)."""
        if self._children:
            _shutdown_children(self._children)
            self._children = []
            if self._finalizer is not None:
                self._finalizer.detach()

    # ----------------------------------------------------- dumps & deadlock
    def _partition_dumps(self, prefix, stable_only):
        """[(pid, dump, stable_keys)] for partitions 1..N-1."""
        if self.engine == "serial" or not self._forked:
            out = []
            for pid in range(1, self.plan.n_partitions):
                reg = self.sims[pid].registry
                out.append((
                    pid,
                    reg.dump(prefix, stable_only=stable_only),
                    list(reg.dump(prefix, stable_only=True)),
                ))
            return out
        if self._broken is not None:
            return []
        out = []
        for child in self._children:
            self._send(child, ("dump", prefix, stable_only, self._take_inbound(child.pid)))
        for child in self._children:
            _kind, pid, part_dump, stable_keys = self._collect(child, "dumped")
            out.append((pid, part_dump, stable_keys))
        return out

    def _gather_partition_states(self) -> Dict[int, Any]:
        states: Dict[int, Any] = {}
        if self.engine == "serial" or not self._forked:
            for pid in range(1, self.plan.n_partitions):
                states[pid] = self.sims[pid].state_dump()
            return states
        if self._broken is not None:
            return states
        for child in self._children:
            self._send(child, ("state",))
        for child in self._children:
            _kind, pid, part_dump = self._collect(child, "stated")
            states[pid] = part_dump
        return states

    def _raise_deadlock(self, max_cycles: int) -> None:
        dump = self.state_dump()
        dump["partitions"] = {
            pid: compact_state_dump(pdump) if isinstance(pdump, dict) else pdump
            for pid, pdump in dump.get("partitions", {}).items()
        }
        dump = compact_state_dump(dump)
        message = (
            f"distributed simulation ran {max_cycles} cycles (to cycle "
            f"{self.cycle}) without the completion condition becoming true "
            f"across {self.plan.n_partitions} partitions\n"
            + render_deadlock_report(dump)
        )
        raise DeadlockError(message, dump)
