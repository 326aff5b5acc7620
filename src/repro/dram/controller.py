"""AXI4 memory controller over the bank-level DRAM model.

This is the slave every Beethoven memory subsystem ultimately talks to.  It
implements the mechanisms the paper's microbenchmark analysis hinges on:

* **Per-ID transaction serialisation** — transactions sharing an AXI ID are
  scheduled strictly in order (the behaviour of the Xilinx DDR controller the
  paper cites); transactions on *different* IDs are scheduled out of order by
  an FR-FCFS column scheduler.  This is why Beethoven's transaction-level
  parallelism (TLP, splitting one logical transfer over several IDs) wins and
  why HLS's single-ID streams suffer under load.
* **Row-buffer locality** — banks pay precharge+activate to switch rows, so
  fine-grained interleaving of many streams costs bandwidth.
* **Data-bus direction grouping** — the shared data bus pays a turnaround
  penalty when switching between reads and writes; the scheduler groups
  same-direction columns like real controllers do.
* **In-order per-ID return** — read data and write responses are returned in
  issue order within an ID (an AXI requirement), so a slow transaction blocks
  later same-ID transactions' data even when their columns already completed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.axi.monitor import MonitoredAxiPort
from repro.axi.types import BResp, RBeat
from repro.dram.bank import Bank
from repro.dram.store import MemoryStore
from repro.dram.timing import DramTiming
from repro.sim import Component


# The three records below are identities, not values (``eq=False``): the
# window, the per-bank index and the per-ID queues alias the same objects,
# and ``deque.remove``/``list.remove`` must find *that* object rather than
# compare ``beats`` lists field by field.
@dataclass(slots=True, eq=False)
class _ReadTxn:
    tag: int
    axi_id: int
    addr: int
    length: int
    accept_cycle: int
    cols_enqueued: int = 0
    cols_done: int = 0
    beats_sent: int = 0
    # (ready_cycle, data, err) per beat; err marks a modeled ECC failure.
    beats: List[Optional[Tuple[int, bytes, bool]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.beats = [None] * self.length


@dataclass(slots=True, eq=False)
class _WriteTxn:
    tag: int
    axi_id: int
    addr: int
    length: int
    accept_cycle: int
    # Accepted W data, one entry per beat: the payload and its byte strobe
    # (``None``: every byte valid).  Plain values, not ``WBeat``s, so a
    # capture copies two flat lists instead of freezing an object per beat.
    wdata: List[bytes] = field(default_factory=list)
    wstrb: List[Optional[bytes]] = field(default_factory=list)
    data_complete: bool = False
    cols_enqueued: int = 0
    cols_done: int = 0


@dataclass(slots=True, eq=False)
class _ColReq:
    txn: object
    beat_idx: int
    addr: int
    bank: int
    row: int
    is_write: bool
    enqueued_cycle: int
    seq: int  # arrival number: the key in the window, the FCFS tie-break


class MemoryController(Component):
    """FR-FCFS DDR controller with an AXI4 slave frontend.

    One body: the closure from :meth:`compile_tick`, which
    ``Component.tick`` runs under ``naive`` and the compiled program calls
    directly.  It selects from indexes (per-bank window lists, active-ID
    positions, R/B ready sets), so its work follows what is pending rather
    than what the controller holds; only the action helpers below write
    those containers.  Its reference is ``tests/dram_oracle.py``, a
    standalone model of the same policy that shares no code with this
    module.
    """

    # Optional fault injector (repro.faults): filters column reads, flipping
    # bits and marking the beat ``err`` (the modeled ECC detects the flip).
    _fault = None

    _state = ("_fault", "mport", "store", "banks", "stats", "_read_txns", "_write_txns",
              "_id_read_issue", "_id_read_return", "_id_write_issue", "_id_write_return",
              "_writes_awaiting_data", "_id_read_pipe", "_id_write_pipe", "_read_pos",
              "_write_pos", "_read_active", "_write_active", "_sched", "_sched_seq",
              "_bank_q", "_live_banks", "_bus_free_at", "_bus_dir_write", "_dir_streak",
              "_return_rr", "_rr_index", "_return_rr_pos", "_r_cand", "_b_ready")

    def __init__(
        self,
        mport: MonitoredAxiPort,
        timing: DramTiming,
        store: Optional[MemoryStore] = None,
        name: str = "mc",
    ) -> None:
        super().__init__(name)
        self.mport = mport
        self.port = mport.port
        self.timing = timing
        if self.port.params.beat_bytes != timing.col_bytes:
            raise ValueError(
                "AXI beat width must match the DRAM column width "
                f"({self.port.params.beat_bytes} != {timing.col_bytes})"
            )
        self.store = store if store is not None else MemoryStore(timing.col_bytes)
        self.banks = [Bank(timing) for _ in range(timing.n_banks)]

        self._read_txns: Dict[int, _ReadTxn] = {}
        self._write_txns: Dict[int, _WriteTxn] = {}
        self._id_read_issue: Dict[int, Deque[_ReadTxn]] = {}
        self._id_read_return: Dict[int, Deque[_ReadTxn]] = {}
        self._id_write_issue: Dict[int, Deque[_WriteTxn]] = {}
        self._id_write_return: Dict[int, Deque[_WriteTxn]] = {}
        self._writes_awaiting_data: Deque[_WriteTxn] = deque()
        # Per-ID, per-direction transaction pipelines: AXI orders same-ID
        # transactions within each direction (reads with reads, writes with
        # writes), and the controller processes at most ``per_id_txn_limit``
        # of each in order.  Short-burst single-ID masters (HLS) therefore
        # expose serialisation bubbles and fine-grained read/write bus
        # turnaround that multi-ID masters hide.
        self._id_read_pipe: Dict[int, Deque[object]] = {}
        self._id_write_pipe: Dict[int, Deque[object]] = {}
        # Active-ID index, per direction: each ID's position in its issue
        # dict (first-seen order) and the positions whose issue queue is
        # non-empty.  Walking the active positions in sorted order visits the
        # non-empty queues in dict order, which decides who gets the
        # window's last slots; ``_rr_index`` would not (an ID first seen as a
        # write sits elsewhere in it).
        self._read_pos: Dict[int, int] = {}
        self._write_pos: Dict[int, int] = {}
        self._read_active: Set[int] = set()
        self._write_active: Set[int] = set()
        # Scheduler window: arrival number -> column command, so dict order
        # is arrival order and removal is O(1).  ``_bank_q[b]`` indexes the
        # same commands by bank, each list in arrival order, and
        # ``_live_banks`` holds the banks whose list is non-empty.
        self._sched: Dict[int, _ColReq] = {}
        self._sched_seq = 0
        self._bank_q: List[List[_ColReq]] = [[] for _ in self.banks]
        self._live_banks: Set[int] = set()
        # ``timing.decompose``'s constants, read once per column.
        self._col_bytes = timing.col_bytes
        self._cols_per_row = timing.cols_per_row
        self._n_banks = timing.n_banks
        self._bus_free_at = 0
        self._bus_dir_write = False
        self._dir_streak = 0
        # Round-robin order of IDs for the R and B channels (first-seen
        # order) with its inverse map.  Only the R path advances the
        # pointer; B responses arbitrate from wherever R left it.
        self._return_rr: List[int] = []
        self._rr_index: Dict[int, int] = {}
        self._return_rr_pos = 0
        # IDs whose oldest unanswered read has its next beat back from DRAM
        # (possibly still inside the CAS latency), and IDs whose oldest
        # unanswered write has every column done.
        self._r_cand: Set[int] = set()
        self._b_ready: Set[int] = set()

        # Statistics: plain counts, published by the metric registry when
        # this controller joins a simulator.  Contention accounting
        # (repro.obs.attribution) reads ``row_conflicts`` (activations that
        # had to close an already-open row) and ``queue_wait_cycles`` (the
        # total cycles column commands sat in the scheduler window before
        # winning the bus).
        self.stats = dict.fromkeys(
            ("bus_cycles", "read_cols", "write_cols", "turnarounds", "row_hits", "row_misses",
             "refreshes", "row_conflicts", "queue_wait_cycles"), 0)

    @property
    def metric_path(self) -> str:
        return "dram/" + self.name.replace(".", "/")

    def register_metrics(self, scope) -> None:
        for key in self.stats:
            scope.bind(key, lambda key=key: self.stats[key])
        scope.bind("outstanding_txns", self._outstanding)
        scope.bind("sched_queue_depth", lambda: len(self._sched))
        scope.bind(
            "activations", lambda: sum(b.activations for b in self.banks)
        )
        # Per-bank row-buffer outcomes, for the contention accounter.
        for i, bank in enumerate(self.banks):
            scope.bind(f"bank{i}/activations", lambda b=bank: b.activations)
            scope.bind(f"bank{i}/row_hits", lambda b=bank: b.row_hits)
            scope.bind(f"bank{i}/row_misses", lambda b=bank: b.row_misses)

    # ------------------------------------------------------------------ helpers
    def _outstanding(self) -> int:
        return len(self._read_txns) + len(self._write_txns)

    def _note_id(self, axi_id: int) -> None:
        if axi_id not in self._rr_index:
            self._rr_index[axi_id] = len(self._return_rr)
            self._return_rr.append(axi_id)

    # ------------------------------------------------------------------ actions
    def _refresh(self, cycle: int) -> None:
        for bank in self.banks:
            bank.block_for_refresh(cycle)
        self.stats["refreshes"] += 1

    def _accept_read(self, req, cycle: int) -> None:
        txn = _ReadTxn(req.tag, req.axi_id, req.addr, req.length, cycle)
        self._read_txns[req.tag] = txn
        self._id_read_issue.setdefault(req.axi_id, deque()).append(txn)
        self._read_active.add(self._read_pos.setdefault(req.axi_id, len(self._read_pos)))
        self._id_read_return.setdefault(req.axi_id, deque()).append(txn)
        self._id_read_pipe.setdefault(req.axi_id, deque()).append(txn)
        self._note_id(req.axi_id)

    def _accept_write(self, req, cycle: int) -> None:
        txn = _WriteTxn(req.tag, req.axi_id, req.addr, req.length, cycle)
        self._write_txns[req.tag] = txn
        self._id_write_issue.setdefault(req.axi_id, deque()).append(txn)
        self._write_active.add(self._write_pos.setdefault(req.axi_id, len(self._write_pos)))
        self._id_write_return.setdefault(req.axi_id, deque()).append(txn)
        self._id_write_pipe.setdefault(req.axi_id, deque()).append(txn)
        self._writes_awaiting_data.append(txn)
        self._note_id(req.axi_id)

    def _accept_data(self, beat) -> None:
        """Keep ``beat``'s payload on the oldest write still awaiting data;
        its ``last`` flag ends that burst and is not stored."""
        head = self._writes_awaiting_data[0]
        head.wdata.append(beat.data)
        head.wstrb.append(beat.strb)
        if beat.last:
            head.data_complete = True
            self._writes_awaiting_data.popleft()

    def _window_add(self, txn, is_write: bool, cycle: int) -> None:
        """Move ``txn``'s next column command into the scheduler window."""
        idx = txn.cols_enqueued
        addr = txn.addr + idx * self._col_bytes
        # ``timing.decompose`` without the column.
        row, bank = divmod(addr // self._col_bytes // self._cols_per_row, self._n_banks)
        seq = self._sched_seq
        self._sched_seq = seq + 1
        req = _ColReq(txn, idx, addr, bank, row, is_write, cycle, seq)
        self._sched[seq] = req
        self._bank_q[bank].append(req)
        self._live_banks.add(bank)
        txn.cols_enqueued = idx + 1

    def _prep(self, req: _ColReq, cycle: int) -> None:
        """Switch ``req``'s bank to its row (precharge if one is open)."""
        bank = self.banks[req.bank]
        if bank.open_row is not None:
            self.stats["row_conflicts"] += 1
        bank.prep(req.row, cycle)

    def _issue(self, req: _ColReq, cycle: int) -> None:
        """Put the picked column on the data bus and leave the window."""
        stats = self.stats
        if req.is_write != self._bus_dir_write:
            self._bus_dir_write = req.is_write
            self._dir_streak = 1
            stats["turnarounds"] += 1
            self._bus_free_at = cycle + 1 + self.timing.t_bus_turn
        else:
            self._dir_streak += 1
            self._bus_free_at = cycle + 1
        stats["bus_cycles"] += 1
        stats["queue_wait_cycles"] += cycle - req.enqueued_cycle
        del self._sched[req.seq]
        q = self._bank_q[req.bank]
        if q[0] is req:
            del q[0]
        else:
            q.remove(req)
        if not q:
            self._live_banks.discard(req.bank)
        stats["row_hits" if self.banks[req.bank].record_access() else "row_misses"] += 1
        txn = req.txn
        if req.is_write:
            idx = req.beat_idx
            self.store.write(req.addr, txn.wdata[idx], txn.wstrb[idx])
            txn.cols_done += 1
            stats["write_cols"] += 1
            if (
                txn.cols_done >= txn.length
                and self._id_write_return[txn.axi_id][0] is txn
            ):
                self._b_ready.add(txn.axi_id)
        else:
            data = self.store.read(req.addr, self._col_bytes)
            err = False
            hook = self._fault
            if hook is not None:
                data, err = hook.filter_read(cycle, req.addr, data)
            txn.beats[req.beat_idx] = (cycle + self.timing.t_cl, data, err)
            txn.cols_done += 1
            stats["read_cols"] += 1
            if (
                req.beat_idx == txn.beats_sent
                and self._id_read_return[txn.axi_id][0] is txn
            ):
                self._r_cand.add(txn.axi_id)

    def _send_r(self, axi_id: int, cycle: int) -> None:
        """Return the next beat of ``axi_id``'s oldest unanswered read."""
        q = self._id_read_return[axi_id]
        txn = q[0]
        _ready, data, err = txn.beats[txn.beats_sent]
        last = txn.beats_sent == txn.length - 1
        self.mport.push_r(cycle, (axi_id, RBeat(data, last, txn.tag, err)))
        txn.beats_sent += 1
        if last:
            q.popleft()
            del self._read_txns[txn.tag]
            # Pipeline slot frees once the data has left the controller.
            self._retire(self._id_read_pipe, axi_id, txn)
            txn = q[0] if q else None
        if txn is None or txn.beats[txn.beats_sent] is None:
            self._r_cand.discard(axi_id)
        self._return_rr_pos += 1

    def _send_b(self, axi_id: int, cycle: int) -> None:
        """Acknowledge ``axi_id``'s oldest unanswered (fully written) write."""
        q = self._id_write_return[axi_id]
        txn = q.popleft()
        self.mport.push_b(cycle, (axi_id, BResp(True, txn.tag)))
        del self._write_txns[txn.tag]
        self._retire(self._id_write_pipe, axi_id, txn)
        if not q or q[0].cols_done < q[0].length:
            self._b_ready.discard(axi_id)

    def _may_start(self, pipes: Dict[int, Deque[object]], axi_id: int, txn: object) -> bool:
        """A transaction enters the DRAM pipeline only when it is among the
        first ``per_id_txn_limit`` unretired same-ID, same-direction
        transactions (the controller's in-order processing window)."""
        pipeline = pipes.get(axi_id)
        if pipeline is None:
            return True
        limit = self.timing.per_id_txn_limit
        for i, entry in enumerate(pipeline):
            if i >= limit:
                return False
            if entry is txn:
                return True
        return True  # not tracked (should not happen) — fail open

    def _retire(self, pipes: Dict[int, Deque[object]], axi_id: int, txn: object) -> None:
        pipeline = pipes.get(axi_id)
        if pipeline is not None:
            try:
                pipeline.remove(txn)
            except ValueError:
                pass

    # ----------------------------------------------------------- event skipping
    def wake_channels(self):
        # The AXI slave port channels belong to the monitor wrapper, not this
        # component; request arrivals (and freed R/B space) on them are the
        # only external events that unblock the controller.
        return self.port.channels()

    # ------------------------------------------------------------- compiled tick
    def compile_tick(self):
        """The controller's tick, as a closure over its state and ports.

        Each cycle: refresh edge, accept (one AR, one AW, one W beat),
        column enqueue, bank prep, FR-FCFS issue, then R and B return, the
        order ``tests/dram_oracle.py`` restates as plain scans.  Each
        selection comes from an index.  Column enqueue visits only the IDs
        whose issue queue is non-empty, in first-seen order (sorted active
        positions); bank prep probes the head of each live bank's list; the
        FR-FCFS pick is the smallest arrival number among the first
        open-row (and first same-direction) entry of each ready live bank;
        R and B arbitration take the round-robin winner by rotated distance
        over the candidate/ready sets.  Set iteration order never matters:
        every selection is a minimum over a total order.
        """
        timing = self.timing
        t_refi = timing.t_refi
        streak_limit = timing.direction_streak
        sched_depth = timing.sched_queue_depth
        max_txns = timing.max_outstanding_txns
        bank_view = tuple(zip(self.banks, self._bank_q))
        live_banks = self._live_banks
        read_active, write_active = self._read_active, self._write_active
        # Position -> (ID, issue queue), extended as IDs are first seen.
        read_slots: List[Tuple[int, Deque[_ReadTxn]]] = []
        write_slots: List[Tuple[int, Deque[_WriteTxn]]] = []
        port = self.port
        ar, aw, w, r, b = port.ar, port.aw, port.w, port.r, port.b
        sched = self._sched
        read_txns, write_txns = self._read_txns, self._write_txns
        id_read_issue = self._id_read_issue
        id_write_issue = self._id_write_issue
        id_read_return = self._id_read_return
        id_read_pipe = self._id_read_pipe
        id_write_pipe = self._id_write_pipe
        awaiting = self._writes_awaiting_data
        rr = self._return_rr
        rr_index = self._rr_index
        r_cand, b_ready = self._r_cand, self._b_ready
        may_start = self._may_start
        refresh = self._refresh
        accept_read, accept_write = self._accept_read, self._accept_write
        accept_data = self._accept_data
        window_add, prep, issue = self._window_add, self._prep, self._issue
        send_r, send_b = self._send_r, self._send_b

        def tick(cycle, self=self):
            if cycle and not cycle % t_refi:
                refresh(cycle)
            # -- accept ---------------------------------------------------
            if ar._pop_count < len(ar._items) and (
                len(read_txns) + len(write_txns) < max_txns
            ):
                accept_read(ar.pop(), cycle)
            if aw._pop_count < len(aw._items) and (
                len(read_txns) + len(write_txns) < max_txns
            ):
                accept_write(aw.pop(), cycle)
            if awaiting and w._pop_count < len(w._items):
                accept_data(w.pop())
            # -- enqueue columns ------------------------------------------
            budget = 8
            room = sched_depth - len(sched)
            if room > 0 and read_active:
                if len(read_slots) < len(id_read_issue):
                    read_slots.extend(list(id_read_issue.items())[len(read_slots):])
                for pos in sorted(read_active):
                    axi_id, q = read_slots[pos]
                    while q:
                        txn = q[0]
                        if txn.cols_enqueued >= txn.length:
                            q.popleft()
                            continue
                        if not txn.cols_enqueued and not may_start(
                            id_read_pipe, axi_id, txn
                        ):
                            break
                        window_add(txn, False, cycle)
                        room -= 1
                        budget -= 1
                        if txn.cols_enqueued >= txn.length:
                            q.popleft()
                            break
                        if not budget or not room:
                            break
                    if not q:
                        read_active.discard(pos)
                    if not budget or not room:
                        break
            if budget and room > 0 and write_active:
                if len(write_slots) < len(id_write_issue):
                    write_slots.extend(list(id_write_issue.items())[len(write_slots):])
                for pos in sorted(write_active):
                    axi_id, q = write_slots[pos]
                    while q:
                        txn = q[0]
                        if txn.cols_enqueued >= txn.length:
                            q.popleft()
                            continue
                        if txn.cols_enqueued >= len(txn.wdata):
                            break  # cut-through: wait for the W beat
                        if not txn.cols_enqueued and not may_start(
                            id_write_pipe, axi_id, txn
                        ):
                            break
                        window_add(txn, True, cycle)
                        room -= 1
                        budget -= 1
                        if txn.cols_enqueued >= txn.length:
                            q.popleft()
                            break
                        if not budget or not room:
                            break
                    if not q:
                        write_active.discard(pos)
                    if not budget or not room:
                        break
            if sched:
                # -- prep: the two oldest-headed banks whose head needs
                # another row and may switch now --------------------------
                first = second = None
                for bank_idx in live_banks:
                    bank, q = bank_view[bank_idx]
                    head = q[0]
                    if bank.open_row != head.row and bank.can_prep(cycle):
                        if first is None or head.seq < first.seq:
                            first, second = head, first
                        elif second is None or head.seq < second.seq:
                            second = head
                if first is not None:
                    prep(first, cycle)
                    if second is not None:
                        prep(second, cycle)
                # -- FR-FCFS pick over the ready banks --------------------
                if cycle >= self._bus_free_at:
                    dir_write = self._bus_dir_write
                    want_same = self._dir_streak < streak_limit
                    oldest = None  # oldest ready column
                    oldest_same = None  # oldest ready same-direction column
                    for bank_idx in live_banks:
                        bank, q = bank_view[bank_idx]
                        if cycle >= bank.ready_at:
                            row = bank.open_row
                            first_open = True
                            for req in q:
                                if req.row != row:
                                    continue
                                if first_open:
                                    first_open = False
                                    if oldest is None or req.seq < oldest.seq:
                                        oldest = req
                                    if not want_same:
                                        break
                                if req.is_write == dir_write:
                                    if oldest_same is None or req.seq < oldest_same.seq:
                                        oldest_same = req
                                    break
                    if oldest_same is not None:
                        issue(oldest_same, cycle)
                    elif oldest is not None:
                        issue(oldest, cycle)
            # -- return read data -----------------------------------------
            if r_cand and len(r._items) + len(r._staged) < r.capacity:
                n_ids = len(rr)
                pos = self._return_rr_pos % n_ids
                best = n_ids
                for axi_id in r_cand:
                    txn = id_read_return[axi_id][0]
                    if txn.beats[txn.beats_sent][0] <= cycle:
                        dist = rr_index[axi_id] - pos
                        if dist < 0:
                            dist += n_ids
                        if dist < best:
                            best = dist
                            winner = axi_id
                if best < n_ids:
                    send_r(winner, cycle)
            # -- return write responses -----------------------------------
            if b_ready and len(b._items) + len(b._staged) < b.capacity:
                n_ids = len(rr)
                pos = self._return_rr_pos % n_ids
                best = n_ids
                for axi_id in b_ready:
                    dist = rr_index[axi_id] - pos
                    if dist < 0:
                        dist += n_ids
                    if dist < best:
                        best = dist
                        winner = axi_id
                send_b(winner, cycle)

        return tick

    def next_event(self, cycle: int) -> float:
        """Conservative hint: wake every cycle while any transaction is
        outstanding, else sleep to the next refresh edge.

        Refresh fires on a fixed cadence whether or not traffic is pending
        (it mutates bank state and the refresh counter), so an idle
        controller is always woken at the next refresh edge — skips can
        never jump over one.  Waking while busy is earlier than strictly
        needed (CAS-latency waits included), but walking the transaction
        tables for the exact cycle costs more than the no-op ticks it saves:
        an outstanding transaction keeps the controller hot within a few
        cycles anyway, and early wakes are no-op ticks by the hint contract.
        """
        if self._read_txns or self._write_txns or self._sched:
            return cycle
        t = self.timing.t_refi
        return cycle if (cycle and cycle % t == 0) else (cycle // t + 1) * t

    def debug_state(self):
        if not self._read_txns and not self._write_txns and not self._sched:
            return None
        reads = [
            {"tag": t.tag, "axi_id": t.axi_id, "addr": hex(t.addr),
             "beats_sent": t.beats_sent, "length": t.length}
            for t in list(self._read_txns.values())[:8]
        ]
        writes = [
            {"tag": t.tag, "axi_id": t.axi_id, "addr": hex(t.addr),
             "cols_done": t.cols_done, "length": t.length,
             "data_complete": t.data_complete}
            for t in list(self._write_txns.values())[:8]
        ]
        return {
            "reads_in_flight": len(self._read_txns),
            "writes_in_flight": len(self._write_txns),
            "sched_queue": len(self._sched),
            "awaiting_w_data": len(self._writes_awaiting_data),
            "bus_free_at": self._bus_free_at,
            "reads": reads,
            "writes": writes,
        }

    # ------------------------------------------------------------------ analysis
    def idle(self) -> bool:
        return (
            not self._read_txns
            and not self._write_txns
            and not self._sched
            and not len(self.port.ar)
            and not len(self.port.aw)
            and not len(self.port.w)
        )

    def bus_utilisation(self, cycles: int) -> float:
        return self.stats["bus_cycles"] / max(cycles, 1)

    def report(self, cycles: int, clock_mhz: float = 250.0) -> Dict[str, float]:
        """DRAMsim3-style channel summary over ``cycles`` of simulation."""
        beat = self.timing.col_bytes
        seconds = cycles / (clock_mhz * 1e6) if cycles else 1.0
        total_accesses = self.stats["read_cols"] + self.stats["write_cols"]
        activations = sum(b.activations for b in self.banks)
        hits, misses = self.stats["row_hits"], self.stats["row_misses"]
        return {
            "read_bytes": self.stats["read_cols"] * beat,
            "write_bytes": self.stats["write_cols"] * beat,
            "bandwidth_gbps": total_accesses * beat / seconds / 1e9,
            "bus_utilisation": self.bus_utilisation(cycles),
            "row_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "activations": float(activations),
            "turnarounds": float(self.stats["turnarounds"]),
            "refresh_overhead": self.stats["refreshes"]
            * self.timing.t_rfc
            / max(cycles, 1),
        }
