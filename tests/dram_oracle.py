"""A standalone reference model of the DRAM controller's documented policy.

``DramOracle`` restates, from ``DramTiming`` alone, what
``repro.dram.MemoryController`` does each cycle, as plain scans over plain
lists.  It shares no code with the controller: it imports only the timing
parameters, the backing store and the AXI payload types, and keeps its own
bank state.  So a slip inside one of the controller's helpers shows up as a
difference against it.  ``tests/test_dram_indexed.py`` drives both with the
same traffic and requires the same ``(cycle, (axi_id, RBeat|BResp))``
pushes, statistics, per-bank counters and memory image.

The policy, in the order one cycle applies it:

1. **Refresh.**  On every nonzero multiple of ``t_refi`` every bank closes
   its row and takes no command for ``t_rfc`` cycles.
2. **Accept.**  At most one AR, then at most one AW, each while fewer than
   ``max_outstanding_txns`` transactions are unanswered; then at most one W
   beat, kept by the oldest write whose data is incomplete.
3. **Enqueue.**  Up to 8 column commands per cycle enter a window of
   ``sched_queue_depth`` entries: reads first, then writes, each direction
   visiting IDs in the order it first saw them.  An ID adds columns of its
   oldest not fully enqueued transaction only, one transaction per cycle.
   That transaction starts only while it is among the first
   ``per_id_txn_limit`` unanswered ones of its ID and direction, and a
   write column waits for its own W beat (cut-through: no
   store-and-forward of whole bursts).
4. **Prep.**  Walking the window oldest first, each bank's oldest command
   opens its row when the bank holds another row or none and may switch
   now: a precharge (``t_rp``, only once an open row has been open
   ``t_ras`` cycles) then an activate (``t_rcd``).  At most two per cycle.
5. **Issue (FR-FCFS).**  When the data bus is free, among the commands
   whose bank has their row open and ready: the oldest one in the bus
   direction while fewer than ``direction_streak`` columns in a row went
   that way, else the oldest.  A direction change restarts the streak at
   one and idles the bus ``t_bus_turn`` cycles after the column.  Read data
   is back ``t_cl`` cycles after its column.
6. **Return.**  One R beat per cycle: IDs in round-robin over first-seen
   order (either direction), from a pointer each R beat advances.  Then
   one B response, from the same pointer; B never advances it.  Within an
   ID and direction, beats and responses leave in acceptance order.

Statistics follow the controller's names: every issued column is one
``row_hits`` or one ``row_misses``, the miss being the first column after
its bank's activation; ``activations`` counts preps, ``row_conflicts`` the
preps that closed an open row, ``queue_wait_cycles`` the cycles columns sat
in the window.
Fault injection is not modelled (every beat has ``err=False``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.axi.types import BResp, RBeat
from repro.dram.store import MemoryStore
from repro.dram.timing import DramTiming

ENQUEUES_PER_CYCLE = 8
PREPS_PER_CYCLE = 2
STAT_KEYS = (
    "bus_cycles", "read_cols", "write_cols", "turnarounds", "row_hits",
    "row_misses", "refreshes", "row_conflicts", "queue_wait_cycles",
)


class OracleBank:
    __slots__ = ("open_row", "ready_at", "activated", "unused", "activations", "row_hits",
                 "row_misses")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_at = 0  # first cycle the bank takes a command
        self.activated = 0  # cycle of the last activate
        self.unused = False  # no column since the last activate
        self.activations = self.row_hits = self.row_misses = 0


class OracleTxn:
    __slots__ = ("is_write", "axi_id", "tag", "addr", "length", "enqueued", "done",
                 "wbeats", "complete", "rbeats", "sent")

    def __init__(self, req, is_write: bool) -> None:
        self.is_write = is_write
        self.axi_id, self.tag, self.addr, self.length = req.axi_id, req.tag, req.addr, req.length
        self.enqueued = 0  # columns put in the window
        self.done = 0  # columns issued on the bus
        self.wbeats: List[Tuple[bytes, Optional[bytes]]] = []  # write: (data, strb)
        self.complete = False  # write: the last W beat arrived
        self.rbeats: List[Optional[Tuple[int, bytes]]] = [None] * req.length  # read: (due, data)
        self.sent = 0  # read: beats returned


class OracleColumn:
    __slots__ = ("txn", "beat", "addr", "bank", "row", "since")

    def __init__(self, txn: OracleTxn, beat: int, addr: int, bank: int, row: int, since: int):
        self.txn, self.beat, self.addr = txn, beat, addr
        self.bank, self.row, self.since = bank, row, since


class DramOracle:
    """The controller's policy over one AXI slave port, one cycle per
    :meth:`step`."""

    def __init__(self, timing: DramTiming) -> None:
        self.timing = timing
        self.store = MemoryStore(timing.col_bytes)
        self.banks = [OracleBank() for _ in range(timing.n_banks)]
        self.stats: Dict[str, int] = dict.fromkeys(STAT_KEYS, 0)
        self.unanswered: List[OracleTxn] = []  # acceptance order, both directions
        # Per direction (False: read, True: write): ID -> its unanswered
        # transactions in acceptance order.  Keys stay once seen, so the
        # dict order is the direction's first-seen order.
        self.by_id: Dict[bool, Dict[int, List[OracleTxn]]] = {False: {}, True: {}}
        self.window: List[OracleColumn] = []  # arrival order
        self.rr: List[int] = []  # IDs in first-seen order, either direction
        self.rr_pointer = 0
        self.bus_free = 0
        self.bus_write = False
        self.streak = 0

    def idle(self) -> bool:
        return not self.unanswered and not self.window

    def step(self, cycle: int, port) -> Tuple[Optional[tuple], Optional[tuple]]:
        """Advance one cycle against ``port`` (anything with AXI ``ar``,
        ``aw``, ``w``, ``r``, ``b`` channels offering ``can_pop``/``pop``/
        ``can_push``): pop what the controller would accept and return the
        ``(axi_id, RBeat)`` and ``(axi_id, BResp)`` it would push, or
        ``None`` for either."""
        if cycle and cycle % self.timing.t_refi == 0:
            self._refresh(cycle)
        self._accept(port)
        self._enqueue(cycle)
        self._prep(cycle)
        if cycle >= self.bus_free:
            self._issue(cycle)
        r = self._return_read(cycle) if port.r.can_push() else None
        b = self._return_write() if port.b.can_push() else None
        return r, b

    # ----------------------------------------------------------- the phases
    def _refresh(self, cycle: int) -> None:
        for bank in self.banks:
            bank.ready_at = max(bank.ready_at, cycle + self.timing.t_rfc)
            bank.open_row = None
        self.stats["refreshes"] += 1

    def _accept(self, port) -> None:
        limit = self.timing.max_outstanding_txns
        for chan, is_write in ((port.ar, False), (port.aw, True)):
            if chan.can_pop() and len(self.unanswered) < limit:
                txn = OracleTxn(chan.pop(), is_write)
                self.unanswered.append(txn)
                self.by_id[is_write].setdefault(txn.axi_id, []).append(txn)
                if txn.axi_id not in self.rr:
                    self.rr.append(txn.axi_id)
        if port.w.can_pop():
            waiting = [t for t in self.unanswered if t.is_write and not t.complete]
            if waiting:
                beat = port.w.pop()
                waiting[0].wbeats.append((beat.data, beat.strb))
                waiting[0].complete = beat.last

    def _enqueue(self, cycle: int) -> None:
        timing = self.timing
        budget = ENQUEUES_PER_CYCLE
        for is_write in (False, True):
            for txns in self.by_id[is_write].values():
                room = min(budget, timing.sched_queue_depth - len(self.window))
                if room <= 0:
                    return
                pending = [i for i, t in enumerate(txns) if t.enqueued < t.length]
                if not pending:
                    continue
                txn = txns[pending[0]]
                if txn.enqueued == 0 and pending[0] >= timing.per_id_txn_limit:
                    continue
                end = txn.length
                if is_write:
                    end = min(end, len(txn.wbeats))
                for beat in range(txn.enqueued, min(end, txn.enqueued + room)):
                    addr = txn.addr + beat * timing.col_bytes
                    bank, row, _col = timing.decompose(addr)
                    self.window.append(OracleColumn(txn, beat, addr, bank, row, cycle))
                    txn.enqueued += 1
                    budget -= 1

    def _prep(self, cycle: int) -> None:
        timing = self.timing
        preps = PREPS_PER_CYCLE
        seen = set()
        for col in self.window:
            if col.bank in seen:
                continue
            seen.add(col.bank)
            bank = self.banks[col.bank]
            if bank.open_row == col.row or cycle < bank.ready_at:
                continue
            if bank.open_row is not None and cycle < bank.activated + timing.t_ras:
                continue
            start = cycle
            if bank.open_row is not None:
                start += timing.t_rp
                self.stats["row_conflicts"] += 1
            bank.open_row = col.row
            bank.activated = start
            bank.ready_at = start + timing.t_rcd
            bank.activations += 1
            bank.unused = True
            preps -= 1
            if not preps:
                return

    def _issue(self, cycle: int) -> None:
        timing, stats = self.timing, self.stats
        ready = [
            col for col in self.window
            if self.banks[col.bank].open_row == col.row and cycle >= self.banks[col.bank].ready_at
        ]
        if not ready:
            return
        col = ready[0]
        if self.streak < timing.direction_streak:
            same = [c for c in ready if c.txn.is_write == self.bus_write]
            if same:
                col = same[0]
        txn = col.txn
        if txn.is_write == self.bus_write:
            self.streak += 1
            self.bus_free = cycle + 1
        else:
            self.bus_write = txn.is_write
            self.streak = 1
            stats["turnarounds"] += 1
            self.bus_free = cycle + 1 + timing.t_bus_turn
        self.window.remove(col)
        stats["bus_cycles"] += 1
        stats["queue_wait_cycles"] += cycle - col.since
        bank = self.banks[col.bank]
        if bank.unused:
            bank.unused = False
            bank.row_misses += 1
            stats["row_misses"] += 1
        else:
            bank.row_hits += 1
            stats["row_hits"] += 1
        if txn.is_write:
            data, strb = txn.wbeats[col.beat]
            self.store.write(col.addr, data, strb)
            stats["write_cols"] += 1
        else:
            txn.rbeats[col.beat] = (cycle + timing.t_cl, self.store.read(col.addr, timing.col_bytes))
            stats["read_cols"] += 1
        txn.done += 1

    def _rotation(self) -> List[int]:
        start = self.rr_pointer % len(self.rr) if self.rr else 0
        return self.rr[start:] + self.rr[:start]

    def _return_read(self, cycle: int) -> Optional[tuple]:
        for axi_id in self._rotation():
            txns = self.by_id[False].get(axi_id)
            if not txns:
                continue
            txn = txns[0]
            beat = txn.rbeats[txn.sent]
            if beat is None or beat[0] > cycle:
                continue
            txn.sent += 1
            last = txn.sent == txn.length
            if last:
                self._answer(txn)
            self.rr_pointer += 1
            return axi_id, RBeat(beat[1], last, txn.tag)
        return None

    def _return_write(self) -> Optional[tuple]:
        for axi_id in self._rotation():
            txns = self.by_id[True].get(axi_id)
            if txns and txns[0].done == txns[0].length:
                txn = txns[0]
                self._answer(txn)
                return axi_id, BResp(True, txn.tag)
        return None

    def _answer(self, txn: OracleTxn) -> None:
        self.unanswered.remove(txn)
        self.by_id[txn.is_write][txn.axi_id].remove(txn)
