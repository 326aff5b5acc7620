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

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.axi.monitor import MonitoredAxiPort
from repro.axi.types import BResp, RBeat
from repro.dram.bank import Bank
from repro.dram.store import MemoryStore
from repro.dram.timing import DramTiming
from repro.sim import Component


# The three records below are identities, not values (``eq=False``): the
# per-tag tables, the per-ID queues and the window's runs alias the same
# objects.  A transaction keeps the cycle every column entered the window
# (``enq_at``) and the live window run holding its last enqueued column.
@dataclass(slots=True, eq=False)
class _Run:
    """Window columns of one transaction in one bank row: arrival numbers
    ``seq .. stop - 1``, where arrival number ``s`` is column ``s - base``
    of ``txn``; the row (or the transaction) ends at column ``row_end``."""
    seq: int
    stop: int
    base: int
    txn: Union[_ReadTxn, _WriteTxn]
    bank: int
    row: int
    is_write: bool
    row_end: int


@dataclass(slots=True, eq=False)
class _ReadTxn:
    tag: int
    axi_id: int
    addr: int
    length: int
    cols_enqueued: int = 0
    beats_sent: int = 0
    # (ready_cycle, data, err) per beat; err marks a modeled ECC failure.
    beats: List[Optional[Tuple[int, bytes, bool]]] = field(default_factory=list)
    enq_at: List[int] = field(default_factory=list)
    run: Optional[_Run] = None

    def __post_init__(self) -> None:
        self.beats = [None] * self.length
        self.enq_at = [0] * self.length


@dataclass(slots=True, eq=False)
class _WriteTxn:
    tag: int
    axi_id: int
    addr: int
    length: int
    # Accepted W data, one entry per beat: the payload and its byte strobe
    # (``None``: every byte valid).  Plain values, not ``WBeat``s, so a
    # capture copies two flat lists instead of freezing an object per beat.
    wdata: List[bytes] = field(default_factory=list)
    wstrb: List[Optional[bytes]] = field(default_factory=list)
    data_complete: bool = False
    cols_enqueued: int = 0
    cols_done: int = 0
    enq_at: List[int] = field(default_factory=list)
    run: Optional[_Run] = None

    def __post_init__(self) -> None:
        self.enq_at = [0] * self.length


class MemoryController(Component):
    """FR-FCFS DDR controller with an AXI4 slave frontend.

    One body: the closure from :meth:`compile_tick`, which
    ``Component.tick`` runs under ``naive`` and the compiled program calls
    directly.  It works from indexes, so its cost follows what happens in a
    cycle rather than what the controller holds, and it builds no object
    per column:

    * the scheduler window is ``_bank_runs``: per bank, in arrival order,
      ``_Run``s of consecutive columns.  A column that arrives right after
      its transaction's live run (``txn.run``) in the same row extends it
      (``stop += 1``);
      issuing the run's head advances ``seq``, and a spent run leaves its
      bank's list and ``txn.run``.  ``_next_seq`` counts the columns ever
      enqueued, so the window holds ``_next_seq - read_cols - write_cols``;
      ``_live_banks`` holds the banks with runs and ``_want_prep`` those
      whose head run is on another row than the open one;
    * ``_ready`` holds, as sorted ``(is_write, position, issue queue,
      return queue)`` entries — reads first, each direction in first-seen
      order — the IDs whose oldest not fully enqueued transaction may put a
      column in the window now: it is among the first ``per_id_txn_limit``
      unanswered ones, and a write holds the W beat of its next column.
      The events that change that (accept, W beat, enqueue, answer) update
      it where they happen;
    * ``_r_cand`` / ``_b_ready`` hold the IDs with an R beat back from DRAM
      or a B response due.

    Its reference is ``tests/dram_oracle.py``, a standalone model of the
    same policy that shares no code with this module.
    """

    # Optional fault injector (repro.faults): filters column reads, flipping
    # bits and marking the beat ``err`` (the modeled ECC detects the flip).
    _fault = None

    _state = ("_fault", "mport", "store", "banks", "_read_txns", "_write_txns",
              "_id_read_issue", "_id_read_return", "_id_write_issue", "_id_write_return",
              "_writes_awaiting_data", "_read_pos", "_write_pos", "_ready", "_bank_runs",
              "_live_banks", "_want_prep", "_next_seq", "_bus_free_at",
              "_bus_dir_write", "_dir_streak", "_return_rr", "_rr_index", "_return_rr_pos",
              "_r_cand", "_b_ready", "read_cols", "write_cols", "turnarounds", "refreshes",
              "row_conflicts", "queue_wait_cycles")

    def __init__(self, mport: MonitoredAxiPort, timing: DramTiming, name: str = "mc") -> None:
        super().__init__(name)
        self.mport = mport
        self.port = mport.port
        self.timing = timing
        if self.port.params.beat_bytes != timing.col_bytes:
            raise ValueError(
                "AXI beat width must match the DRAM column width "
                f"({self.port.params.beat_bytes} != {timing.col_bytes})"
            )
        self.store = MemoryStore(timing.col_bytes)
        self.banks = [Bank(timing) for _ in range(timing.n_banks)]

        self._read_txns: Dict[int, _ReadTxn] = {}
        self._write_txns: Dict[int, _WriteTxn] = {}
        # Per ID and direction, in acceptance order: the transactions not
        # yet fully enqueued (issue) and the unanswered ones (return).  AXI
        # orders same-ID transactions within each direction, and the issue
        # queue is always a suffix of the return queue, so the issue head is
        # unanswered transaction number ``len(return) - len(issue)`` of its
        # ID: it may start while that is under ``per_id_txn_limit``, so
        # short-burst single-ID masters (HLS) expose serialisation bubbles
        # and read/write bus turnaround that multi-ID masters hide.
        self._id_read_issue: Dict[int, Deque[_ReadTxn]] = {}
        self._id_read_return: Dict[int, Deque[_ReadTxn]] = {}
        self._id_write_issue: Dict[int, Deque[_WriteTxn]] = {}
        self._id_write_return: Dict[int, Deque[_WriteTxn]] = {}
        self._writes_awaiting_data: Deque[_WriteTxn] = deque()
        # Each ID's position in its direction's issue dict (first-seen
        # order) and the ready entries (class docstring).  Position order
        # decides who gets the window's last slots; ``_rr_index`` would not
        # do (an ID first seen as a write sits elsewhere in it).
        self._read_pos: Dict[int, int] = {}
        self._write_pos: Dict[int, int] = {}
        self._ready: List[Tuple[bool, int, Deque, Deque]] = []
        # Scheduler window (class docstring).
        self._bank_runs: List[List[list]] = [[] for _ in self.banks]
        self._live_banks: Set[int] = set()
        self._want_prep: Set[int] = set()
        self._next_seq = 0
        self._bus_free_at = 0  # the end of the last turnaround's idle time
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

        # Statistics (``_stat_views``): plain counts, published by the metric
        # registry when this controller joins a simulator.  Contention
        # accounting (repro.obs.attribution) reads ``row_conflicts``
        # (activations that had to close an already-open row) and
        # ``queue_wait_cycles`` (the total cycles columns sat in the
        # scheduler window before winning the bus).
        self.read_cols = self.write_cols = self.turnarounds = 0
        self.refreshes = self.row_conflicts = self.queue_wait_cycles = 0

    @property
    def metric_path(self) -> str:
        return "dram/" + self.name.replace(".", "/")

    def _stat_views(self) -> Dict[str, Callable[[], int]]:
        """Each counter's reader, by metric name and in registry order.  Six
        counters are plain int fields; ``bus_cycles`` and the row-buffer
        outcomes are derived (every issued column is one bus cycle and one
        bank's hit or miss)."""
        banks = self.banks
        return {"bus_cycles": lambda: self.read_cols + self.write_cols,
                "read_cols": lambda: self.read_cols,
                "write_cols": lambda: self.write_cols,
                "turnarounds": lambda: self.turnarounds,
                "row_hits": lambda: sum(b.row_hits for b in banks),
                "row_misses": lambda: sum(b.row_misses for b in banks),
                "refreshes": lambda: self.refreshes,
                "row_conflicts": lambda: self.row_conflicts,
                "queue_wait_cycles": lambda: self.queue_wait_cycles}

    def register_metrics(self, scope) -> None:
        for key, view in self._stat_views().items():
            scope.bind(key, view)
        scope.bind("outstanding_txns", self._outstanding)
        scope.bind("sched_queue_depth", lambda: self.window_columns)
        scope.bind("activations", lambda: sum(b.activations for b in self.banks))
        # Per-bank row-buffer outcomes, for the contention accounter.
        for i, bank in enumerate(self.banks):
            scope.bind(f"bank{i}/activations", lambda b=bank: b.activations)
            scope.bind(f"bank{i}/row_hits", lambda b=bank: b.row_hits)
            scope.bind(f"bank{i}/row_misses", lambda b=bank: b.row_misses)

    @property
    def window_columns(self) -> int:
        """Columns in the scheduler window now."""
        return self._next_seq - self.read_cols - self.write_cols

    def _outstanding(self) -> int:
        return len(self._read_txns) + len(self._write_txns)

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
        order ``tests/dram_oracle.py`` restates as plain scans.  Enqueue
        walks ``_ready`` and moves each entry's head columns into the
        window (up to 8 per cycle and the room left), extending the
        transaction's live run (one free slot that extends the first entry's
        run takes a short path to the same result); prep probes the heads
        of ``_want_prep``;
        the FR-FCFS pick is the smallest arrival number among the first
        open-row (and first same-direction) run of each ready live bank,
        and issues that run's head column; R and B take the round-robin
        winner by rotated distance over ``_r_cand``/``_b_ready``.  Every
        selection is a minimum over a total order, so set iteration order
        never matters.  Everything is inline: per column the body calls
        only the store, the fault hook and the port.
        """
        timing = self.timing
        t_refi, t_ras, t_cl, t_turn = timing.t_refi, timing.t_ras, timing.t_cl, timing.t_bus_turn
        streak_limit, depth = timing.direction_streak, timing.sched_queue_depth
        max_txns, limit = timing.max_outstanding_txns, timing.per_id_txn_limit
        col_bytes, cols_per_row, n_banks = timing.col_bytes, timing.cols_per_row, timing.n_banks
        banks, live_banks, want_prep = self.banks, self._live_banks, self._want_prep
        bank_view = tuple(zip(banks, self._bank_runs))
        ready = self._ready
        read_pos, write_pos = self._read_pos, self._write_pos
        port = self.port
        ar, aw, w, r, b = port.ar, port.aw, port.w, port.r, port.b
        push_r, push_b = self.mport.push_r, self.mport.push_b
        store_read, store_write = self.store.read, self.store.write
        read_txns, write_txns = self._read_txns, self._write_txns
        id_read_issue, id_write_issue = self._id_read_issue, self._id_write_issue
        id_read_return, id_write_return = self._id_read_return, self._id_write_return
        awaiting = self._writes_awaiting_data
        rr, rr_index = self._return_rr, self._rr_index
        r_cand, b_ready = self._r_cand, self._b_ready

        def first_seen(axi_id, issue, returns_of, pos):
            """Queues and a position for an ID new to one direction."""
            pos[axi_id] = len(pos)
            if axi_id not in rr_index:
                rr_index[axi_id] = len(rr)
                rr.append(axi_id)
            issue[axi_id], returns_of[axi_id] = deque(), deque()
            return issue[axi_id], returns_of[axi_id]

        def tick(cycle, self=self):
            if cycle and not cycle % t_refi:
                for bank in banks:
                    bank.block_for_refresh(cycle)
                want_prep.update(live_banks)
                self.refreshes += 1
            # -- accept ---------------------------------------------------
            if ar._items and ar._pop_count < len(ar._items) and (
                len(read_txns) + len(write_txns) < max_txns
            ):
                req = ar.pop()
                axi_id = req.axi_id
                txn = read_txns[req.tag] = _ReadTxn(req.tag, axi_id, req.addr, req.length)
                q = id_read_issue.get(axi_id)
                if q is None:
                    q, returns = first_seen(axi_id, id_read_issue, id_read_return, read_pos)
                else:
                    returns = id_read_return[axi_id]
                q.append(txn)
                returns.append(txn)
                if len(q) == 1 and len(returns) <= limit:
                    insort(ready, (False, read_pos[axi_id], q, returns))
            if aw._items and aw._pop_count < len(aw._items) and (
                len(read_txns) + len(write_txns) < max_txns
            ):
                req = aw.pop()
                axi_id = req.axi_id
                txn = write_txns[req.tag] = _WriteTxn(req.tag, axi_id, req.addr, req.length)
                q = id_write_issue.get(axi_id)
                if q is None:
                    q, returns = first_seen(axi_id, id_write_issue, id_write_return, write_pos)
                else:
                    returns = id_write_return[axi_id]
                # No W beat yet, so it is not ready to enqueue.
                q.append(txn)
                returns.append(txn)
                awaiting.append(txn)
            if awaiting and w._pop_count < len(w._items):
                # The oldest write still awaiting data keeps the beat; its
                # ``last`` flag ends that burst and is not stored.
                data, last, strb = w.pop()
                txn = awaiting[0]
                wdata = txn.wdata
                wdata.append(data)
                txn.wstrb.append(strb)
                if last:
                    txn.data_complete = True
                    awaiting.popleft()
                if txn.cols_enqueued == len(wdata) - 1:  # it was waiting on this beat
                    q = id_write_issue[txn.axi_id]
                    returns = id_write_return[txn.axi_id]
                    if q[0] is txn and len(returns) - len(q) < limit:
                        insort(ready, (True, write_pos[txn.axi_id], q, returns))
            # -- enqueue columns ------------------------------------------
            seq = self._next_seq
            room = depth - seq + self.read_cols + self.write_cols
            if room == 1 and ready:
                is_write, _pos, q, returns = ready[0]
                txn = q[0]
                col = txn.cols_enqueued
                run = txn.run
                if run is not None and run.stop == seq and col + 1 < run.row_end and (
                        not is_write or col + 1 < len(txn.wdata)):
                    # The streaming case (~80 % of ticks on the stream
                    # shapes): the last issue freed the one slot, and the
                    # first ready ID's next column extends its live run and
                    # leaves it more to enqueue.  The loop below would do the
                    # same with n = 1 (``ready`` does not change) at about
                    # twice the cost.
                    run.stop = self._next_seq = seq + 1
                    txn.enq_at[col] = cycle
                    txn.cols_enqueued = col + 1
                    room = 0
            if room > 0 and ready:
                n = room if room < 8 else 8
                i = 0
                while n and i < len(ready):
                    is_write, _pos, q, returns = ready[i]
                    txn = q[0]
                    col = txn.cols_enqueued
                    end = avail = len(txn.wdata) if is_write else txn.length
                    if end - col > n:
                        end = col + n
                    n -= end - col
                    txn.cols_enqueued = end
                    enq_at = txn.enq_at
                    while col < end:
                        run = txn.run
                        if run is not None and run.stop == seq and col < run.row_end:
                            # The columns follow the transaction's live
                            # run in arrival order and in the row.
                            k = (end if end < run.row_end else run.row_end) - col
                            run.stop = seq + k
                        else:
                            # ``timing.decompose``, once per row.
                            row, offset = divmod(txn.addr // col_bytes + col, cols_per_row)
                            row, bank_idx = divmod(row, n_banks)
                            row_end = min(col + cols_per_row - offset, txn.length)
                            k = (end if end < row_end else row_end) - col
                            run = txn.run = _Run(seq, seq + k, seq - col, txn, bank_idx, row,
                                                   is_write, row_end)
                            bank, runs = bank_view[bank_idx]
                            if not runs:
                                live_banks.add(bank_idx)
                                if row != bank.open_row:
                                    want_prep.add(bank_idx)
                            runs.append(run)
                        enq_at[col:col + k] = [cycle] * k
                        seq += k
                        col += k
                    if end == txn.length:
                        # Fully enqueued: the ID's next transaction may
                        # start next cycle if the pipeline limit allows.
                        q.popleft()
                        if q and len(returns) - len(q) < limit and (not is_write or q[0].wdata):
                            i += 1
                        else:
                            del ready[i]
                    elif end == avail:  # a write's columns up to its last W beat
                        del ready[i]  # cut-through: wait for the next W beat
                    else:
                        i += 1
                self._next_seq = seq
            if live_banks:
                # -- prep: the two oldest heads that want another row and
                # whose bank may switch now ----------------------------------
                if want_prep:
                    first = second = None
                    for bank_idx in want_prep:
                        bank, runs = bank_view[bank_idx]
                        if cycle >= bank.ready_at and (
                            bank.open_row is None or cycle >= bank.activated_at + t_ras
                        ):
                            head = runs[0]
                            if first is None or head.seq < first.seq:
                                first, second = head, first
                            elif second is None or head.seq < second.seq:
                                second = head
                    for head in (first, second):
                        if head is not None:
                            bank = banks[head.bank]
                            if bank.open_row is not None:
                                self.row_conflicts += 1
                            bank.prep(head.row, cycle)
                            want_prep.discard(head.bank)
                # -- FR-FCFS pick over the ready banks, then issue ----------
                if cycle >= self._bus_free_at:
                    dir_write = self._bus_dir_write
                    want_same = self._dir_streak < streak_limit
                    # The run of the oldest ready column, and (while the
                    # streak may go on) of the oldest ready one in the
                    # bus direction.  A bank's runs are in arrival order,
                    # so its first open-row run is its oldest ready
                    # column; the later ones visited on the way to its
                    # first same-direction run are younger and leave the
                    # minimum as it is.
                    oldest = oldest_same = None
                    for bank_idx in live_banks:
                        bank, runs = bank_view[bank_idx]
                        if cycle >= bank.ready_at:
                            row = bank.open_row
                            for run in runs:
                                if run.row == row:
                                    if want_same and run.is_write == dir_write:
                                        if oldest_same is None or run.seq < oldest_same.seq:
                                            oldest_same = run
                                        break
                                    if oldest is None or run.seq < oldest.seq:
                                        oldest = run
                                    if not want_same:
                                        break
                    run = oldest if oldest_same is None else oldest_same
                    if run is not None:
                        seq, txn, is_write, bank_idx = run.seq, run.txn, run.is_write, run.bank
                        if is_write != dir_write:
                            self._bus_dir_write = is_write
                            self._dir_streak = 1
                            self.turnarounds += 1
                            self._bus_free_at = cycle + 1 + t_turn
                        else:  # the bus is free again next cycle
                            self._dir_streak += 1
                        col = seq - run.base
                        self.queue_wait_cycles += cycle - txn.enq_at[col]
                        run.seq = seq = seq + 1
                        bank, runs = bank_view[bank_idx]
                        if seq == run.stop:  # the run is spent
                            if txn.run is run:
                                txn.run = None
                            if runs[0] is run:
                                del runs[0]
                                if not runs:
                                    live_banks.discard(bank_idx)
                                elif runs[0].row != bank.open_row:
                                    want_prep.add(bank_idx)
                            else:
                                runs.remove(run)  # by identity (``eq=False``)
                        if bank.fresh:  # the first column after an activation
                            bank.fresh = False
                            bank.row_misses += 1
                        else:
                            bank.row_hits += 1
                        addr = txn.addr + col * col_bytes
                        if is_write:
                            store_write(addr, txn.wdata[col], txn.wstrb[col])
                            self.write_cols += 1
                            txn.cols_done = done = txn.cols_done + 1
                            if done == txn.length and id_write_return[txn.axi_id][0] is txn:
                                b_ready.add(txn.axi_id)
                        else:
                            data = store_read(addr, col_bytes)
                            err = False
                            hook = self._fault
                            if hook is not None:
                                data, err = hook.filter_read(cycle, addr, data)
                            txn.beats[col] = (cycle + t_cl, data, err)
                            self.read_cols += 1
                            if col == txn.beats_sent and id_read_return[txn.axi_id][0] is txn:
                                r_cand.add(txn.axi_id)
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
                            winner, win_txn = axi_id, txn
                if best < n_ids:
                    txn = win_txn
                    sent = txn.beats_sent
                    _ready, data, err = txn.beats[sent]
                    last = sent == txn.length - 1
                    push_r(cycle, (winner, RBeat(data, last, txn.tag, err)))
                    txn.beats_sent = sent + 1
                    if last:
                        returns = id_read_return[winner]
                        returns.popleft()
                        del read_txns[txn.tag]
                        # Answered: the ID's next read may now be within the
                        # pipeline limit.
                        q = id_read_issue[winner]
                        if q and len(returns) - len(q) == limit - 1:
                            insort(ready, (False, read_pos[winner], q, returns))
                        txn = returns[0] if returns else None
                    if txn is None or txn.beats[txn.beats_sent] is None:
                        r_cand.discard(winner)
                    self._return_rr_pos += 1
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
                returns = id_write_return[winner]
                txn = returns.popleft()
                push_b(cycle, (winner, BResp(True, txn.tag)))
                del write_txns[txn.tag]
                q = id_write_issue[winner]
                if q and len(returns) - len(q) == limit - 1 and q[0].wdata:
                    insort(ready, (True, write_pos[winner], q, returns))
                if not returns or returns[0].cols_done < returns[0].length:
                    b_ready.discard(winner)

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
        (A column in the window belongs to an outstanding transaction.)
        """
        if self._read_txns or self._write_txns:
            return cycle
        t = self.timing.t_refi
        return cycle if (cycle and cycle % t == 0) else (cycle // t + 1) * t

    def debug_state(self):
        if not self._read_txns and not self._write_txns:
            return None
        reads = [{"tag": t.tag, "axi_id": t.axi_id, "addr": hex(t.addr),
                  "beats_sent": t.beats_sent, "length": t.length}
                 for t in list(self._read_txns.values())[:8]]
        writes = [{"tag": t.tag, "axi_id": t.axi_id, "addr": hex(t.addr),
                   "cols_done": t.cols_done, "length": t.length,
                   "data_complete": t.data_complete}
                  for t in list(self._write_txns.values())[:8]]
        return {
            "reads_in_flight": len(self._read_txns),
            "writes_in_flight": len(self._write_txns),
            "sched_queue": self.window_columns,
            "awaiting_w_data": len(self._writes_awaiting_data),
            "bus_free_at": self._bus_free_at,
            "reads": reads,
            "writes": writes,
        }

    # ------------------------------------------------------------------ analysis
    def idle(self) -> bool:
        port = self.port
        return not (self._read_txns or self._write_txns or len(port.ar) or len(port.aw)
                    or len(port.w))
