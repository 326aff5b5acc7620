"""The memory controller against a standalone timing oracle.

``dram_oracle.DramOracle`` restates the controller's documented policy
(refresh, accept, per-ID in-order enqueue, bank prep, FR-FCFS issue with a
direction streak, R/B round-robin) from ``DramTiming`` alone, as plain scans
over plain lists, and shares no code with ``repro.dram.controller``.  It is
the reference here:

* closed-form single-stream cases (row miss and CAS latency, a row-hit
  stream, a row conflict, a refresh collision, bus turnaround and the
  direction streak) pin the cycle of every push, and both the controller
  and the oracle must hit those cycles;
* seeded random AXI traffic goes straight into a controller (no NoC in
  between) under ``naive`` and ``compiled``, and into the oracle: the
  ``(cycle, (axi_id, RBeat/BResp))`` sequence pushed, ``stats``, the
  per-bank counters and the final memory image are identical, the image
  equals a plain ``bytearray`` the script was applied to, and every read of
  settled data returns that reference's bytes;
* after every cycle, under both schedules, the controller's indexes
  describe exactly what a full scan of its transaction tables finds
  (``check_index``).

The controller has one body, so ``naive`` against ``compiled`` checks only
the schedules (its ``next_event`` hint and the wake sets); the oracle checks
the model.  The same testbench is the controller-state differential for
snapshots: a capture taken while a write burst is half fed restores into a
rebuilt testbench and finishes exactly like the uninterrupted run.  The
last section swaps schedules mid-transfer on the full memcpy design.
"""

from __future__ import annotations

import ast
import pickle
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest

from repro.axi import ARReq, AWReq, AxiMonitor, AxiParams, AxiPort, MonitoredAxiPort, WBeat
from repro.core.build import BeethovenBuild
from repro.dram import DDR4_AWS_F1, LPDDR4_KRIA, MemoryController
from repro.kernels.memcpy import memcpy_config
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle
from repro.sim import DEFAULT_SCHEDULING, Component, Simulator
from repro.snapshot.engine import capture_sim_state, restore_sim_state

import dram_oracle
from dram_oracle import DramOracle

MEM_BYTES = 1 << 20
PAGE = 4096  # AXI bursts may not cross a 4 KB boundary


# ------------------------------------------------------------------- traffic
def make_script(rng: random.Random, timing, n_ids: int, n_txns: int):
    """``(reads, writes, reference)``: two in-order issue lists and the
    memory image after every write.  Each column is written at most once, so
    the image does not depend on the order the scheduler picks."""
    bb = timing.col_bytes
    row_span = timing.row_bytes * timing.n_banks  # bytes per row index
    n_rows = MEM_BYTES // row_span
    hot_rows = [rng.randrange(MEM_BYTES // timing.row_bytes) for _ in range(3)]
    hot_bank = rng.randrange(timing.n_banks)
    mix = rng.choice(("same_row", "row_conflict", "spread", "mixed"))
    written = set()
    reference = bytearray(MEM_BYTES)
    reads, writes = [], []
    for tag in range(n_txns):
        kind = mix if mix != "mixed" else rng.choice(("same_row", "row_conflict", "spread"))
        if kind == "same_row":
            base = rng.choice(hot_rows) * timing.row_bytes
        elif kind == "row_conflict":  # one bank, many rows
            base = rng.randrange(n_rows) * row_span + hot_bank * timing.row_bytes
        else:
            base = rng.randrange(MEM_BYTES // timing.row_bytes) * timing.row_bytes
        addr = base + rng.randrange(timing.row_bytes // bb) * bb
        beats = min(rng.choice((1, 2, 4, 16, 64, rng.randint(1, 64))),
                    (PAGE - addr % PAGE) // bb, (MEM_BYTES - addr) // bb)
        cols = [addr + i * bb for i in range(beats)]
        op = {"tag": tag, "axi_id": rng.randrange(n_ids), "addr": addr, "beats": beats}
        if rng.random() < 0.5 and written.isdisjoint(cols):
            written.update(cols)
            op["wbeats"] = []
            for i, col in enumerate(cols):
                data = rng.randbytes(bb)
                strb = bytes(rng.getrandbits(1) for _ in range(bb)) if rng.random() < 0.2 else None
                op["wbeats"].append(WBeat(data, last=i == beats - 1, strb=strb))
                for j in range(bb):
                    if strb is None or strb[j]:
                        reference[col + j] = data[j]
            writes.append(op)
        else:
            reads.append(op)
    return reads, writes, reference


class Driver(Component):
    """Issues the script, trickles W data, and drains R/B with stalls.

    Draws the same number of random values every cycle, so its behaviour is
    a function of the controller's outputs alone."""

    _state = ("rng", "reads", "writes", "w_queue", "acked", "expect", "beats_seen",
              "pending", "stalled_until")

    def __init__(self, mport, reads, writes, reference, rng, w_rate, stall_rate):
        super().__init__("driver")
        self.mport, self.port = mport, mport.port
        self.reads, self.writes = list(reads), list(writes)
        self.reference = reference
        self.rng, self.w_rate, self.stall_rate = rng, w_rate, stall_rate
        self.w_queue = []
        self.col_writer = {
            op["addr"] + i * mport.port.params.beat_bytes: op["tag"]
            for op in writes for i in range(op["beats"])
        }
        self.acked = set()  # write tags whose B response arrived
        self.expect = {}  # read tag -> per-beat expected bytes (None: unsettled)
        self.beats_seen = {}
        self.pending = len(reads) + len(writes)
        self.stalled_until = 0

    def done(self) -> bool:
        return not self.pending

    def tick(self, cycle: int) -> None:
        rng, port = self.rng, self.port
        send_w = rng.random() < self.w_rate
        stall_r, stall_b = rng.random() < self.stall_rate, rng.random() < self.stall_rate
        if rng.random() < 0.01:
            self.stalled_until = cycle + rng.randrange(20, 80)
        if self.reads and port.ar.can_push():
            op = self.reads.pop(0)
            bb = port.params.beat_bytes
            expect = []
            for i in range(op["beats"]):
                col = op["addr"] + i * bb
                writer = self.col_writer.get(col)
                settled = writer is None or writer in self.acked
                expect.append(bytes(self.reference[col:col + bb]) if settled else None)
            self.expect[op["tag"]], self.beats_seen[op["tag"]] = expect, 0
            self.mport.push_ar(cycle, ARReq(op["axi_id"], op["addr"], op["beats"], tag=op["tag"]))
        if self.writes and port.aw.can_push():
            op = self.writes.pop(0)
            self.mport.push_aw(cycle, AWReq(op["axi_id"], op["addr"], op["beats"], tag=op["tag"]))
            self.w_queue.extend(op["wbeats"])
        if self.w_queue and send_w and port.w.can_push():
            self.mport.push_w(cycle, self.w_queue.pop(0))
        if cycle < self.stalled_until:
            return
        if port.r.can_pop() and not stall_r:
            beat = port.r.pop()[1]
            idx = self.beats_seen[beat.tag]
            want = self.expect[beat.tag][idx]
            assert want is None or beat.data == want, (cycle, beat.tag, idx)
            assert beat.last == (idx == len(self.expect[beat.tag]) - 1) and not beat.err
            self.beats_seen[beat.tag] = idx + 1
            self.pending -= beat.last
        if port.b.can_pop() and not stall_b:
            resp = port.b.pop()[1]
            assert resp.okay
            self.acked.add(resp.tag)
            self.pending -= 1


class RecordingPort(MonitoredAxiPort):
    """Logs what the controller pushes, with the cycle it pushed it."""

    _state = ("log",)

    def __init__(self, port, monitor):
        super().__init__(port, monitor)
        self.log = []

    def push_r(self, cycle, item):
        self.log.append((cycle, item))
        super().push_r(cycle, item)

    def push_b(self, cycle, item):
        self.log.append((cycle, item))
        super().push_b(cycle, item)


# ---------------------------------------------------------- index invariants
def check_index(mc: MemoryController) -> None:
    """The indexed containers say what a full scan would find."""
    timing = mc.timing

    def bank_row(col_of, txn):
        return timing.decompose(txn.addr + col_of * timing.col_bytes)[:2]

    spans = []  # each run's arrival numbers, [seq, stop)
    runs_of = {}  # id(txn) -> the runs holding its columns
    for bank, runs in enumerate(mc._bank_runs):
        arrived = -1
        for run in runs:
            seq, stop, base, txn, row, is_write = (run.seq, run.stop, run.base, run.txn,
                                                   run.row, run.is_write)
            # Each bank's runs in arrival order, each run non-empty.
            assert arrived <= seq < stop and run.bank == bank
            arrived = stop
            assert is_write == hasattr(txn, "wdata")
            assert txn is (mc._write_txns if is_write else mc._read_txns)[txn.tag]
            # The enqueue inlines the address map; it must stay ``decompose``:
            # the run's columns (consecutive addresses) lie in its bank and row.
            assert bank_row(seq - base, txn) == bank_row(stop - 1 - base, txn) == (bank, row)
            assert stop - base <= run.row_end <= txn.length
            if not is_write:  # a read column in the window is not issued yet
                assert txn.beats[seq - base:stop - base] == [None] * (stop - seq)
            spans.append((seq, stop))
            runs_of.setdefault(id(txn), []).append(run)
    spans.sort()
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))  # no column twice
    assert sum(stop - seq for seq, stop in spans) == mc.window_columns
    assert mc.window_columns <= timing.sched_queue_depth
    assert not spans or spans[-1][1] <= mc._next_seq
    assert mc._live_banks == {b for b, runs in enumerate(mc._bank_runs) if runs}
    assert mc._want_prep == {b for b, runs in enumerate(mc._bank_runs)
                             if runs and runs[0].row != mc.banks[b].open_row}
    for txns, is_write in ((mc._read_txns, False), (mc._write_txns, True)):
        for txn in txns.values():
            # ``txn.run`` is the run its last enqueued column went to while
            # that run is in the window, and the window holds the
            # transaction's enqueued, not yet issued columns.
            in_window, live = 0, None
            for run in runs_of.pop(id(txn), ()):
                in_window += run.stop - run.seq
                if run.stop - run.base == txn.cols_enqueued:
                    assert live is None
                    live = run
            assert txn.run is live
            if is_write:
                assert in_window == txn.cols_enqueued - txn.cols_done
                assert txn.cols_enqueued <= len(txn.wdata)
            elif in_window or txn.cols_enqueued:
                assert in_window == txn.beats[:txn.cols_enqueued].count(None)
    assert not runs_of  # every run's transaction is outstanding
    limit = timing.per_id_txn_limit
    ready = []  # what may enqueue now, by a scan
    for issue, returns, pos, is_write in (
            (mc._id_read_issue, mc._id_read_return, mc._read_pos, False),
            (mc._id_write_issue, mc._id_write_return, mc._write_pos, True)):
        assert list(pos.items()) == [(axi_id, i) for i, axi_id in enumerate(issue)]
        for axi_id, q in issue.items():
            if not q:
                continue
            # The issue queue is the return queue's tail, and only its head
            # may have columns in the window.
            ret = returns[axi_id]
            assert ret[len(ret) - len(q)] is q[0] and ret[-1] is q[-1]
            assert q[0].cols_enqueued < q[0].length and (len(q) == 1 or not q[-1].cols_enqueued)
            if len(ret) - len(q) < limit and (
                    not is_write or q[0].cols_enqueued < len(q[0].wdata)):
                ready.append((is_write, pos[axi_id], q, ret))
    assert [entry[:2] for entry in mc._ready] == [entry[:2] for entry in sorted(ready)]
    assert all(a is b for x, y in zip(mc._ready, sorted(ready)) for a, b in zip(x[2:], y[2:]))
    assert mc._rr_index == {axi_id: i for i, axi_id in enumerate(mc._return_rr)}
    assert mc._r_cand == {
        axi_id for axi_id, q in mc._id_read_return.items()
        if q and q[0].beats[q[0].beats_sent] is not None
    }
    assert mc._b_ready == {
        axi_id for axi_id, q in mc._id_write_return.items()
        if q and q[0].cols_done >= q[0].length
    }


class Checker(Component):
    """Registered after the controller: sees its state after every tick
    (and, with ``index``, checks its indexes)."""

    _state = ("max_streak", "max_window", "window_sum", "ticks")

    def __init__(self, mc, index=True):
        super().__init__("checker")
        self.mc, self.index = mc, index
        self.max_streak = self.max_window = self.window_sum = self.ticks = 0

    def tick(self, cycle: int) -> None:
        if self.index:
            check_index(self.mc)
        self.max_streak = max(self.max_streak, self.mc._dir_streak)
        self.max_window = max(self.max_window, self.mc.window_columns)
        self.window_sum += self.mc.window_columns
        self.ticks += 1


class OracleSlave(Component):
    """Puts ``DramOracle`` on the slave side of a port, where the controller
    would sit, and pushes what it returns through the same monitored port."""

    def __init__(self, mport, timing):
        super().__init__("oracle")
        self.mport = mport
        self.model = DramOracle(timing)

    def tick(self, cycle: int) -> None:
        r, b = self.model.step(cycle, self.mport.port)
        if r is not None:
            self.mport.push_r(cycle, r)
        if b is not None:
            self.mport.push_b(cycle, b)


# ------------------------------------------------------------------- harness
def traffic_bench(seed: int, scheduling: str, w_rate: Optional[float] = None,
                  oracle: bool = False, **overrides):
    """The seeded testbench, built but not run; everything about it but
    ``scheduling`` (and ``w_rate``, when given) follows ``seed``.  With
    ``oracle`` the slave is ``DramOracle`` instead of the controller.

    Half the seeds shrink the window to 2 or 4 entries, so ``room`` binds
    and the order the enqueue loops visit IDs decides who gets a slot; half
    give one fresh ID to the first write and a later read, so it is first
    seen as a write and its read-issue position differs from its
    round-robin one."""
    rng = random.Random(seed)
    timing = replace(
        rng.choice((DDR4_AWS_F1, LPDDR4_KRIA)),
        per_id_txn_limit=rng.choice((1, 2)),
        **overrides,
    )
    n_ids = rng.choice((1, 2, 4, 8, 16, 32, 40))
    reads, writes, reference = make_script(rng, timing, n_ids, n_txns=rng.randint(30, 90))
    port = AxiPort(AxiParams(beat_bytes=timing.col_bytes), "mem", depth=rng.choice((2, 4, 8)))
    drawn_rate = rng.choice((1.0, 0.6, 0.15))
    stall_rate = rng.choice((0.0, 0.3, 0.7))
    # Drawn last, so every earlier draw is what it was before these existed.
    depth = rng.choice((timing.sched_queue_depth, timing.sched_queue_depth, 2, 4))
    write_first = rng.random() < 0.5 and bool(writes) and len(reads) > 2
    if "sched_queue_depth" not in overrides:
        timing = replace(timing, sched_queue_depth=depth)
    if write_first:
        writes[0]["axi_id"] = reads[len(reads) // 2]["axi_id"] = n_ids
    mport = RecordingPort(port, AxiMonitor("mem"))
    driver = Driver(
        mport, reads, writes, reference, random.Random(seed + 1),
        w_rate=drawn_rate if w_rate is None else w_rate, stall_rate=stall_rate,
    )
    if oracle:
        mc, checker = None, None
        slave = OracleSlave(mport, timing)
    else:
        slave = mc = MemoryController(mport, timing)
        checker = Checker(mc)
    sim = Simulator(scheduling=scheduling)
    for chan in port.channels():
        sim.register_channel(chan)
    for comp in (driver, slave, mport.monitor, checker):
        if comp is not None:
            sim.add(comp)
    return SimpleNamespace(sim=sim, driver=driver, mc=mc, slave=slave, mport=mport,
                           checker=checker, reference=reference, timing=timing,
                           write_first=write_first)


#: What a run shows from outside the slave, compared against the oracle.
OBSERVED = ("cycles", "log", "stats", "banks", "image")


def counters(sim, model):
    """The slave's counters by name: the oracle's own dict, or what the
    controller publishes in the simulator's metric registry."""
    if isinstance(model, DramOracle):
        return dict(model.stats)
    dump = sim.registry.dump()
    return {k: int(dump[f"{model.metric_path}/{k}"]) for k in dram_oracle.STAT_KEYS}


def finish_traffic(tb):
    """Run ``tb`` to the last response; what the run did, for comparison."""
    sim, driver, mport, timing = tb.sim, tb.driver, tb.mport, tb.timing
    sim.run(400_000, until=driver.done)
    sim.run(50)  # nothing may trail the last response
    assert not mport.monitor.outstanding()
    model = tb.slave.model if tb.mc is None else tb.mc
    assert model.idle()
    image = bytearray(MEM_BYTES)
    for index, block in model.store._blocks.items():
        image[index * timing.col_bytes:(index + 1) * timing.col_bytes] = block
    assert image == tb.reference
    run = {
        "cycles": sim.cycle,
        "log": mport.log,
        "stats": counters(sim, model),
        "banks": [(b.activations, b.row_hits, b.row_misses, b.open_row) for b in model.banks],
        "image": bytes(image),
        "timing": timing,
        "write_first": tb.write_first,
    }
    if tb.mc is not None:
        run.update(rr_pos=tb.mc._return_rr_pos, max_streak=tb.checker.max_streak,
                   max_window=tb.checker.max_window,
                   mean_window=tb.checker.window_sum / tb.checker.ticks)
    return run


def run_traffic(seed: int, scheduling: str, **overrides):
    """One seeded run; everything about it but ``scheduling`` follows ``seed``."""
    return finish_traffic(traffic_bench(seed, scheduling, **overrides))


def assert_matches_oracle(seed: int, **overrides):
    """The controller under both schedules and the oracle agree on ``seed``'s
    traffic; the controller's run, for further checks."""
    naive = run_traffic(seed, "naive", **overrides)
    compiled = run_traffic(seed, "compiled", **overrides)
    assert compiled == naive
    want = run_traffic(seed, "naive", oracle=True, **overrides)
    assert {k: naive[k] for k in OBSERVED} == {k: want[k] for k in OBSERVED}
    stats = naive["stats"]  # every column is exactly one hit or one miss
    assert stats["row_hits"] + stats["row_misses"] == stats["read_cols"] + stats["write_cols"]
    return naive


@pytest.mark.parametrize("seed", range(20))
def test_indexed_body_matches_scanning_body(seed):
    """The controller's indexed body against the oracle's scans."""
    assert_matches_oracle(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20, 220))
def test_indexed_body_matches_scanning_body_long_sweep(seed):
    assert_matches_oracle(seed)


def test_refresh_edges_inside_the_run():
    """A refresh closes every bank at once, so afterwards more than two
    banks compete for the two prep slots: oldest head first, not lowest
    bank first (seeds 14 and 24 tell the two apart)."""
    for seed in (3, 14, 24):
        run = assert_matches_oracle(seed, t_refi=257, t_rfc=40)
        assert run["stats"]["refreshes"] >= 2 and run["cycles"] > 2 * 257


def test_direction_streak_is_forced_past_its_limit():
    """Past ``direction_streak`` the pick is the oldest ready column whatever
    its direction, so the streak itself may run on: the controller must
    take that branch on the oracle's cycles."""
    for seed in (3, 14, 23, 51):
        run = assert_matches_oracle(seed, direction_streak=4)
        assert run["max_streak"] > 4 and run["stats"]["turnarounds"] >= 30


def test_sweep_reaches_the_corners_it_names():
    """The tier-1 seeds cover both parts, both pipeline limits, a full
    default window, full 2- and 4-entry windows, an ID first seen as a
    write, row conflicts and a natural refresh edge."""
    runs = [run_traffic(seed, "compiled") for seed in range(20)]
    assert {r["timing"].col_bytes for r in runs} == {16, 64}
    assert {r["timing"].per_id_txn_limit for r in runs} == {1, 2}
    full = {r["timing"].sched_queue_depth for r in runs if r["max_window"] == r["timing"].sched_queue_depth}
    assert {2, 4} <= full and max(full) > 4
    assert any(r["write_first"] for r in runs)
    assert any(r["stats"]["row_conflicts"] > 20 for r in runs)
    assert any(r["stats"]["refreshes"] for r in runs)


def stream_bench(scheduling: str, oracle: bool = False):
    """``dense_stream``'s traffic at the controller port: 32 IDs, each
    reading two full DDR4 rows (32-beat bursts) from a sequential source,
    then writing two to a sequential destination, W data every cycle, R and
    B drained every cycle, the default 48-entry window and one transaction
    per ID and direction in flight.  The window stays nearly full (45.6 of
    48 on average here, 46.6 on the benchmark)."""
    timing = DDR4_AWS_F1
    beats = timing.row_bytes // timing.col_bytes
    rng = random.Random(45)
    reference = bytearray(MEM_BYTES)
    reads, writes = [], []
    for burst in range(2 * 32):  # two rows per ID, the IDs round-robin
        axi_id, addr = burst % 32, burst * timing.row_bytes
        reads.append({"tag": burst, "axi_id": axi_id, "addr": addr, "beats": beats})
        addr += MEM_BYTES // 2
        data = [rng.randbytes(timing.col_bytes) for _ in range(beats)]
        reference[addr:addr + timing.row_bytes] = b"".join(data)
        writes.append({"tag": 100 + burst, "axi_id": axi_id, "addr": addr, "beats": beats,
                       "wbeats": [WBeat(d, last=i == beats - 1) for i, d in enumerate(data)]})
    port = AxiPort(AxiParams(beat_bytes=timing.col_bytes), "mem", depth=8)
    mport = RecordingPort(port, AxiMonitor("mem"))
    driver = Driver(mport, reads, writes, reference, random.Random(0), w_rate=1.0,
                    stall_rate=0.0)
    mc = checker = None
    if oracle:
        slave = OracleSlave(mport, timing)
    else:
        slave = mc = MemoryController(mport, timing)
        checker = Checker(mc, index=False)
    sim = Simulator(scheduling=scheduling)
    for chan in port.channels():
        sim.register_channel(chan)
    for comp in (driver, slave, mport.monitor, checker):
        if comp is not None:
            sim.add(comp)
    return SimpleNamespace(sim=sim, driver=driver, mc=mc, slave=slave, mport=mport,
                           checker=checker, reference=reference, timing=timing,
                           write_first=False)


def test_bench_shaped_stream_matches_oracle():
    """The seeds draw random addresses and burst lengths; this pins the
    shape the stream workloads put on the controller: a full window fed one
    column per cycle from 32 IDs' row-long bursts, reads then writes, under
    both schedules and against the oracle."""
    naive = finish_traffic(stream_bench("naive"))
    assert finish_traffic(stream_bench("compiled")) == naive
    want = finish_traffic(stream_bench("naive", oracle=True))
    assert {k: naive[k] for k in OBSERVED} == {k: want[k] for k in OBSERVED}
    assert naive["mean_window"] > 0.9 * DDR4_AWS_F1.sched_queue_depth
    stats = naive["stats"]
    assert stats["read_cols"] == stats["write_cols"] == 2 * 32 * 32


def test_oracle_shares_no_code_with_the_controller():
    """The oracle reads the timing parameters, the backing store and the AXI
    payload types from ``repro``, and nothing else."""
    tree = ast.parse(Path(dram_oracle.__file__).read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if node.module.startswith("repro")
    }
    assert imported == {("repro.axi.types", "BResp"), ("repro.axi.types", "RBeat"),
                        ("repro.dram.store", "MemoryStore"),
                        ("repro.dram.timing", "DramTiming")}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("repro") for alias in node.names)]


# ------------------------------------------------------ closed-form timing
PARTS = {"ddr4": DDR4_AWS_F1, "lpddr4": LPDDR4_KRIA}


class Script(Component):
    """Pushes ``(cycle, channel, item)`` entries at their cycles and drains
    R and B every cycle."""

    def __init__(self, mport, pushes):
        super().__init__("script")
        self.mport, self.pushes = mport, pushes

    def tick(self, cycle: int) -> None:
        for when, chan, item in self.pushes:
            if when == cycle:
                getattr(self.mport, "push_" + chan)(cycle, item)
        port = self.mport.port
        if port.r.can_pop():
            port.r.pop()
        if port.b.can_pop():
            port.b.pop()


def closed_form(timing, pushes, cycles: int):
    """Run ``pushes`` into the controller and into the oracle for
    ``cycles`` cycles; both must push the same ``(cycle, axi_id, "R"/"B",
    tag)`` sequence and count the same statistics, which are returned."""
    runs = []
    for oracle in (False, True):
        mport = RecordingPort(AxiPort(AxiParams(beat_bytes=timing.col_bytes), "mem", depth=8),
                              AxiMonitor("mem"))
        slave = OracleSlave(mport, timing) if oracle else MemoryController(mport, timing)
        sim = Simulator(scheduling="naive")
        for chan in mport.port.channels():
            sim.register_channel(chan)
        for comp in (Script(mport, pushes), slave, mport.monitor):
            sim.add(comp)
        sim.run(cycles)
        model = slave.model if oracle else slave
        runs.append((
            [(c, axi_id, type(p).__name__[0], p.tag) for c, (axi_id, p) in mport.log],
            counters(sim, model),
        ))
    assert runs[0] == runs[1]
    return runs[0]


def _read(cycle, axi_id, addr, beats, tag):
    return cycle, "ar", ARReq(axi_id, addr, beats, tag=tag)


def _write(cycle, axi_id, addr, beats, tag, col_bytes):
    return [(cycle, "aw", AWReq(axi_id, addr, beats, tag=tag))] + [
        (cycle, "w", WBeat(bytes([tag + 1]) * col_bytes, last=i == beats - 1))
        for i in range(beats)
    ]


@pytest.mark.parametrize("part", PARTS)
def test_closed_form_row_miss_and_cas_latency(part):
    """A read seen at cycle 1 opens its closed bank (``t_rcd``), takes the
    bus, and its data leaves ``t_cl`` later."""
    t = PARTS[part]
    log, stats = closed_form(t, [_read(0, 0, 0, 1, tag=0)], cycles=40)
    assert log == [(1 + t.t_rcd + t.t_cl, 0, "R", 0)]
    assert (stats["row_misses"], stats["row_hits"], stats["row_conflicts"]) == (1, 0, 0)
    assert stats["queue_wait_cycles"] == t.t_rcd and stats["turnarounds"] == 0


@pytest.mark.parametrize("part", PARTS)
def test_closed_form_row_hit_stream(part):
    """Sixteen columns of one open row go out one per bus cycle; the window
    fills 8 columns per cycle, so the second eight waited one cycle less."""
    t = PARTS[part]
    log, stats = closed_form(t, [_read(0, 0, 0, 16, tag=0)], cycles=60)
    assert log == [(1 + t.t_rcd + t.t_cl + k, 0, "R", 0) for k in range(16)]
    assert (stats["row_misses"], stats["row_hits"], stats["bus_cycles"]) == (1, 15, 16)
    assert stats["queue_wait_cycles"] == sum(t.t_rcd + k - (k >= 8) for k in range(16))


@pytest.mark.parametrize("part", PARTS)
def test_closed_form_row_conflict(part):
    """A second row of the same bank waits for the first read to leave the
    window and for ``t_ras`` since the activate, then pays ``t_rp +
    t_rcd``."""
    t = PARTS[part]
    other_row = t.row_bytes * t.n_banks  # bank 0, row 1
    log, stats = closed_form(
        t, [_read(0, 0, 0, 1, tag=0), _read(0, 1, other_row, 1, tag=1)], cycles=60)
    prep = max(2 + t.t_rcd, 1 + t.t_ras)
    assert log == [(1 + t.t_rcd + t.t_cl, 0, "R", 0),
                   (prep + t.t_rp + t.t_rcd + t.t_cl, 1, "R", 1)]
    assert (stats["row_misses"], stats["row_conflicts"], stats["row_hits"]) == (2, 1, 0)


@pytest.mark.parametrize("part", PARTS)
def test_closed_form_refresh_collision(part):
    """A read arriving on a refresh edge finds its row closed and its bank
    blocked for ``t_rfc``, then reopens the row."""
    t = replace(PARTS[part], t_refi=40, t_rfc=10)
    log, stats = closed_form(
        t, [_read(0, 0, 0, 1, tag=0), _read(t.t_refi - 1, 0, t.col_bytes, 1, tag=1)],
        cycles=2 * t.t_refi - 1)
    assert log == [(1 + t.t_rcd + t.t_cl, 0, "R", 0),
                   (t.t_refi + t.t_rfc + t.t_rcd + t.t_cl, 0, "R", 1)]
    assert (stats["refreshes"], stats["row_misses"], stats["row_conflicts"]) == (1, 2, 0)


@pytest.mark.parametrize("part", PARTS)
def test_closed_form_bus_turnaround(part):
    """Read, write, read on one open row: each direction change idles the
    bus ``t_bus_turn`` cycles after its column, so the second read leaves
    that much later than back-to-back columns would."""
    t = PARTS[part]
    first = 1 + t.t_rcd  # the row opens; the first read takes the bus
    pushes = [_read(0, 0, 0, 1, tag=0), *_write(0, 1, t.col_bytes, 1, 1, t.col_bytes),
              _read(first + 1, 2, 2 * t.col_bytes, 1, tag=2)]
    log, stats = closed_form(t, pushes, cycles=60)
    assert log == [(first + 1, 1, "B", 1), (first + t.t_cl, 0, "R", 0),
                   (first + 2 + t.t_bus_turn + t.t_cl, 2, "R", 2)]
    assert (stats["turnarounds"], stats["read_cols"], stats["write_cols"]) == (2, 2, 1)


@pytest.mark.parametrize("part", PARTS)
def test_closed_form_direction_streak(part):
    """With ``direction_streak=2`` and older writes waiting behind reads,
    the bus alternates two columns each way: a direction change restarts
    the streak at one, so the second column after it ends the run."""
    t = replace(PARTS[part], direction_streak=2)
    tb, first = t.t_bus_turn, 1 + t.t_rcd
    pushes = [*_write(0, 1, 8 * t.col_bytes, 4, 1, t.col_bytes), _read(1, 0, 0, 4, tag=0)]
    log, stats = closed_form(t, pushes, cycles=80)
    reads = [first, first + 1, first + 4 + tb, first + 5 + 2 * tb]
    assert log == sorted([(c + t.t_cl, 0, "R", 0) for c in reads]
                         + [(first + 7 + 3 * tb, 1, "B", 1)])
    assert stats["turnarounds"] == 3


# ------------------------------------------------ snapshot of a half-fed write
def _half_fed_write(mc: MemoryController) -> bool:
    """Some write holds part of its data, some of it under a byte strobe."""
    return any(
        0 < len(txn.wdata) < txn.length and any(s is not None for s in txn.wstrb)
        for txn in mc._write_txns.values()
    )


# Both DRAM parts and both pipeline limits; each script keeps strobed writes
# half fed past cycle 1 000 (seeds 2 and 4 stop near cycle 200 and 500).
@pytest.mark.parametrize("seed", (0, 1, 3, 5))
def test_restore_mid_write_matches_uninterrupted_run(seed):
    """Trickled W data (``w_rate=0.15``, one beat in five partially strobed)
    keeps write bursts half fed.  Past a seeded cycle, at the first cycle
    where one is, capture the testbench, round-trip the payload through
    pickle, restore it into a testbench rebuilt from the same seed and
    finish: cycles, push log, stats, banks and memory image equal the
    uninterrupted run, under both schedules."""
    start = random.Random(seed ^ 0x5EED).randrange(50, 1000)
    for scheduling in ("naive", "compiled"):
        want = run_traffic(seed, scheduling, w_rate=0.15)
        tb = traffic_bench(seed, scheduling, w_rate=0.15)
        tb.sim.run(start)
        tb.sim.run(want["cycles"], until=lambda: _half_fed_write(tb.mc))
        assert tb.sim.cycle < want["cycles"]
        payload = pickle.loads(pickle.dumps(capture_sim_state(tb.sim)))
        resumed = traffic_bench(seed, scheduling, w_rate=0.15)
        restore_sim_state(resumed.sim, payload)
        assert _half_fed_write(resumed.mc)
        assert finish_traffic(resumed) == want


# ------------------------------------------------- two schedules, one body
def memcpy32_submitted(scheduling=DEFAULT_SCHEDULING, active: int = 32, size: int = 1024):
    """The 32-core memcpy design with ``active`` copies submitted, not yet run."""
    build = BeethovenBuild(memcpy_config(n_cores=32), AWSF1Platform(), scheduling=scheduling)
    handle = FpgaHandle(build.design)
    src = handle.malloc(size)
    src.write(bytes((i * 13 + 5) % 256 for i in range(size)))
    handle.copy_to_fpga(src)
    futs = [
        handle.call("Memcpy", "memcpy", core, src=src.fpga_addr,
                    dst=handle.malloc(size).fpga_addr, len_bytes=size)
        for core in range(active)
    ]
    return build, handle, futs


def _outcome(build, handle, futs):
    return handle.cycle, [f.latency_cycles for f in futs], build.metrics(stable_only=True)


def test_swapping_bodies_mid_transfer_is_invisible():
    """``sim.step()`` ticks every component (the naive schedule), ``run``
    under ``compiled`` only the woken ones, both through the controller's
    one closure.  Swapping between naive steps and compiled runs
    mid-transfer, with the window and the R/B queues occupied, ends where
    an uninterrupted naive run does: a compiled run entered after naive
    steps must wake what those steps changed."""
    build, handle, futs = memcpy32_submitted("naive")
    for fut in futs:
        fut.get()
    end = handle.cycle + 100  # the swapped run overshoots the finish a little
    handle.run_cycles(end - handle.cycle)
    want = _outcome(build, handle, futs)

    build, handle, futs = memcpy32_submitted("compiled")
    sim, mc = build.design.sim, build.design.controller
    rng = random.Random(0)
    swaps_busy = 0
    while not all(f.done for f in futs):
        swaps_busy += bool(mc.window_columns and (mc._r_cand or mc._b_ready))
        for _ in range(rng.randint(1, 9)):
            sim.step()
            check_index(mc)
        handle.run_cycles(rng.randint(1, 40))
        check_index(mc)
    assert swaps_busy > 20
    handle.run_cycles(end - handle.cycle)
    assert _outcome(build, handle, futs) == want
