"""Randomised differential for the memory controller's two tick bodies.

The interpreted ``MemoryController.tick`` selects by scanning everything it
holds; the closure from ``compile_tick`` selects from the per-bank index and
the R/B ready sets.  Both act through the same helpers, so they must be
interchangeable cycle by cycle.  Seeded random AXI traffic goes straight into
a controller (no NoC in between) under ``naive`` and ``compiled``:

* the ``(cycle, (axi_id, RBeat/BResp))`` sequence the controller pushes,
  its ``stats`` and the per-bank counters are identical;
* the final ``MemoryStore`` equals a plain ``bytearray`` the script was
  applied to, and every read of settled data returns that reference's bytes;
* after every cycle, under both schedules, the indexes describe exactly what
  a full scan of the transaction tables finds (``check_index``).

The same testbench is the controller-state differential for snapshots: a
capture taken while a write burst is half fed restores into a rebuilt
testbench and finishes exactly like the uninterrupted run.  The last section
swaps bodies mid-run on the full memcpy design.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace
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
from repro.snapshot.engine import capture_partition_state, restore_partition_state

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
    window = list(mc._sched.values())
    assert [r.seq for r in window] == list(mc._sched) == sorted(mc._sched)
    assert len(window) <= mc.timing.sched_queue_depth
    assert window == [] or window[-1].seq < mc._sched_seq
    # ``_window_add`` inlines the address map; it must stay ``decompose``.
    assert all(mc.timing.decompose(r.addr)[:2] == (r.bank, r.row) for r in window)
    by_bank = [[r for r in window if r.bank == b] for b in range(len(mc.banks))]
    for indexed, scanned in zip(mc._bank_q, by_bank):
        assert len(indexed) == len(scanned)
        assert all(a is b for a, b in zip(indexed, scanned))  # same objects, arrival order
    assert mc._live_banks == {b for b, q in enumerate(mc._bank_q) if q}
    for issue, pos, active in ((mc._id_read_issue, mc._read_pos, mc._read_active),
                               (mc._id_write_issue, mc._write_pos, mc._write_active)):
        assert list(pos.items()) == [(axi_id, i) for i, axi_id in enumerate(issue)]
        assert active == {pos[axi_id] for axi_id, q in issue.items() if q}
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
    """Registered after the controller: sees its state after every tick."""

    def __init__(self, mc):
        super().__init__("checker")
        self.mc = mc
        self.max_streak = 0
        self.max_window = 0

    def tick(self, cycle: int) -> None:
        check_index(self.mc)
        self.max_streak = max(self.max_streak, self.mc._dir_streak)
        self.max_window = max(self.max_window, len(self.mc._sched))


# ------------------------------------------------------------------- harness
def traffic_bench(seed: int, scheduling: str, w_rate: Optional[float] = None, **overrides):
    """The seeded testbench, built but not run; everything about it but
    ``scheduling`` (and ``w_rate``, when given) follows ``seed``.

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
    mc = MemoryController(mport, timing)
    driver = Driver(
        mport, reads, writes, reference, random.Random(seed + 1),
        w_rate=drawn_rate if w_rate is None else w_rate, stall_rate=stall_rate,
    )
    checker = Checker(mc)
    sim = Simulator(scheduling=scheduling)
    for chan in port.channels():
        sim.register_channel(chan)
    for comp in (driver, mc, mport.monitor, checker):
        sim.add(comp)
    return SimpleNamespace(sim=sim, driver=driver, mc=mc, mport=mport, checker=checker,
                           reference=reference, timing=timing, write_first=write_first)


def finish_traffic(tb):
    """Run ``tb`` to the last response; what the run did, for comparison."""
    sim, driver, mc, mport, timing = tb.sim, tb.driver, tb.mc, tb.mport, tb.timing
    sim.run(400_000, until=driver.done)
    sim.run(50)  # nothing may trail the last response
    assert mc.idle() and not mc._sched and not mport.monitor.outstanding()
    image = bytearray(MEM_BYTES)
    for index, block in mc.store._blocks.items():
        image[index * timing.col_bytes:(index + 1) * timing.col_bytes] = block
    assert image == tb.reference
    return {
        "cycles": sim.cycle,
        "log": mport.log,
        "stats": {k: int(v) for k, v in mc.stats.items()},
        "banks": [(b.activations, b.row_hits, b.row_misses, b.open_row) for b in mc.banks],
        "image": bytes(image),
        "rr_pos": mc._return_rr_pos,
        "max_streak": tb.checker.max_streak,
        "max_window": tb.checker.max_window,
        "timing": timing,
        "write_first": tb.write_first,
    }


def run_traffic(seed: int, scheduling: str, **overrides):
    """One seeded run; everything about it but ``scheduling`` follows ``seed``."""
    return finish_traffic(traffic_bench(seed, scheduling, **overrides))


def assert_bodies_agree(seed: int, **overrides):
    naive = run_traffic(seed, "naive", **overrides)
    compiled = run_traffic(seed, "compiled", **overrides)
    assert compiled == naive
    return naive


@pytest.mark.parametrize("seed", range(20))
def test_indexed_body_matches_scanning_body(seed):
    assert_bodies_agree(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20, 220))
def test_indexed_body_matches_scanning_body_long_sweep(seed):
    assert_bodies_agree(seed)


def test_refresh_edges_inside_the_run():
    """A refresh closes every bank at once, so afterwards more than two
    banks compete for the two prep slots: oldest head first, not lowest
    bank first (seeds 14 and 24 tell the two apart)."""
    for seed in (3, 14, 24):
        run = assert_bodies_agree(seed, t_refi=257, t_rfc=40)
        assert run["stats"]["refreshes"] >= 2 and run["cycles"] > 2 * 257


def test_direction_streak_is_forced_past_its_limit():
    """Past ``direction_streak`` the pick is the oldest ready column whatever
    its direction, so the streak itself may run on: both bodies must take
    that branch on the same cycles."""
    for seed in (3, 14, 23, 51):
        run = assert_bodies_agree(seed, direction_streak=4)
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
    uninterrupted run, under the scanning body and the indexed one."""
    start = random.Random(seed ^ 0x5EED).randrange(50, 1000)
    for scheduling in ("naive", "compiled"):
        want = run_traffic(seed, scheduling, w_rate=0.15)
        tb = traffic_bench(seed, scheduling, w_rate=0.15)
        tb.sim.run(start)
        tb.sim.run(want["cycles"], until=lambda: _half_fed_write(tb.mc))
        assert tb.sim.cycle < want["cycles"]
        payload = pickle.loads(pickle.dumps(capture_partition_state(tb.sim)))
        resumed = traffic_bench(seed, scheduling, w_rate=0.15)
        restore_partition_state(resumed.sim, payload)
        assert _half_fed_write(resumed.mc)
        assert finish_traffic(resumed) == want


# ------------------------------------------------------ two bodies, one state
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
    """``sim.step()`` runs the interpreted ``tick``, ``sim.run`` under
    ``compiled`` the closure; alternating them mid-transfer, with the window
    and the R/B queues occupied, ends where an uninterrupted naive run does."""
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
        swaps_busy += bool(mc._sched and (mc._r_cand or mc._b_ready))
        for _ in range(rng.randint(1, 9)):
            sim.step()
            check_index(mc)
        handle.run_cycles(rng.randint(1, 40))
        check_index(mc)
    assert swaps_busy > 20
    handle.run_cycles(end - handle.cycle)
    assert _outcome(build, handle, futs) == want
