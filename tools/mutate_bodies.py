#!/usr/bin/env python
"""Mutation check of the streaming-path model bodies.

Each mutant below is one literal edit to one file under ``src/`` — a plausible
modelling slip in a tick body or in the per-burst code it calls, such as the
issue and retire half that ``Reader`` and ``Writer`` share
(``repro.memory.master``) — paired with the tier-1 test that must catch it.  The tool copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, checks that every named test passes there unmutated,
then applies the mutants one at a time and runs each one's test: the test
must fail.

The killing tests are independent oracles — cycle pins, ``bytearray`` data
references, ``AxiMonitor`` records, the closed-form Reader/Writer stall
split, the standalone DRAM timing model in ``tests/dram_oracle.py`` and its
closed-form cases — never a naive-vs-compiled comparison: both schedules
step the same body, so a mutant changes both alike and such a comparison
cannot see it.  A
scheduling hint (``next_event``, ``wake_edges``) is the exception: naive
stepping ignores hints, so for a hint naive stepping *is* the oracle, and
the naive-vs-compiled differential is the test that kills it.  Two
mutants drop a name from a ``_state`` declaration, which the snapshot
structure audit must notice, one makes a registry view read a value
captured when it was registered instead of reading through its owner, and
the last two slip the compiled commit drain's bookkeeping, which the
channel-statistics reference model in ``tests/test_channel_stats.py`` must
catch.

    python tools/mutate_bodies.py

It takes no options: every mutant in ``MUTANTS`` runs.  Each pytest run is
cut after ``TIMEOUT_S`` seconds; a mutant whose test hangs is reported as
TIMEOUT, not as killed, since the test must fail on its own.  Exits 1 when a
named test fails or hangs unmutated, an edit no longer matches its file
exactly once, or a mutant is not killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
# One run takes about 3 s; a hung model is cut off well before CI's own limit.
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in ``path``
    new: str
    test: str  # pytest node id that must fail under the mutant
    what: str


MUTANTS = (
    Mutant(
        "node-ar-rr-stuck",
        "src/repro/noc/axi_node.py",
        "                            self._ar_rr = idx if idx < n else 0\n",
        "                            pass\n",
        "tests/test_noc.py::test_buffer_node_grants_round_robin_and_locks_w_to_aw_order[naive]",
        "AxiBufferNode: the AR round-robin pointer is never advanced",
    ),
    Mutant(
        "node-aw-rr-stuck",
        "src/repro/noc/axi_node.py",
        "                            self._aw_rr = idx if idx < n else 0\n",
        "                            pass\n",
        "tests/test_noc.py::test_buffer_node_grants_round_robin_and_locks_w_to_aw_order[naive]",
        "AxiBufferNode: the AW round-robin pointer is never advanced",
    ),
    Mutant(
        "node-ar-gate-first-upstream",
        "src/repro/noc/axi_node.py",
        "            if any(up_ar_items):\n",
        "            if up_ar_items[0]:\n",
        "tests/test_noc.py::test_buffer_node_grants_round_robin_and_locks_w_to_aw_order[naive]",
        "AxiBufferNode: the AR section runs only while the first upstream has a request",
    ),
    Mutant(
        "node-ar-stall-never-opens",
        "src/repro/noc/axi_node.py",
        '                    stall_since["ar"] = cycle\n',
        "                    pass\n",
        "tests/test_noc.py::test_buffer_node_stall_windows[naive]",
        "AxiBufferNode: a blocked AR request opens no stall window",
    ),
    Mutant(
        "node-w-lock-held",
        "src/repro/noc/axi_node.py",
        "                            w_order.popleft()\n",
        "                            pass\n",
        "tests/test_memory_primitives.py::test_reader_writer_memcpy_roundtrip",
        "AxiBufferNode: a finished W burst never releases the W-order lock",
    ),
    Mutant(
        "pipe-latency-plus-one",
        "src/repro/noc/axi_node.py",
        "            due = cycle + latency\n",
        "            due = cycle + latency + 1\n",
        "tests/test_noc.py::test_pipe_adds_exactly_its_latency[naive]",
        "AxiPipe: items mature one cycle late",
    ),
    Mutant(
        "idmap-aw-fold-off-by-one",
        "src/repro/noc/idmap.py",
        "AWReq(req.axi_id % n_ids,",
        "AWReq((req.axi_id + 1) % n_ids,",
        "tests/test_noc.py::test_id_compressor_folds_ids_and_restores_them[naive]",
        "IdCompressor: the AW lane folds wide IDs one narrow ID off",
    ),
    Mutant(
        "reader-gap-ignored",
        "src/repro/memory/reader.py",
        "                and cycle >= self._next_issue_cycle\n",
        "",
        "tests/test_memory_primitives.py::test_issue_gap_spaces_bursts",
        "Reader: the AR issue gap is ignored",
    ),
    Mutant(
        "writer-gap-ignored",
        "src/repro/memory/writer.py",
        "                and cycle >= self._next_issue_cycle\n",
        "",
        "tests/test_memory_primitives.py::test_issue_gap_spaces_bursts",
        "Writer: the AW issue gap is ignored",
    ),
    Mutant(
        "master-inflight-release-early",
        "src/repro/memory/master.py",
        "            self._inflight_ok_since = cycle + 1\n",
        "            self._inflight_ok_since = cycle\n",
        "tests/test_memory_primitives.py::test_stall_split_one_burst_in_flight[read-naive]",
        "BurstMaster: a retired burst's in-flight slot is stamped free in the "
        "cycle it retires, not the next",
    ),
    Mutant(
        "dram-strobe-dropped",
        "src/repro/dram/controller.py",
        "store_write(addr, txn.wdata[col], txn.wstrb[col])",
        "store_write(addr, txn.wdata[col], None)",
        "tests/test_memory_primitives.py::test_writer_partial_tail_strb",
        "MemoryController issue: a strobed write column stores every byte",
    ),
    Mutant(
        "dram-streak-restart-off-by-one",
        "src/repro/dram/controller.py",
        "                            self._dir_streak = 1\n",
        "                            self._dir_streak = 0\n",
        "tests/test_dram_indexed.py::test_closed_form_direction_streak[ddr4]",
        "MemoryController issue: a direction change restarts the streak at 0",
    ),
    Mutant(
        "dram-turnaround-dropped",
        "src/repro/dram/controller.py",
        "self._bus_free_at = cycle + 1 + t_turn",
        "self._bus_free_at = cycle + 1",
        "tests/test_dram_indexed.py::test_closed_form_bus_turnaround[ddr4]",
        "MemoryController issue: a direction change costs no bus turnaround",
    ),
    Mutant(
        "dram-cas-off-by-one",
        "src/repro/dram/controller.py",
        "(cycle + t_cl, data, err)",
        "(cycle + t_cl + 1, data, err)",
        "tests/test_dram_indexed.py::test_closed_form_row_miss_and_cas_latency[ddr4]",
        "MemoryController issue: read data is back one cycle after the CAS latency",
    ),
    Mutant(
        "dram-enqueue-rr-order",
        "src/repro/dram/controller.py",
        "insort(ready, (False, read_pos[axi_id], q, returns))",
        "insort(ready, (False, rr_index[axi_id], q, returns))",
        "tests/test_dram_indexed.py::test_indexed_body_matches_scanning_body[1]",
        "MemoryController enqueue: read IDs visited in round-robin order, not first-seen order",
    ),
    Mutant(
        "dram-pick-newest-bank",
        "src/repro/dram/controller.py",
        "if oldest_same is None or run.seq < oldest_same.seq:",
        "if oldest_same is None or run.seq > oldest_same.seq:",
        "tests/test_dram_indexed.py::test_bench_shaped_stream_matches_oracle",
        "MemoryController pick: the youngest ready bank's same-direction run wins, not the oldest",
    ),
    Mutant(
        "dram-window-depth-plus-one",
        "src/repro/dram/controller.py",
        "room = depth - seq + self.read_cols",
        "room = depth + 1 - seq + self.read_cols",
        "tests/test_dram_indexed.py::test_bench_shaped_stream_matches_oracle",
        "MemoryController enqueue: the window holds one column more than its depth",
    ),
    Mutant(
        "copier-ignores-max-writes",
        "src/repro/baselines/copier.py",
        "(self.max_writes is None or self._writes_in_flight < self.max_writes)",
        "True",
        "tests/test_paper_anchors.py::test_baseline_memcpy_cycles",
        "BaselineCopier: the pure-HDL preset opens a write before the last one's B",
    ),
    Mutant(
        "copier-reserves-fifo-only",
        "src/repro/baselines/copier.py",
        "(self._reserved + beats) * beat <= self.fifo_bytes",
        "(len(self._fifo) + beats) * beat <= self.fifo_bytes",
        "tests/test_paper_anchors.py::test_baseline_memcpy_cycles",
        "BaselineCopier: an AR counts banked beats but not the reads still in flight",
    ),
    Mutant(
        "delay-hint-late",
        "src/repro/baselines/delay_core.py",
        "return max(cycle, self._respond_at)",
        "return max(cycle, self._respond_at + 1)",
        "tests/test_fast_forward.py::test_runtime_server_differential_compiled",
        "DelayCore.next_event: the response hint names the cycle after the due one",
    ),
    Mutant(
        "delay-wake-edges-drop-req",
        "src/repro/baselines/delay_core.py",
        "        return [self.io.req], []\n",
        "        return [], []\n",
        "tests/test_fast_forward.py::test_runtime_server_differential_compiled",
        "DelayCore.wake_edges: an arriving command does not wake an idle core",
    ),
    Mutant(
        "dram-refresh-hint-late",
        "src/repro/dram/controller.py",
        "else (cycle // t + 1) * t\n",
        "else (cycle // t + 1) * t + 1\n",
        "tests/test_fast_forward.py::test_runtime_server_differential_compiled",
        "MemoryController.next_event: an idle controller wakes a cycle after the refresh edge",
    ),
    Mutant(
        "dram-state-drops-dir-streak",
        "src/repro/dram/controller.py",
        '"_bus_dir_write", "_dir_streak",',
        '"_bus_dir_write",',
        "tests/test_snapshot_structure.py::test_excluded_attributes_are_wiring[memcpy32]",
        "MemoryController._state: the bus direction streak is left out of snapshots",
    ),
    Mutant(
        "server-state-drops-next-poll",
        "src/repro/runtime/server.py",
        '"_lock_until", "_next_poll",',
        '"_lock_until",',
        "tests/test_snapshot_structure.py::test_excluded_attributes_are_wiring[memcpy32]",
        "RuntimeServer._state: the next poll visit is left out of snapshots",
    ),
    Mutant(
        "dram-stats-view-stale",
        "src/repro/dram/controller.py",
        "scope.bind(key, view)",
        "scope.bind(key, lambda v=view(): v)",
        "tests/test_snapshot.py::test_every_owned_metric_is_captured_with_its_owner[memcpy32]",
        "MemoryController: a stats view reads the count it had when registered",
    ),
    Mutant(
        "drain-area-one-cycle-early",
        "src/repro/sim/compiled.py",
        "chan._area += (n - k) * (cy1 - chan._anchor)",
        "chan._area += (n - k) * (cycle - chan._anchor)",
        "tests/test_channel_stats.py::test_channel_statistics_match_the_reference_model[compiled-0]",
        "Commit drain: an occupancy change is credited from the committed cycle, not the next",
    ),
    Mutant(
        "drain-pops-uncounted",
        "src/repro/sim/compiled.py",
        "                        chan._popped += n\n",
        "",
        "tests/test_channel_stats.py::test_channel_statistics_match_the_reference_model[compiled-0]",
        "Commit drain: committed pops are not counted",
    ),
)


def _pytest(tree: Path, tests: List[str]) -> Optional[int]:
    """pytest's exit code, or ``None`` when the run exceeds ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutate-bodies-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        tests = sorted({m.test for m in MUTANTS})
        if _pytest(tree, tests) != 0:
            print(f"unmutated tree fails or hangs on one of: {' '.join(tests)}")
            return 1
        for m in MUTANTS:
            target = tree / m.path
            source = target.read_text()
            if source.count(m.old) != 1:
                print(f"{m.name:30} STALE     the edit matches {m.path} "
                      f"{source.count(m.old)} times, not once")
                failures += 1
                continue
            target.write_text(source.replace(m.old, m.new))
            t0 = time.perf_counter()
            code = _pytest(tree, [m.test])
            target.write_text(source)
            # pytest exits 1 exactly when tests ran and one failed.
            if code is None:
                verdict = "TIMEOUT"
            elif code == 1:
                verdict = "killed"
            else:
                verdict = "SURVIVED" if code == 0 else f"ERROR {code}"
            failures += verdict != "killed"
            print(f"{m.name:30} {verdict:9} {time.perf_counter() - t0:5.1f} s  {m.test}")
    print(f"{len(MUTANTS) - failures}/{len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
