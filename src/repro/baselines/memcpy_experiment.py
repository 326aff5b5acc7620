"""Memcpy microbenchmark harness (Figures 4 and 5, ablation E8).

Runs the four implementations of Section III-A against the same DRAM model
and reports throughput plus per-transaction timelines:

* ``beethoven``      — framework-generated core, 64-beat bursts over 4 AXI IDs
* ``beethoven-notlp``— same core, single AXI ID
* ``pure-hdl``       — hand-written copier, direct controller attach
* ``hls``            — Vitis-style copier, 16-beat bursts on one ID

The two baselines are presets of one ``BaselineCopier`` (``baselines/copier.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.axi import AxiMonitor, AxiParams, AxiPort, MonitoredAxiPort, TxnRecord
from repro.baselines.copier import HLS, PURE_HDL, BaselineCopier, CopierPreset
from repro.core.build import BeethovenBuild, BuildMode
from repro.dram import DDR4_AWS_F1, MemoryController
from repro.kernels.memcpy import memcpy_config
from repro.platforms import AWSF1Platform
from repro.runtime import FpgaHandle
from repro.sim import Simulator

CLOCK_NS = 4.0  # 250 MHz


@dataclass
class MemcpyResult:
    implementation: str
    size_bytes: int
    cycles: int
    records: List[TxnRecord] = field(default_factory=list)
    verified: bool = False

    @property
    def gbps(self) -> float:
        seconds = self.cycles * CLOCK_NS * 1e-9
        return self.size_bytes / seconds / 1e9 if seconds else 0.0


def _pattern(size: int) -> bytes:
    return bytes((i * 131 + 17) % 256 for i in range(size))


def _standalone_stack():
    port = AxiPort(AxiParams(), depth=8)
    monitor = AxiMonitor("mem")
    mport = MonitoredAxiPort(port, monitor)
    controller = MemoryController(mport, DDR4_AWS_F1)
    sim = Simulator()
    sim.add(controller)
    for chan in port.channels():
        sim.register_channel(chan)
    return sim, controller, mport, monitor


def run_baseline_memcpy(size_bytes: int, preset: CopierPreset) -> MemcpyResult:
    """One baseline copier, alone on the controller port, copying ``size_bytes``."""
    sim, controller, mport, monitor = _standalone_stack()
    master = BaselineCopier(mport, *preset)
    sim.add(master)
    src, dst = 0x0, 0x4000_0000
    controller.store.write(src, _pattern(size_bytes))
    master.start(src, dst, size_bytes)
    start = sim.cycle
    sim.run(200 * max(size_bytes // 64, 64) + 50_000, until=lambda: master.done)
    result = MemcpyResult(preset.name, size_bytes, sim.cycle - start, monitor.records)
    result.verified = controller.store.read(dst, size_bytes) == _pattern(size_bytes)
    return result


def run_beethoven_memcpy(
    size_bytes: int,
    tlp: bool = True,
    burst_beats: int = 64,
    label: Optional[str] = None,
) -> MemcpyResult:
    build = BeethovenBuild(
        memcpy_config(n_cores=1, tlp=tlp, burst_beats=burst_beats),
        AWSF1Platform(),
        BuildMode.Simulation,
    )
    handle = FpgaHandle(build.design)
    src = handle.malloc(size_bytes)
    dst = handle.malloc(size_bytes)
    src.write(_pattern(size_bytes))
    handle.copy_to_fpga(src)
    # Measure fabric time: from when the command reaches the core to response.
    start = handle.cycle
    resp = handle.call(
        "Memcpy", "memcpy", 0,
        src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size_bytes,
    )
    resp.get(max_cycles=200 * max(size_bytes // 64, 64) + 100_000)
    cycles = handle.cycle - start
    handle.copy_from_fpga(dst)
    name = label or ("beethoven" if tlp else "beethoven-notlp")
    result = MemcpyResult(name, size_bytes, cycles, build.design.monitor.records)
    result.verified = dst.read() == _pattern(size_bytes)
    return result


def run_all(size_bytes: int) -> Dict[str, MemcpyResult]:
    """The Figure 4 comparison at one copy size."""
    return {
        "hls": run_baseline_memcpy(size_bytes, HLS),
        "beethoven": run_beethoven_memcpy(size_bytes, tlp=True),
        "beethoven-notlp": run_beethoven_memcpy(size_bytes, tlp=False),
        "pure-hdl": run_baseline_memcpy(size_bytes, PURE_HDL),
    }


def timeline(result: MemcpyResult) -> List[dict]:
    """Figure-5-style transaction spans, sorted by issue time."""
    rows = []
    for rec in result.records:
        if rec.complete_cycle is None:
            continue
        rows.append(
            {
                "kind": rec.kind,
                "id": rec.axi_id,
                "addr": rec.addr,
                "beats": rec.length,
                "issue": rec.issue_cycle,
                "first_data": rec.first_data_cycle,
                "complete": rec.complete_cycle,
            }
        )
    return sorted(rows, key=lambda r: r["issue"])


def render_timeline(result: MemcpyResult) -> str:
    """ASCII reproduction of the Figure 5 timing diagrams, 72 columns wide."""
    width = 72
    rows = timeline(result)
    if not rows:
        return "(no transactions)"
    t0 = min(r["issue"] for r in rows)
    t1 = max(r["complete"] for r in rows)
    span = max(t1 - t0, 1)
    lines = [f"{result.implementation}: {len(rows)} txns over {span} cycles"]
    for r in rows:
        a = int((r["issue"] - t0) / span * (width - 1))
        b = int((r["complete"] - t0) / span * (width - 1))
        bar = " " * a + ("R" if r["kind"] == "read" else "W") * max(b - a, 1)
        lines.append(
            f"  id{r['id']:>2} {r['kind'][0]} {bar:<{width}} "
            f"[{r['issue'] - t0:>6},{r['complete'] - t0:>6}]"
        )
    return "\n".join(lines)
