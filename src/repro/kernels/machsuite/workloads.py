"""Table I workloads and per-tool schedule models for Figure 6.

Every implementation (Vitis HLS, Spatial, Beethoven) of a MachSuite kernel is
described by the same schedule family::

    time = (compute_iterations / unroll) * II / clock  +  bytes_moved / mem_bw

The per-tool parameters are the manually-tuned pragma outcomes of Section
III-B, documented here as explicit model inputs:

* **Vitis HLS** selects its own clock at synthesis (we use the 273 MHz a
  typical U200 kernel closes at; the paper notes HLS picks its clock) but is
  stuck at a long initiation interval on loop-carried recurrences (NW) and at
  modest unrolling where on-chip memory ports bottleneck (stencils).
* **Spatial** runs at the platform default 125 MHz with its hardware
  line-buffer/reduce constructs (II = 1 where structurally possible).
* **Beethoven** also runs at 125 MHz (the paper clocks both at the default);
  per-core schedules come from the actual core implementations in this
  package, and multi-core throughput from the real runtime simulation.

The paper's qualitative anchors this table reproduces: NW is unparallelisable
with pragmas (HLS II >> 1) so one Beethoven core already wins ~2x; GeMM and
MD-KNN are LUT-limited for Beethoven; the stencils and NW are BRAM-limited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

HLS_CLOCK_MHZ = 273.0
SPATIAL_CLOCK_MHZ = 125.0
BEETHOVEN_CLOCK_MHZ = 125.0
#: Effective streaming bandwidth one kernel instance achieves (bytes/s); a
#: single stream at 64B/beat on the shared controller, derated by the
#: measured ~85% streaming efficiency of the substrate.
STREAM_BYTES_PER_SEC = 0.85 * 16e9


@dataclass(frozen=True)
class Workload:
    """One Table I row."""

    name: str
    description: str
    parallelism: str  # High / Medium / None (Table I)
    compute_iterations: int  # structural op count of the kernel
    bytes_moved: int  # DRAM traffic per invocation


@dataclass(frozen=True)
class ToolSchedule:
    """One tool's tuned implementation of one workload."""

    tool: str
    clock_mhz: float
    unroll: int
    ii: float
    notes: str = ""

    def kernel_seconds(self, workload: Workload) -> float:
        compute = workload.compute_iterations / self.unroll * self.ii
        compute_s = compute / (self.clock_mhz * 1e6)
        stream_s = workload.bytes_moved / STREAM_BYTES_PER_SEC
        return compute_s + stream_s

    def ops_per_second(self, workload: Workload) -> float:
        return 1 / self.kernel_seconds(workload)


def _table1() -> Dict[str, Workload]:
    n = 256
    gemm = Workload(
        "gemm", "O(N^3) matrix multiply", "High",
        compute_iterations=n * n * n,  # MAC lattice points
        bytes_moved=3 * n * n * 4,
    )
    nw = Workload(
        "nw", "O(N^2) string alignment", "None",
        compute_iterations=(n + 1) * (n + 1),  # DP cells
        bytes_moved=2 * n + 4 * n,
    )
    stencil2d = Workload(
        "stencil2d", "2D stencil pattern", "Medium",
        compute_iterations=(n - 2) * (n - 2),  # output cells
        bytes_moved=2 * n * n * 4,
    )
    m = 32
    stencil3d = Workload(
        "stencil3d", "3D stencil pattern", "High",
        compute_iterations=(m - 2) ** 3,
        bytes_moved=2 * m**3 * 4,
    )
    atoms, k = 1024, 32
    mdknn = Workload(
        "md-knn", "N-body via k-nearest neighbours", "High",
        compute_iterations=atoms * k,  # pairwise interactions
        bytes_moved=atoms * 12 + atoms * k * 4 + atoms * 12,
    )
    return {w.name: w for w in (gemm, nw, stencil2d, stencil3d, mdknn)}


TABLE1: Dict[str, Workload] = _table1()

#: Manually-tuned pragma outcomes per tool (Section III-B), per workload.
SCHEDULES: Dict[str, Dict[str, ToolSchedule]] = {
    "gemm": {
        "hls": ToolSchedule("hls", HLS_CLOCK_MHZ, unroll=16, ii=1.0,
                            notes="16-lane unroll; deeper unrolls failed routing"),
        "spatial": ToolSchedule("spatial", SPATIAL_CLOCK_MHZ, unroll=16, ii=1.0,
                                notes="same unroll; DSE points beyond failed synthesis"),
        "beethoven": ToolSchedule("beethoven", BEETHOVEN_CLOCK_MHZ, unroll=256, ii=1.0,
                                  notes="16x16 MAC grid per core (medium effort)"),
    },
    "nw": {
        "hls": ToolSchedule("hls", HLS_CLOCK_MHZ, unroll=1, ii=5.0,
                            notes="loop-carried max() recurrence defeats pragmas"),
        "spatial": ToolSchedule("spatial", SPATIAL_CLOCK_MHZ, unroll=1, ii=2.0,
                                notes="explicit wavefront, still dependence-bound"),
        "beethoven": ToolSchedule("beethoven", BEETHOVEN_CLOCK_MHZ, unroll=1, ii=1.0,
                                  notes="hand-pipelined DP cell, one cell/cycle"),
    },
    "stencil2d": {
        "hls": ToolSchedule("hls", HLS_CLOCK_MHZ, unroll=1, ii=2.0,
                            notes="BRAM port bound without manual line buffers"),
        "spatial": ToolSchedule("spatial", SPATIAL_CLOCK_MHZ, unroll=2, ii=1.0,
                                notes="line-buffer construct"),
        "beethoven": ToolSchedule("beethoven", BEETHOVEN_CLOCK_MHZ, unroll=2, ii=1.0,
                                  notes="row-buffered 3x3 window"),
    },
    "stencil3d": {
        "hls": ToolSchedule("hls", HLS_CLOCK_MHZ, unroll=2, ii=1.0,
                            notes="small volume partitions fully"),
        "spatial": ToolSchedule("spatial", SPATIAL_CLOCK_MHZ, unroll=4, ii=1.0,
                                notes="plane buffers"),
        "beethoven": ToolSchedule("beethoven", BEETHOVEN_CLOCK_MHZ, unroll=4, ii=1.0,
                                  notes="plane-buffered 7-point window"),
    },
    "md-knn": {
        "hls": ToolSchedule("hls", 250.0, unroll=4, ii=1.0,
                            notes="FP pipeline lowers achievable clock"),
        "spatial": ToolSchedule("spatial", SPATIAL_CLOCK_MHZ, unroll=4, ii=1.0),
        "beethoven": ToolSchedule("beethoven", BEETHOVEN_CLOCK_MHZ, unroll=8, ii=1.0,
                                  notes="8 interaction lanes per core"),
    },
}
