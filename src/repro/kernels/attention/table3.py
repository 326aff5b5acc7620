"""Table III harness: attention throughput/energy across platforms.

Rows: CPU roofline, GPU roofline, the multi-core Beethoven A^3 FPGA design
(cycle-simulated end to end, including K/V loading, query streaming and the
runtime), and the original 1-core A^3 ASIC model at 1 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.baselines.roofline import (
    AsicA3Baseline,
    CPU_I7_12700K,
    GPU_RTX_3090,
)
from repro.core.build import BeethovenBuild, BuildMode
from repro.fpga.power import estimate_power
from repro.kernels.attention.a3 import a3_config
from repro.kernels.attention.reference import BERT_DIM, BERT_KEYS, scale_log2e_q
from repro.platforms import AWSF1Platform
from repro.platforms.base import Platform
from repro.runtime import FpgaHandle


#: Fixed-point quantisation scale of the A^3 softmax temperature.
QUANT_SCALE = 0.05


@dataclass
class Table3Row:
    platform: str
    ops_per_second: float
    energy_per_op_uj: Optional[float]
    power_w: Optional[float]


@dataclass
class BeethovenA3Result:
    n_cores: int
    queries: int
    cycles: int
    ops_per_second: float
    power_w: float
    verified: bool
    cycles_per_query_per_core: float

    @property
    def energy_per_op_uj(self) -> float:
        return self.power_w / self.ops_per_second * 1e6


def run_beethoven_a3(
    n_cores: int = 23,
    queries_per_core: int = 128,
    dim: int = BERT_DIM,
    n_keys: int = BERT_KEYS,
    platform: Optional[Platform] = None,
) -> BeethovenA3Result:
    """Simulate the multi-core A^3 design end to end and measure throughput."""
    platform = platform or AWSF1Platform()
    build = BeethovenBuild(a3_config(n_cores, dim, n_keys), platform, BuildMode.Simulation)
    handle = FpgaHandle(build.design)
    rng = np.random.default_rng(99)
    keys = rng.integers(-40, 40, (n_keys, dim)).astype(np.int8)
    values = rng.integers(-40, 40, (n_keys, dim)).astype(np.int8)
    pk, pv = handle.malloc(keys.nbytes), handle.malloc(values.nbytes)
    pk.write(keys.tobytes())
    pv.write(values.tobytes())
    handle.copy_to_fpga(pk)
    handle.copy_to_fpga(pv)
    # All cores share the same stationary K/V (one BERT head replicated).
    loads = [
        handle.call("A3", "load_kv", core, key_addr=pk.fpga_addr, value_addr=pv.fpga_addr)
        for core in range(n_cores)
    ]
    for fut in loads:
        fut.get()
    queries = rng.integers(-40, 40, (n_cores, queries_per_core, dim)).astype(np.int8)
    temp = scale_log2e_q(dim, QUANT_SCALE)
    in_ptrs, out_ptrs, futures = [], [], []
    for core in range(n_cores):
        pq = handle.malloc(queries_per_core * dim)
        po = handle.malloc(queries_per_core * dim)
        pq.write(queries[core].tobytes())
        handle.copy_to_fpga(pq)
        in_ptrs.append(pq)
        out_ptrs.append(po)
    start = handle.cycle
    for core in range(n_cores):
        futures.append(
            handle.call(
                "A3", "attend", core,
                query_addr=in_ptrs[core].fpga_addr,
                out_addr=out_ptrs[core].fpga_addr,
                n_queries=queries_per_core,
                temp_q=temp,
            )
        )
    for fut in futures:
        fut.get(max_cycles=50_000_000)
    cycles = handle.cycle - start
    total_queries = n_cores * queries_per_core
    seconds = platform.cycles_to_seconds(cycles)
    # Verify one core's output against the fixed-point reference.
    from repro.kernels.attention.reference import attention_a3_fixed

    handle.copy_from_fpga(out_ptrs[0])
    got = np.frombuffer(out_ptrs[0].read(), dtype=np.int8).reshape(queries_per_core, dim)
    expected = np.stack(
        [attention_a3_fixed(q, keys, values, QUANT_SCALE) for q in queries[0]]
    )
    power = estimate_power(build.resource_report.with_shell, platform.clock_mhz)
    return BeethovenA3Result(
        n_cores=n_cores,
        queries=total_queries,
        cycles=cycles,
        ops_per_second=total_queries / seconds,
        power_w=power.total_w,
        verified=bool((got == expected).all()),
        cycles_per_query_per_core=cycles / queries_per_core,
    )


def table3(n_cores: int = 23, queries_per_core: int = 128) -> List[Table3Row]:
    """The paper's Table III rows for one BERT head (``BERT_DIM`` x ``BERT_KEYS``)."""
    dim, n_keys = BERT_DIM, BERT_KEYS
    rows = [
        Table3Row(
            "CPU (roofline)",
            CPU_I7_12700K.ops_per_second(dim, n_keys),
            CPU_I7_12700K.energy_per_op_uj(dim, n_keys),
            CPU_I7_12700K.power_w,
        ),
        Table3Row(
            "GPU (roofline)",
            GPU_RTX_3090.ops_per_second(dim, n_keys),
            GPU_RTX_3090.energy_per_op_uj(dim, n_keys),
            GPU_RTX_3090.power_w,
        ),
    ]
    result = run_beethoven_a3(n_cores, queries_per_core)
    rows.append(
        Table3Row(
            f"Beethoven ({result.n_cores}-core FPGA @250MHz)",
            result.ops_per_second,
            result.energy_per_op_uj,
            result.power_w,
        )
    )
    asic = AsicA3Baseline()
    rows.append(
        Table3Row("1-core A3 ASIC @1GHz (model)", asic.ops_per_second(n_keys), None, None)
    )
    return rows


def render_table3(rows: List[Table3Row]) -> str:
    lines = [f"{'platform':<36} {'ops/s':>12} {'uJ/op':>8} {'power W':>8}"]
    for r in rows:
        energy = f"{r.energy_per_op_uj:8.2f}" if r.energy_per_op_uj is not None else "       -"
        power = f"{r.power_w:8.1f}" if r.power_w is not None else "       -"
        lines.append(f"{r.platform:<36} {r.ops_per_second:>12.3e} {energy} {power}")
    return "\n".join(lines)
