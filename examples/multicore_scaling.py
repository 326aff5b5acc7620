"""Multi-core scaling and runtime-server contention (Section III-B).

Demonstrates the two things Figure 6 is about:

1. scaling a System is a one-argument change (``n_cores=``), with the
   floorplanner, networks and bindings regenerated automatically;
2. measured multi-core throughput falls short of ideal when kernel latency
   is low, because every command serialises through the runtime server —
   shown here with fixed-latency cores swept across latencies.

Run:  python examples/multicore_scaling.py
"""

import numpy as np

from repro.core import BeethovenBuild
from repro.farm import Farm, Job
from repro.kernels.machsuite import stencil3d_config
from repro.kernels.machsuite.fig6 import dispatch_cost_cycles
from repro.kernels.machsuite.reference import stencil3d
from repro.platforms import AWSF1Platform, SimulationPlatform
from repro.runtime import FpgaHandle


def scaling_demo() -> None:
    print("== scaling a Stencil3D System by changing n_cores ==")
    n = 8
    rng = np.random.default_rng(1)
    for n_cores in (1, 2, 4):
        build = BeethovenBuild(stencil3d_config(n_cores=n_cores), SimulationPlatform())
        handle = FpgaHandle(build.design)
        grids = rng.integers(-50, 50, (n_cores, n, n, n)).astype(np.int32)
        futures, ptrs = [], []
        start = handle.cycle
        for core in range(n_cores):
            pg, po = handle.malloc(grids[core].nbytes), handle.malloc(grids[core].nbytes)
            pg.write(grids[core].tobytes())
            handle.copy_to_fpga(pg)
            futures.append(
                handle.call(
                    "Stencil3d", "stencil3d", core,
                    grid_addr=pg.fpga_addr, out_addr=po.fpga_addr, n=n, c0=3, c1=2,
                )
            )
            ptrs.append(po)
        for fut in futures:
            fut.get()
        for core, po in enumerate(ptrs):
            handle.copy_from_fpga(po)
            got = np.frombuffer(po.read(), dtype=np.int32).reshape(n, n, n)
            assert (got == stencil3d(grids[core], 3, 2)).all()
        print(f"  {n_cores} core(s): {n_cores} grids verified in {handle.cycle - start} cycles")


def contention_demo() -> None:
    print()
    print("== runtime-server contention: measured vs ideal ==")
    platform = AWSF1Platform(clock_mhz=125.0)
    n_cores = 16
    d = dispatch_cost_cycles(platform)
    print(f"   per-command host dispatch cost: {d} cycles; {n_cores} cores")
    # The four latency points are independent simulations, one farm job
    # each (repeat runs are served from the farm's result cache).
    latencies = (500, 2_000, 8_000, 32_000)
    farm = Farm()
    jobs = [
        Job(
            "repro.kernels.machsuite.fig6:simulate_measured",
            (n_cores, latency, platform),
            {"rounds": 3},
            label=f"contention/l{latency}",
        )
        for latency in latencies
    ]
    print(f"   {'kernel cycles':>14} {'measured/ideal':>15} {'source':>8}")
    for latency, res in zip(latencies, farm.run(jobs)):
        ideal = n_cores * platform.clock_mhz * 1e6 / latency
        source = "cache" if res.cache_hit else res.worker
        print(
            f"   {latency:>14} {res.value.ops_per_second / ideal:>14.1%} "
            f"{source:>8}"
        )
    print("   (low-latency kernels contend for the server lock; long kernels don't)")


if __name__ == "__main__":
    scaling_demo()
    contention_demo()
