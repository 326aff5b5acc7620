"""Simulation-kernel hot-path microbenchmark: ticks/sec across schedules.

Two 32-core memcpy configurations exercise the scheduling spectrum:

* ``sparse`` — one active core out of 32, continuously streaming: the
  whole-design fast-forward gate is pinned (traffic in flight every cycle)
  while 90+% of components are idle.  This is the configuration selective
  scheduling exists for.
* ``dense``  — all 32 cores streaming concurrently: near-worst case for
  selective scheduling (most components wake most cycles), bounding its
  overhead when there is nothing to elide.  This is the configuration the
  ``compiled`` tick-program backend targets: same wake decisions as
  selective, but with dispatch specialised into closures and commit drains
  flattened, so the per-tick overhead share shrinks.

Each (case, schedule) cell is run twice and the faster repetition is kept
as ``wall_seconds`` (the command loop only).  What a user pays around it is
recorded beside it: ``setup_seconds`` (elaboration plus the host's
``copy_to_fpga`` DMA before the first command) and ``end_to_end_seconds``
(the whole cell: set-up and both repetitions).  Cycle counts must be
identical across all four schedules — the benchmark doubles as a
differential check.

Run as a script to emit ``BENCH_kernel.json``::

    python benchmarks/bench_kernel_hotpath.py --quick --out BENCH_kernel.json
"""

import argparse
import json
import time

from repro.core.build import BeethovenBuild, BuildMode
from repro.kernels.memcpy import memcpy_config
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle
from repro.sim import SCHEDULING_MODES

N_CORES = 32
REPS = 2  # keep the faster repetition of each cell


def _run_cell(active_cores, size, rounds, scheduling):
    """One (case, schedule) cell: ``rounds`` memcpys per active core."""
    t_cell = time.perf_counter()
    build = BeethovenBuild(
        memcpy_config(n_cores=N_CORES),
        SimulationPlatform(),
        BuildMode.Simulation,
        scheduling=scheduling,
    )
    handle = FpgaHandle(build.design)
    sim = build.design.sim
    bufs = []
    for core in range(active_cores):
        src, dst = handle.malloc(size), handle.malloc(size)
        src.write(bytes((i + core) % 256 for i in range(size)))
        handle.copy_to_fpga(src)
        bufs.append((src, dst))
    setup = time.perf_counter() - t_cell
    start_cycle = handle.cycle
    wall = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for r in range(rounds):
            futures = [
                handle.call(
                    "Memcpy", "memcpy", core,
                    src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size,
                )
                for core, (src, dst) in enumerate(bufs)
            ]
            for fut in futures:
                fut.get(max_cycles=50_000_000)
        wall = min(wall, time.perf_counter() - t0)
    end_to_end = time.perf_counter() - t_cell
    cycles = handle.cycle - start_cycle  # total across both repetitions
    executed = sum(sim.component_ticks(c) for c in sim._components)
    possible = sim.cycle * len(sim._components)
    return {
        "cycles": cycles,
        "wall_seconds": round(wall, 6),
        "setup_seconds": round(setup, 6),
        "end_to_end_seconds": round(end_to_end, 6),
        "cycles_per_second": round(cycles / REPS / wall, 1),
        "executed_ticks": executed,
        "elided_tick_fraction": round(1.0 - executed / possible, 4),
        "n_components": len(sim._components),
    }


def _run_case(name, active_cores, size, rounds):
    modes = {}
    for scheduling in SCHEDULING_MODES:
        modes[scheduling] = _run_cell(active_cores, size, rounds, scheduling)
    cycles = {m["cycles"] for m in modes.values()}
    if len(cycles) != 1:
        raise AssertionError(
            f"{name}: schedules disagree on cycle count: "
            f"{ {s: m['cycles'] for s, m in modes.items()} }"
        )
    walls = {s: m["wall_seconds"] for s, m in modes.items()}
    return {
        "active_cores": active_cores,
        "size_bytes": size,
        "rounds": rounds,
        "modes": modes,
        "speedup": {
            "fast_forward_vs_naive": round(walls["naive"] / walls["fast_forward"], 2),
            "selective_vs_naive": round(walls["naive"] / walls["selective"], 2),
            "selective_vs_fast_forward": round(
                walls["fast_forward"] / walls["selective"], 2
            ),
            "compiled_vs_naive": round(walls["naive"] / walls["compiled"], 2),
            "compiled_vs_selective": round(
                walls["selective"] / walls["compiled"], 2
            ),
        },
    }


def run_benchmark(quick=False):
    sparse_size = 32_768
    dense_size = 8_192 if quick else 32_768
    return {
        "n_cores": N_CORES,
        "quick": quick,
        "cases": {
            "sparse": _run_case("sparse", 1, sparse_size, rounds=3),
            "dense": _run_case("dense", N_CORES, dense_size, rounds=1),
        },
    }


def render(results) -> str:
    lines = [
        f"{'case':<8} {'schedule':<14} {'cycles':>8} {'wall(s)':>9} "
        f"{'setup(s)':>9} {'e2e(s)':>9} {'cyc/s':>10} {'elided':>7}"
    ]
    for case, data in results["cases"].items():
        for sched, m in data["modes"].items():
            lines.append(
                f"{case:<8} {sched:<14} {m['cycles']:>8} "
                f"{m['wall_seconds']:>9.3f} {m['setup_seconds']:>9.3f} "
                f"{m['end_to_end_seconds']:>9.3f} {m['cycles_per_second']:>10.0f} "
                f"{m['elided_tick_fraction']:>6.1%}"
            )
        s = data["speedup"]
        lines.append(
            f"{case:<8} selective speedup: {s['selective_vs_naive']}x vs naive, "
            f"{s['selective_vs_fast_forward']}x vs fast_forward"
        )
        lines.append(
            f"{case:<8} compiled speedup:  {s['compiled_vs_naive']}x vs naive, "
            f"{s['compiled_vs_selective']}x vs selective"
        )
    return "\n".join(lines)


def test_kernel_hotpath_sparse_speedup():
    """Selective scheduling wins >= 3x wall clock over the whole-design
    fast-forward kernel on the sparse 1-of-32 configuration, cycle-exactly
    (cycle equality is enforced inside ``_run_case``)."""
    results = run_benchmark(quick=True)
    print()
    print(render(results))
    sparse = results["cases"]["sparse"]
    assert sparse["speedup"]["selective_vs_fast_forward"] >= 3.0
    # Selective elides the idle 31 cores' fabric almost entirely...
    assert sparse["modes"]["selective"]["elided_tick_fraction"] > 0.8
    # ...while naive by definition elides nothing.
    assert sparse["modes"]["naive"]["elided_tick_fraction"] == 0.0
    # The compiled backend must not be slower than selective on the dense
    # case it exists for (same decisions, specialised dispatch).  The CI
    # regression gate (--min-dense-compiled-speedup) enforces a tighter
    # floor; here we only guard against a wash.
    dense = results["cases"]["dense"]
    assert dense["modes"]["compiled"]["elided_tick_fraction"] > 0.0
    assert dense["speedup"]["compiled_vs_selective"] >= 1.1
    with open("BENCH_kernel.json", "w") as fh:
        json.dump(results, fh, indent=2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller dense case")
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument(
        "--min-sparse-speedup", type=float, default=3.0,
        help="fail unless selective beats fast_forward by this factor "
        "on the sparse case (0 disables)",
    )
    parser.add_argument(
        "--min-dense-compiled-speedup", type=float, default=0.0,
        help="fail unless compiled beats selective by this factor "
        "on the dense case (0 disables); CI uses this as a regression "
        "floor below the measured steady-state ratio",
    )
    args = parser.parse_args()
    results = run_benchmark(quick=args.quick)
    print(render(results))
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {args.out}")
    measured = results["cases"]["sparse"]["speedup"]["selective_vs_fast_forward"]
    if args.min_sparse_speedup and measured < args.min_sparse_speedup:
        raise SystemExit(
            f"sparse selective-vs-fast_forward speedup {measured}x "
            f"< required {args.min_sparse_speedup}x"
        )
    dense_compiled = results["cases"]["dense"]["speedup"]["compiled_vs_selective"]
    if args.min_dense_compiled_speedup and dense_compiled < args.min_dense_compiled_speedup:
        raise SystemExit(
            f"dense compiled-vs-selective speedup {dense_compiled}x "
            f"< required {args.min_dense_compiled_speedup}x"
        )


if __name__ == "__main__":
    main()
