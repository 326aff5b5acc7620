"""The six benchmark workloads.

Each takes a :class:`rep.Rep` (seeded RNG, span log, failure accounting,
scratch directory) and drives the program through its public API only — the
same calls a user's script makes — with the default scheduler: nothing here
passes ``scheduling=``.  All inputs come from ``rep.rng``; every output is
checked against a reference computed here.

``SIZES`` holds the full-size parameters; ``rep.scaled`` shrinks the
marked ones for the smoke test.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from repro.core.build import BeethovenBuild, BuildMode
from repro.dse import frontier, sweep_cores
from repro.farm import Farm
from repro.kernels.machsuite.fig6 import fig6_all
from repro.kernels.memcpy import memcpy_config
from repro.kernels.vecadd import vector_add_config
from repro.kernels.attention import a3_config
from repro.platforms import AWSF1Platform, SimulationPlatform
from repro.runtime import FpgaHandle
from repro.serve import AcceleratorService, LoadGenerator
from repro.serve.scenarios import hetero_build, profile_loads
from repro.sim import wake_summary
from repro import snapshot

N_CORES = 32
#: Bound on checkpoint_chunks' driver loop, so a wedged design terminates.
MAX_CHUNKS = 2000

SIZES = {
    "dense_stream": {"active": 32, "size": 2048, "rounds": 8},
    "sparse_stream": {"active": 1, "size": 32768, "rounds": 24},
    "host_dma": {"cores": 4, "size": 98304, "rounds": 2, "n_eles": 256},
    "serve_mix": {"symmetric": 1100, "asymmetric": 550, "arrival_seed": 42},
    "compose_sweep": {"clocks": (250.0,), "max_cores": 48, "hetero": (8, 8, 8)},
    "checkpoint_chunks": {"size": 4096, "chunk_cycles": 125, "restore_every": 8},
}


# ------------------------------------------------------------ model counters
def _count(rep, build, handle) -> None:
    """Add one finished design's exact model counters to ``rep.counters``."""
    with rep.span("obs.metrics_dump"):
        metrics = build.metrics()
    sim = build.design.sim
    wake = wake_summary(sim)
    add = rep.add_counter
    add("sim.executed_ticks", sum(w["ticks_executed"] for w in wake.values()))
    add("sim.possible_ticks", sim.cycle * len(wake))
    add("sim.cycles_stepped", metrics["sim/cycles_stepped"])
    add("sim.cycles_skipped", metrics["sim/cycles_skipped"])
    add("sim.skip_events", metrics["sim/skip_events"])
    add("sim.cycles", sim.cycle)
    add("sim.n_components", len(wake))
    add("sim.n_channels", sum(
        1 for k in metrics if k.startswith("chan/") and k.endswith("/capacity")))
    for name in ("read_cols", "write_cols", "queue_wait_cycles", "row_conflicts",
                 "row_hits", "row_misses", "bus_cycles"):
        add(f"dram.{name}", metrics.get(f"dram/mc/{name}", 0))
    add("noc.stall_cycles", sum(
        v for k, v in metrics.items()
        if k.startswith("noc/") and k.rsplit("/", 1)[1].startswith("stall_")))
    add("runtime.dma_cycles", handle.dma_cycles_spent)
    for name in ("commands_sent", "lock_wait_cycles", "busy_cycles"):
        add(f"runtime.{name}", metrics[f"runtime/server/{name}"])
    add("serve.batch_lock_skips", metrics["runtime/server/batch_lock_skips"])
    add("command.commands_routed", metrics["cmd/cmdrouter/commands_routed"])
    with rep.span("obs.metrics_dump"):
        rep.digest_update(build.metrics(stable_only=True))


def _build(rep, make):
    """Elaborate (``make()`` returns the BeethovenBuild) and open a handle."""
    with rep.span("core.build"):
        build = make()
    rep.add_counter("core.n_builds", 1)
    with rep.span("runtime.handle_init"):
        handle = FpgaHandle(build.design)
    return build, handle


def _memcpy32():
    return BeethovenBuild(memcpy_config(n_cores=N_CORES), SimulationPlatform())


def _run_commands(rep, handle, calls):
    """Submit ``calls`` (``(system, io, core, fields)``), then wait for all."""
    futures = [
        rep.op("runtime.call", handle.call, system, io, core, **fields)
        for system, io, core, fields in calls
    ]
    for fut in futures:
        if fut is not rep.FAILED and rep.op("runtime.get", fut.get) is not rep.FAILED:
            rep.latencies.append(fut.latency_cycles)


# ------------------------------------------------------------------ streaming
def _stream(rep, active, size, rounds):
    rounds = rep.scaled(rounds)
    blobs = [rep.rng.bytes(size) for _ in range(active)]
    build, handle = _build(rep, _memcpy32)
    rep.setup_done()
    bufs = []
    for blob in blobs:
        src, dst = handle.malloc(size), handle.malloc(size)
        src.write(blob)
        rep.op("runtime.dma_in", handle.copy_to_fpga, src)
        bufs.append((src, dst))
    for _ in range(rounds):
        _run_commands(rep, handle, [
            ("Memcpy", "memcpy", core,
             {"src": src.fpga_addr, "dst": dst.fpga_addr, "len_bytes": size})
            for core, (src, dst) in enumerate(bufs)
        ])
    for blob, (_src, dst) in zip(blobs, bufs):
        rep.op("runtime.dma_out", handle.copy_from_fpga, dst)
        with rep.span("bench.verify"):
            rep.check(dst.read() == blob, "memcpy read-back differs from source")
    rep.sim_cycles = handle.cycle
    _count(rep, build, handle)


def dense_stream(rep):
    _stream(rep, **SIZES["dense_stream"])


def sparse_stream(rep):
    _stream(rep, **SIZES["sparse_stream"])


# ------------------------------------------------------------------- host DMA
def host_dma(rep):
    p = SIZES["host_dma"]
    n_words = rep.scaled(p["size"] // 4)
    rounds, n_eles = p["rounds"], min(p["n_eles"], n_words)
    vectors = [
        rep.rng.integers(0, 2**32, n_words, dtype=np.uint32) for _ in range(p["cores"])
    ]
    addends = rep.rng.integers(1, 2**31, (rounds, p["cores"])).tolist()
    build, handle = _build(rep, lambda: BeethovenBuild(
        vector_add_config(n_cores=p["cores"], name="VecAdd"), AWSF1Platform()))
    rep.setup_done()
    ptrs = [handle.malloc(vec.nbytes) for vec in vectors]
    for r in range(rounds):
        for ptr, vec in zip(ptrs, vectors):
            ptr.write(vec.tobytes())
            rep.op("runtime.dma_in", handle.copy_to_fpga, ptr)
        _run_commands(rep, handle, [
            ("VecAdd", "my_accel", core,
             {"addend": addends[r][core], "vec_addr": ptr.fpga_addr, "n_eles": n_eles})
            for core, ptr in enumerate(ptrs)
        ])
        for core, (ptr, vec) in enumerate(zip(ptrs, vectors)):
            rep.op("runtime.dma_out", handle.copy_from_fpga, ptr)
            with rep.span("bench.verify"):
                # uint32 arithmetic wraps, exactly like the core's adder.
                vec[:n_eles] += np.uint32(addends[r][core])
                rep.check(ptr.read() == vec.tobytes(), "vecadd read-back differs")
    rep.sim_cycles = handle.cycle
    _count(rep, build, handle)


# -------------------------------------------------------------------- serving
def serve_mix(rep):
    p = SIZES["serve_mix"]
    completed = rejected = elapsed = 0
    for profile in ("symmetric", "asymmetric"):
        n_requests = rep.scaled(p[profile])
        build, handle = _build(rep, hetero_build)
        rep.setup_done()
        loads = profile_loads(profile, n_requests)
        with rep.span("serve.run"):
            service = AcceleratorService(handle, [load.tenant for load in loads])
            # Not rep.seed: the arrival schedule decides sim_cycles and the
            # latency percentiles, which are gated exactly, so it is part of
            # the workload's definition rather than a per-run input.
            gen = LoadGenerator(service, loads, seed=p["arrival_seed"])
            report = rep.op(None, gen.run, max_cycles=100_000_000)
        if report is rep.FAILED:
            continue
        with rep.span("bench.verify"):
            tot = report.totals
            # Typed rejections are expected outcomes; a failed ticket or a
            # request that vanished is not.
            rep.count_ops(tot["admitted"], tot["failed"])
            rep.check(tot["submitted"] == tot["admitted"] + tot["rejected"],
                      f"{profile}: submitted != admitted + rejected")
            rep.check(tot["completed"] + tot["failed"] == tot["admitted"],
                      f"{profile}: admitted requests unaccounted for")
            if profile == "asymmetric":
                rep.check(tot["rejected"] > 0, "flooder drew no rejections")
        if profile == "symmetric":
            rep.cmd_p50, rep.cmd_p99 = tot["p50"], tot["p99"]
            rep.set_counter("serve.jain", report.fairness_jain)
        completed += tot["completed"]
        rejected += tot["rejected"]
        elapsed += report.elapsed_cycles
        rep.sim_cycles += handle.cycle
        rep.digest_update(report.to_dict())
        _count(rep, build, handle)
    rep.set_counter("serve.completed", completed)
    rep.set_counter("serve.rejected", rejected)
    rep.set_counter("serve.goodput_per_mcycle", completed * 1e6 / max(1, elapsed))


# ------------------------------------------------------------------ composing
def _strip_provenance(points):
    """Design points without the fields that say how they were obtained (the
    job fingerprint carries a code-version salt, so it moves with any edit)."""
    return [
        dataclasses.replace(
            pt, build_seconds=0.0, cache_hit=False, worker="", fingerprint="")
        for pt in points
    ]


def compose_sweep(rep):
    p = SIZES["compose_sweep"]
    max_cores = rep.scaled(p["max_cores"])
    counts = rep.rng.permutation(np.arange(1, max_cores + 1)).tolist()
    vec = rep.rng.integers(0, 2**31, 128, dtype=np.uint32)
    blob = rep.rng.bytes(16384)
    rep.setup_done()
    farm = Farm(n_workers=1, cache=True, cache_dir=os.path.join(rep.workdir, "farm"))

    def sweep():
        rows = [
            fig6_all(AWSF1Platform(clock_mhz=clock), max_cores=max_cores, farm=farm)
            for clock in p["clocks"]
        ]
        return rows, sweep_cores(memcpy_config, counts, AWSF1Platform(), farm=farm)

    with rep.span("farm.cold"):
        cold = rep.op(None, sweep)
    with rep.span("farm.warm"):
        warm = rep.op(None, sweep)
    with rep.span("dse.frontier"):
        bisected = rep.op(
            None, sweep_cores, memcpy_config, sorted(counts), AWSF1Platform(), strategy="bisect")
    stats = farm.stats()
    rep.count_ops(stats["jobs_submitted"], stats["jobs_failed"])
    with rep.span("bench.verify"):
        if rep.FAILED not in (cold, warm, bisected):
            n_jobs = sum(len(rows) for rows in cold[0]) + len(cold[1])
            rep.check(stats["jobs_submitted"] == 2 * n_jobs, "farm ran an unexpected job count")
            rep.check(stats["cache_hits"] == n_jobs, "warm pass was not served from cache")
            rep.check(cold[0] == warm[0], "fig6 rows differ cold vs warm")
            rep.check(_strip_provenance(cold[1]) == _strip_provenance(warm[1]),
                      "sweep points differ cold vs warm")
            rep.check(frontier(cold[1]) == frontier(bisected), "bisect frontier != scan frontier")
            rep.digest_update([dataclasses.asdict(r) for rows in cold[0] for r in rows])
            rep.digest_update([dataclasses.asdict(pt) for pt in _strip_provenance(cold[1])])
    rep.set_counter("farm.jobs", stats["jobs_submitted"])
    rep.set_counter("farm.cache_hit_frac", stats["cache_hit_rate"])

    n_vec, n_copy, n_attn = (rep.scaled(n) for n in p["hetero"])
    configs = [
        vector_add_config(n_cores=n_vec, name="VecAdd"),
        memcpy_config(n_cores=n_copy, name="Copy"),
        a3_config(n_cores=n_attn, dim=32, n_keys=64, name="Attn"),
    ]
    build, handle = _build(
        rep, lambda: BeethovenBuild(configs, AWSF1Platform(), BuildMode.Synthesis))
    with rep.span("core.emit"):
        artefacts = [
            rep.op(None, emit) for emit in (
                build.emit_verilog, build.emit_cpp_header,
                build.emit_constraints, build.summary)
        ]
    with rep.span("bench.verify"):
        for text, needle in zip(artefacts, ("module", "namespace", "", "routable")):
            rep.check(text is not rep.FAILED and text and needle in text,
                      f"emitted artefact lacks {needle!r}")
        rep.digest_update([t for t in artefacts if t is not rep.FAILED])
    # The composed SoC must also run: one command on two of its systems.
    p_vec, p_src, p_dst = handle.malloc(vec.nbytes), handle.malloc(len(blob)), handle.malloc(len(blob))
    p_vec.write(vec.tobytes())
    p_src.write(blob)
    for ptr in (p_vec, p_src):
        rep.op("runtime.dma_in", handle.copy_to_fpga, ptr)
    _run_commands(rep, handle, [
        ("VecAdd", "my_accel", 0, {"addend": 42, "vec_addr": p_vec.fpga_addr, "n_eles": 128}),
        ("Copy", "memcpy", 0,
         {"src": p_src.fpga_addr, "dst": p_dst.fpga_addr, "len_bytes": len(blob)}),
    ])
    for ptr in (p_vec, p_dst):
        rep.op("runtime.dma_out", handle.copy_from_fpga, ptr)
    with rep.span("bench.verify"):
        rep.check(p_vec.read() == (vec + np.uint32(42)).tobytes(), "hetero vecadd differs")
        rep.check(p_dst.read() == blob, "hetero memcpy differs")
    rep.sim_cycles = handle.cycle
    _count(rep, build, handle)


# -------------------------------------------------------------- checkpointing
def checkpoint_chunks(rep):
    p = SIZES["checkpoint_chunks"]
    size = p["size"]
    # Smoke scale widens the chunks, so fewer checkpoints are taken.
    chunk_cycles = int(p["chunk_cycles"] / rep.scale)
    restore_every = rep.scaled(p["restore_every"])
    pattern = rep.rng.bytes(size)
    path = os.path.join(rep.workdir, "checkpoint.snap")

    def replay(handle):
        """The host-side setup a restore must replay on a rebuilt design."""
        src = handle.malloc(size)
        dsts = [handle.malloc(size) for _ in range(N_CORES)]
        src.write(pattern)
        rep.op("runtime.dma_in", handle.copy_to_fpga, src)
        futures = [
            rep.op("runtime.call", handle.call, "Memcpy", "memcpy", core,
                   src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size)
            for core, dst in enumerate(dsts)
        ]
        return dsts, [f for f in futures if f is not rep.FAILED]

    build, handle = _build(rep, _memcpy32)
    rep.setup_done()
    dsts, futures = replay(handle)
    checkpoints = restores = 0
    for _ in range(MAX_CHUNKS):
        if all(f.done for f in futures):
            break
        if rep.op("sim.run", build.design.sim.run, chunk_cycles) is rep.FAILED:
            break
        snap = rep.op("snapshot.capture", snapshot.capture, handle)
        if snap is rep.FAILED or rep.op("snapshot.save", snapshot.save, snap, path) is rep.FAILED:
            continue
        checkpoints += 1
        if checkpoints % restore_every == 0 and restores < 3:
            # Kill-and-resume: drop the live design, rebuild, replay, restore.
            build, handle = _build(rep, _memcpy32)
            dsts, futures = replay(handle)
            loaded = rep.op("snapshot.load", snapshot.load, path)
            if loaded is not rep.FAILED:
                rep.op("snapshot.restore", snapshot.restore, handle, loaded)
            restores += 1
    with rep.span("bench.verify"):
        rep.check(len(futures) == N_CORES and all(f.done for f in futures),
                  "memcpy commands unfinished")
        rep.check(restores == 3, f"only {restores} of 3 restores happened")
    rep.latencies.extend(
        f.latency_cycles for f in futures if f.latency_cycles is not None)
    for dst in dsts:
        rep.op("runtime.dma_out", handle.copy_from_fpga, dst)
        with rep.span("bench.verify"):
            rep.check(dst.read() == pattern, "restored run copied wrong bytes")
    rep.sim_cycles = handle.cycle
    rep.set_counter("snapshot.bytes", os.path.getsize(path) if checkpoints else 0)
    _count(rep, build, handle)


WORKLOADS = {
    fn.__name__: fn
    for fn in (dense_stream, sparse_stream, host_dma, serve_mix, compose_sweep,
               checkpoint_chunks)
}
