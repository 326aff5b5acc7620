"""Tests for the baseline models: memcpy masters, rooflines, delay cores."""

import pytest

from repro.baselines.copier import HLS, PURE_HDL
from repro.baselines.delay_core import delay_config
from repro.baselines.memcpy_experiment import (
    run_baseline_memcpy,
    run_beethoven_memcpy,
    timeline,
)
from repro.baselines.roofline import (
    AsicA3Baseline,
    CPU_I7_12700K,
    GPU_RTX_3090,
    attention_flops,
    measure_numpy_attention,
)
from repro.core import BeethovenBuild
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle

SIZE = 65536


def test_hdl_memcpy_functional():
    result = run_baseline_memcpy(SIZE, PURE_HDL)
    assert result.verified
    # One outstanding transaction per direction, single AXI ID.
    ids = {r["id"] for r in timeline(result)}
    assert ids == {0}


def test_hls_memcpy_functional_and_single_id():
    result = run_baseline_memcpy(SIZE, HLS)
    assert result.verified
    rows = timeline(result)
    assert {r["id"] for r in rows} == {0}
    assert all(r["beats"] <= 16 for r in rows)


def test_beethoven_memcpy_functional():
    result = run_beethoven_memcpy(SIZE, tlp=True)
    assert result.verified
    read_ids = {r["id"] for r in timeline(result) if r["kind"] == "read"}
    assert len(read_ids) >= 4


def test_no_tlp_uses_one_read_id():
    result = run_beethoven_memcpy(SIZE, tlp=False)
    read_ids = {r["id"] for r in timeline(result) if r["kind"] == "read"}
    assert len(read_ids) == 1


def test_memcpy_shape_holds_at_64k():
    hls = run_baseline_memcpy(SIZE, HLS)
    beethoven = run_beethoven_memcpy(SIZE, tlp=True)
    hdl = run_baseline_memcpy(SIZE, PURE_HDL)
    assert hls.gbps < beethoven.gbps
    assert abs(hdl.gbps - beethoven.gbps) / beethoven.gbps < 0.15


# ------------------------------------------------------------------ roofline
def test_attention_flops_scaling():
    assert attention_flops(64, 320) > attention_flops(64, 160)
    assert attention_flops(64, 320) == pytest.approx(4 * 320 * 64 + 5 * 320)


def test_roofline_anchors_match_paper():
    cpu = CPU_I7_12700K.ops_per_second(64, 320)
    gpu = GPU_RTX_3090.ops_per_second(64, 320)
    assert abs(cpu - 84.8e3) / 84.8e3 < 0.05
    assert abs(gpu - 5.0e6) / 5.0e6 < 0.05
    assert abs(CPU_I7_12700K.energy_per_op_uj(64, 320) - 885) / 885 < 0.05
    assert abs(GPU_RTX_3090.energy_per_op_uj(64, 320) - 63.5) / 63.5 < 0.05


def test_asic_baseline():
    asic = AsicA3Baseline()
    assert asic.ops_per_second(320) == pytest.approx(1e9 / 340)


def test_local_numpy_measurement_runs():
    ops = measure_numpy_attention(16, 32, iterations=20)
    assert ops > 0


# ---------------------------------------------------------------- delay core
def test_delay_core_latency():
    build = BeethovenBuild(delay_config(1, latency_cycles=100), SimulationPlatform())
    handle = FpgaHandle(build.design)
    fut = handle.call("Delay", "run", 0, job=1)
    fut.get()
    assert fut.latency_cycles >= 100
    core = build.design.all_cores()[0].core
    assert core.jobs_done == 1


def test_delay_core_back_to_back():
    build = BeethovenBuild(delay_config(2, latency_cycles=50), SimulationPlatform())
    handle = FpgaHandle(build.design)
    futures = [handle.call("Delay", "run", c, job=j) for j in range(3) for c in range(2)]
    for fut in futures:
        fut.get()
    cores = [ec.core for ec in build.design.all_cores()]
    assert sum(c.jobs_done for c in cores) == 6
