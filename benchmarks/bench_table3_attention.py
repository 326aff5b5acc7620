"""Table III: attention throughput and energy across platforms.

CPU and GPU rows are the documented roofline baselines; the Beethoven row is
the 23-core A^3 FPGA design simulated end to end (K/V scratchpad loading,
query streaming, runtime dispatch); the ASIC row is the original single-core
A^3 at 1 GHz.  Shape checks mirror the paper: Beethoven beats the GPU by
~3x in throughput and by >20x in energy per op, and a single core at
250 MHz is slower than the 1 GHz ASIC while 23 cores are far faster.
"""

import pytest

from repro.baselines.roofline import AsicA3Baseline, measure_numpy_attention
from repro.kernels.attention.reference import BERT_DIM, BERT_KEYS
from repro.kernels.attention.table3 import render_table3, run_beethoven_a3, table3


@pytest.fixture(scope="module")
def table3_rows():
    return table3(n_cores=23, queries_per_core=128)


def test_table3_attention(table3_rows):
    print()
    print(render_table3(table3_rows))
    local = measure_numpy_attention(BERT_DIM, BERT_KEYS)
    print(f"(sanity: single-thread NumPy attention on this host: {local:,.0f} ops/s)")
    cpu, gpu, beethoven, asic = table3_rows
    assert cpu.ops_per_second < gpu.ops_per_second < beethoven.ops_per_second
    # Paper: 3.3x GPU throughput, 34x better energy/op, ~24 W average power.
    assert 2.0 < beethoven.ops_per_second / gpu.ops_per_second < 4.5
    assert gpu.energy_per_op_uj / beethoven.energy_per_op_uj > 20
    assert 15 < beethoven.power_w < 35
    # The 1 GHz single-core ASIC sits between GPU and the multi-core FPGA.
    assert asic.ops_per_second < beethoven.ops_per_second


def test_table3_functional_verification():
    """A small multi-core run whose outputs are checked bit-for-bit."""
    result = run_beethoven_a3(n_cores=4, queries_per_core=32)
    print(
        f"\n4-core probe: {result.cycles_per_query_per_core:.0f} cycles/query/core, "
        f"verified={result.verified}"
    )
    assert result.verified
    # Steady state approaches one query per n_keys cycles per core.
    assert result.cycles_per_query_per_core < 2.2 * BERT_KEYS


def test_asic_single_core_matches_paper_model():
    asic = AsicA3Baseline()
    # Paper Table III: 2.94M ops/s at 1 GHz for the 320-key configuration.
    assert abs(asic.ops_per_second(BERT_KEYS) - 2.94e6) / 2.94e6 < 0.01
