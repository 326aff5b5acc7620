"""Executed ticks per DRAM column on the 32-core memcpy, held as a ceiling.

Host time follows executed ticks (``repro.sim.class_tick_table``), so a wake
regression — a component woken on cycles where it has nothing to do — shows
here in tier-1 before it shows in the stream benchmarks.  The measure is
``tools/bottleneck_report.py``'s ``ticks_per_dram_col``: every component's
executed ticks over the DRAM columns the run moved.  Each ceiling is the
value the design reaches today on a reduced run of the benchmark's shape
(the full-size ``dense_stream`` and ``sparse_stream`` read 7.93 and 6.89);
a change that lowers one should lower its ceiling with it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.sim import class_tick_table

from test_dram_indexed import memcpy32_submitted


def _bottleneck_report():
    path = Path(__file__).resolve().parents[1] / "tools" / "bottleneck_report.py"
    spec = importlib.util.spec_from_file_location("bottleneck_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: shape -> (active cores, bytes per copy, executed ticks today).  Dense is
#: every core copying at once, sparse one core streaming a long copy.
CEILINGS = {"dense": (32, 2048, 20526), "sparse": (1, 32768, 7207)}


@pytest.mark.parametrize("shape", CEILINGS)
def test_ticks_per_dram_column_stay_under_their_ceiling(shape):
    active, size, ticks = CEILINGS[shape]
    build, _handle, futs = memcpy32_submitted(active=active, size=size)
    for fut in futs:
        fut.get()
    table = class_tick_table(build.design.sim)
    cols = 2 * active * size // build.design.controller.timing.col_bytes
    assert table["MemoryController"]["ticks_per_dram_col"] * cols == pytest.approx(
        table["MemoryController"]["ticks_executed"])
    assert _bottleneck_report().ticks_per_dram_col(table) <= ticks / cols
