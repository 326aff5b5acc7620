"""Ablation E11: userspace vs kernel-module runtime server.

Section II-C: the current runtime "is implemented as a user module...  It
will be expanded to be implemented as a kernel module in the future."  We
implement that future-work variant (``repro.platforms.kernel_mode``) and
measure how much of the Figure 6 ideal-vs-measured gap it recovers for
low-latency kernels.
"""

import pytest

from repro.farm import Farm, Job
from repro.kernels.machsuite.fig6 import dispatch_cost_cycles
from repro.platforms import AWSF1Platform, kernel_mode

N_CORES = 16
LATENCIES = (500, 2_000, 8_000)


@pytest.fixture(scope="module")
def server_sweep():
    # Six independent runtime-server simulations (3 latencies x 2 server
    # modes), one farm job each.
    user = AWSF1Platform(clock_mhz=125.0)
    kernel = kernel_mode(user)
    grid = [(latency, mode) for latency in LATENCIES for mode in ("user", "kernel")]
    jobs = [
        Job(
            "repro.kernels.machsuite.fig6:simulate_measured",
            (N_CORES, latency, user if mode == "user" else kernel),
            {"rounds": 3},
            label=f"server/{mode}/l{latency}",
        )
        for latency, mode in grid
    ]
    measured = dict(zip(grid, Farm(cache=False).map(jobs)))
    return {
        latency: {
            "user": measured[(latency, "user")],
            "kernel": measured[(latency, "kernel")],
            "ideal": N_CORES * 125e6 / latency,
        }
        for latency in LATENCIES
    }


def test_ablation_server_mode(server_sweep):
    user_platform = AWSF1Platform(clock_mhz=125.0)
    print()
    print(
        f"dispatch cost: user={dispatch_cost_cycles(user_platform)} cycles, "
        f"kernel={dispatch_cost_cycles(kernel_mode(user_platform))} cycles"
    )
    print(f"{'kernel cycles':>14} {'user meas/ideal':>16} {'kernel meas/ideal':>18}")
    for latency, row in server_sweep.items():
        u = row["user"].ops_per_second / row["ideal"]
        k = row["kernel"].ops_per_second / row["ideal"]
        print(f"{latency:>14} {u:>15.1%} {k:>17.1%}")
        # The kernel-module runtime never does worse...
        assert k >= u * 0.98
    # ...and recovers a large share of the gap for the lowest-latency kernel.
    low = server_sweep[LATENCIES[0]]
    user_eff = low["user"].ops_per_second / low["ideal"]
    kernel_eff = low["kernel"].ops_per_second / low["ideal"]
    assert kernel_eff - user_eff > 0.15
