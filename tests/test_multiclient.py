"""Multiple host processes sharing one accelerator (paper Section II-C).

The runtime server arbitrates fair access to the command/response bus and
keeps allocator state host-side so separate processes' allocations never
conflict.
"""

import numpy as np

from repro.core import BeethovenBuild
from repro.baselines.delay_core import delay_config
from repro.kernels.vecadd import vector_add_config
from repro.obs import extract_command_paths
from repro.platforms import SimulationPlatform
from repro.runtime import FpgaHandle


def test_clients_get_disjoint_allocations():
    build = BeethovenBuild(vector_add_config(1), SimulationPlatform())
    handle = FpgaHandle(build.design)
    a = handle.new_client("proc-a")
    b = handle.new_client("proc-b")
    ptrs = [a.malloc(4096) for _ in range(4)] + [b.malloc(4096) for _ in range(4)]
    ranges = sorted((p.fpga_addr, p.fpga_addr + p.size) for p in ptrs)
    for (s0, e0), (s1, e1) in zip(ranges, ranges[1:]):
        assert e0 <= s1  # no overlap across clients


def test_both_clients_complete_work():
    build = BeethovenBuild(vector_add_config(2), SimulationPlatform())
    handle = FpgaHandle(build.design)
    clients = [handle.new_client(f"p{i}") for i in range(2)]
    futures, mems = [], []
    for i, client in enumerate(clients):
        mem = client.malloc(256)
        mem.write(np.zeros(64, dtype=np.uint32).tobytes())
        client.copy_to_fpga(mem)
        futures.append(
            client.call("MyAcceleratorSystem", "my_accel", i, addend=i + 1,
                        vec_addr=mem.fpga_addr, n_eles=64)
        )
        mems.append(mem)
    for fut in futures:
        fut.get()
    for i, (client, mem) in enumerate(zip(clients, mems)):
        client.copy_from_fpga(mem)
        assert (np.frombuffer(mem.read(), dtype=np.uint32) == i + 1).all()


def test_round_robin_lock_wait_fairness():
    """Three clients bursting identical work see equal treatment.

    Regression for the round-robin arbiter: with every client keeping a
    backlog queued, a fair rotation delays each client at most one command's
    service time (lock + 6 MMIO words) per intervening client, so the spread
    of worst-case lock waits is bounded by (n_clients - 1) service times.
    A skipped rotation would add a full n_clients * service jump for the
    wronged client and trip the bound.
    """
    n_clients, burst = 3, 6
    build = BeethovenBuild(delay_config(n_clients, latency_cycles=40), SimulationPlatform())
    handle = FpgaHandle(build.design)
    clients = [handle.new_client(f"p{i}") for i in range(n_clients)]
    futures = []
    for j in range(burst):
        for i, client in enumerate(clients):
            futures.append(client.call("Delay", "run", i, job=j))
    for fut in futures:
        fut.get(max_cycles=1_000_000)
    host = build.design.platform.host
    service = host.command_lock_cycles + 6 * host.mmio_word_cycles
    # Each command's lock wait (enqueue -> dispatch) is the ``queue_wait``
    # segment of its root span; group them by the span's client tag.
    tracer = build.design.tracer
    client_of = {s.span_id: s.args["client"] for s in tracer.span_log if s.parent is None}
    waits = {}
    for path in extract_command_paths(tracer, [build.design.monitor]):
        waits.setdefault(client_of[path.span_id], []).append(path.segments["queue_wait"])
    assert sorted(waits) == [c.client_id for c in clients]
    assert all(len(w) == burst for w in waits.values())
    worst = {client: max(w) for client, w in waits.items()}
    spread = max(worst.values()) - min(worst.values())
    assert spread <= (n_clients - 1) * service, (
        f"unfair arbitration: worst lock waits {worst} spread {spread} "
        f"> {n_clients - 1} service times ({service} each)"
    )
    # Every client's backlog drains at the same cadence: the wait growth per
    # command is identical across clients under a fair rotation.
    cadences = {
        client: {b - a for a, b in zip(w, w[1:])} for client, w in waits.items()
    }
    assert len(set(frozenset(c) for c in cadences.values())) == 1, cadences


def test_round_robin_prevents_starvation():
    """A client bursting many commands must not starve the other one."""
    build = BeethovenBuild(delay_config(2, latency_cycles=20), SimulationPlatform())
    handle = FpgaHandle(build.design)
    greedy = handle.new_client("greedy")
    polite = handle.new_client("polite")
    greedy_futs = [greedy.call("Delay", "run", 0, job=j) for j in range(10)]
    polite_fut = polite.call("Delay", "run", 1, job=0)
    # The polite client's single command completes long before the greedy
    # client's backlog does (round-robin slots it in second, not eleventh).
    polite_fut.get()
    pending = sum(1 for f in greedy_futs if not f.done)
    assert pending >= 5
    for f in greedy_futs:
        f.get()
    assert handle.server.idle()
