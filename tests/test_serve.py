"""Serving-layer tests: admission, fairness, routing, batching, determinism.

The vehicle throughout is the heterogeneous two-system delay-core design
from :mod:`repro.serve.scenarios` ("gemm" cores at 1100 cycles, "attn"
cores at 400), which exercises the entire host path exactly while staying
cheap.  Everything asserted here is a pure function of the seed and the
model state, so the cross-backend determinism tests are bit-for-bit.
"""

import json

import pytest

from repro.obs import Observability
from repro.runtime import FpgaHandle
from repro.serve import (
    AcceleratorService,
    AdmissionRejected,
    TenantConfig,
)
from repro.serve.loadgen import (
    ClosedLoop,
    LoadGenerator,
    OpenLoop,
    TenantLoad,
    jain_index,
    percentile,
)
from repro.serve.scenarios import hetero_build, run_scenario
from repro.sim import DEFAULT_SCHEDULING


def _service(tenants, mode=DEFAULT_SCHEDULING, **build_kw):
    build = hetero_build(mode=mode, **build_kw)
    handle = FpgaHandle(build.design)
    return AcceleratorService(handle, tenants), handle, build


# ---------------------------------------------------------------- admission
def test_admission_rejects_queue_full_with_typed_reason():
    svc, handle, _ = _service(
        [TenantConfig(name="t", max_in_flight=1, max_queued=2)]
    )
    # One in flight + two queued fills the envelope (gemm is slow enough
    # that nothing settles while we submit back-to-back at cycle 0).
    for _ in range(3):
        svc.submit("t", "gemm", job=1)
    with pytest.raises(AdmissionRejected) as exc_info:
        svc.submit("t", "gemm", job=1)
    exc = exc_info.value
    assert exc.reason == "queue_full"
    assert exc.tenant == "t"
    state = svc.tenant("t")
    assert int(state.rejected["queue_full"]) == 1
    svc.run_until_drained()
    assert int(state.completed) == 3


def test_admission_rate_limit_is_token_bucket():
    svc, handle, _ = _service(
        [
            TenantConfig(
                name="t", max_in_flight=8, max_queued=64,
                cycles_per_token=1000, burst_tokens=2,
            )
        ]
    )
    # Full bucket: exactly `burst_tokens` admissions land at cycle 0.
    svc.submit("t", "attn", job=1)
    svc.submit("t", "attn", job=1)
    with pytest.raises(AdmissionRejected) as exc_info:
        svc.submit("t", "attn", job=1)
    assert exc_info.value.reason == "rate_limited"
    # A rejection must not burn budget: after 1000 cycles one token has
    # refilled and admission succeeds again.
    handle.design.sim.run(1000)
    svc.submit("t", "attn", job=1)
    svc.run_until_drained()
    assert int(svc.tenant("t").completed) == 3


def test_malformed_request_raises_before_admission_moves_anything():
    """Costing packs the fields, and it runs before admission: a request the
    layout refuses moves no counter and burns no token."""
    svc, handle, build = _service(
        [TenantConfig(name="t", cycles_per_token=10_000, burst_tokens=1)]
    )
    before = build.metrics(stable_only=True)
    for bad in ({"job": 2**40}, {}, {"job": 1, "extra": 2}):
        with pytest.raises(ValueError):
            svc.submit("t", "gemm", **bad)
    assert build.metrics(stable_only=True) == before
    state = svc.tenant("t")
    assert (int(state.submitted), int(state.admitted), state.rejected_total) == (0, 0, 0)
    assert svc.drained()
    # The tenant's one token is still there for its next valid request.
    ticket = svc.submit("t", "gemm", job=1)
    svc.run_until_drained()
    assert ticket.outcome == "ok" and int(state.completed) == 1


def test_admission_memory_budget_and_release():
    svc, handle, _ = _service(
        [TenantConfig(name="t", memory_budget_bytes=4096)]
    )
    session = svc.session("t")
    ptr = session.malloc(3000)
    with pytest.raises(AdmissionRejected) as exc_info:
        session.malloc(2000)
    assert exc_info.value.reason == "memory_budget"
    session.free(ptr)
    session.malloc(4096)  # budget fully released
    assert svc.tenant("t").mem_used == 4096


def test_admission_kernel_gates():
    svc, _, _ = _service(
        [TenantConfig(name="t", kernels=("attn",))]
    )
    with pytest.raises(AdmissionRejected) as exc_info:
        svc.submit("t", "no_such_kernel", job=1)
    assert exc_info.value.reason == "unknown_kernel"
    with pytest.raises(AdmissionRejected) as exc_info:
        svc.submit("t", "gemm", job=1)
    assert exc_info.value.reason == "kernel_not_allowed"
    svc.submit("t", "attn", job=1)
    svc.run_until_drained()


# ----------------------------------------------------------------- fairness
def test_drr_fairness_under_asymmetric_load():
    """A rate-capped flooder cannot starve the well-behaved tenants."""
    report, svc, _ = run_scenario("asymmetric", seed=11, n_requests=10)
    assert report.fairness_jain >= 0.9
    flood = report.tenants["flood"]
    assert flood["rejected"] > 0
    assert flood["rejected_by_reason"].get("rate_limited", 0) > 0 or (
        flood["rejected_by_reason"].get("queue_full", 0) > 0
    )
    # The shielded tenants completed everything they offered.
    assert report.tenants["steady"]["completed"] == 10
    assert report.tenants["bursty"]["completed"] == 10


def test_symmetric_profile_meets_jain_floor():
    report, _, _ = run_scenario("symmetric", seed=3, n_requests=10)
    assert report.fairness_jain >= 0.9
    assert report.totals["failed"] == 0


# ------------------------------------------------------------------ routing
def test_named_kernel_routing_hits_matching_system():
    svc, handle, build = _service([TenantConfig(name="t", max_in_flight=8)])
    tickets = [svc.submit("t", "gemm", job=i) for i in range(4)]
    tickets += [svc.submit("t", "attn", job=i) for i in range(4)]
    svc.run_until_drained()
    systems = {s.system_id: s for s in build.design.systems}
    for t in tickets:
        assert t.outcome == "ok"
        system = systems[t.core[0]]
        expected = "Gemm" if t.kernel == "gemm" else "Attn"
        assert system.config.name == expected
    # The work actually executed on the matching cores.
    for system in build.design.systems:
        done = sum(c.core.jobs_done for c in system.cores)
        assert done == 4
    assert int(svc.router.routed) == 8


def test_reroute_on_quarantine_preserves_tenant_isolation():
    svc, handle, build = _service(
        [
            TenantConfig(name="a", max_in_flight=4),
            TenantConfig(name="b", max_in_flight=4),
        ]
    )
    gemm_slots = svc.router.slots("gemm")
    attn_slots = svc.router.slots("attn")
    # Quarantine one gemm core: traffic fails over to the survivor.
    handle.server.quarantined.add(gemm_slots[0].key)
    a_tickets = [svc.submit("a", "gemm", job=i) for i in range(3)]
    b_tickets = [svc.submit("b", "attn", job=i) for i in range(3)]
    svc.run_until_drained()
    assert all(t.outcome == "ok" for t in a_tickets)
    assert all(t.core == gemm_slots[1].key for t in a_tickets)
    assert int(svc.router.failovers) >= 1
    # Tenant b's attn traffic was untouched by a's quarantine.
    assert all(t.outcome == "ok" for t in b_tickets)
    assert all(t.core in {s.key for s in attn_slots} for t in b_tickets)
    # Quarantine the whole attn pool: b gets typed failures, a still runs.
    for slot in attn_slots:
        handle.server.quarantined.add(slot.key)
    dead = svc.submit("b", "attn", job=9)
    live = svc.submit("a", "gemm", job=9)
    svc.run_until_drained()
    assert dead.outcome == "failed"
    assert dead.error.startswith("CoreQuarantined")
    assert live.outcome == "ok"
    assert int(svc.tenant("b").failed) == 1
    assert int(svc.tenant("a").failed) == 0


# ------------------------------------------------------- FIFO + client stats
def test_fifo_per_client_and_client_counters():
    report, svc, build = run_scenario("smoke", seed=9, n_requests=6)
    server = svc.handle.server
    assert int(server.fifo_violations) == 0
    for state in svc.tenants():
        client = state.client
        assert int(client.submitted) == report.tenants[state.name]["admitted"]
        assert int(client.completed) == int(client.submitted)
        assert client.in_flight == 0
    metrics = build.design.registry.dump()
    client_keys = [k for k in metrics if k.startswith("serve/client/")]
    assert any(k.endswith("/submitted") for k in client_keys)
    assert any(k.endswith("/in_flight") for k in client_keys)


# ----------------------------------------------------------------- batching
def test_batching_skips_lock_cycles_on_bursts():
    results = {}
    for mode in ("naive", "compiled"):
        cfg = TenantConfig(name="burst", max_in_flight=8, max_queued=64)
        svc, handle, _ = _service([cfg], mode=mode, n_gemm=1, n_attn=1)
        gen = LoadGenerator(
            svc,
            [TenantLoad(cfg, [("attn", {"job": 1}, 1)],
                        OpenLoop(mean_gap_cycles=5, n_requests=24))],
            seed=7,
        )
        report = gen.run()
        server = handle.server
        results[mode] = (
            int(server.batch_lock_skips),
            int(server.batch_cycles_saved),
            int(svc.scheduler.coalesced),
            report.end_cycle,
        )
        assert report.totals["completed"] == 24
        skips, saved, coalesced, _ = results[mode]
        assert skips > 0
        assert coalesced >= skips  # only back-to-back continuations skip
        assert saved == skips * handle.server.host.command_lock_cycles
    assert results["naive"] == results["compiled"]


# -------------------------------------------------------------- determinism
def test_seeded_loadgen_identical_across_backends():
    baseline = None
    for mode in ("naive", "compiled"):
        report, _, _ = run_scenario("smoke", seed=123, mode=mode, n_requests=5)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        if baseline is None:
            baseline = blob
        else:
            assert blob == baseline


# -------------------------------------------------------------- attribution
def test_tenant_attribution_rollup():
    report, svc, build = run_scenario(
        "smoke", seed=5, n_requests=3,
        observability=Observability(enabled=True, profile=False),
    )
    att = build.attribution_report(by_tenant=True)
    tenants = att["tenants"]
    assert sorted(tenants) == ["tenant0", "tenant1", "tenant2"]
    assert sum(t["commands"] for t in tenants.values()) == att["commands"]
    for t in tenants.values():
        # The per-tenant decomposition stays exact: segments sum to latency.
        assert sum(s["cycles"] for s in t["segments"].values()) == (
            t["total_latency_cycles"]
        )
        assert t["bottleneck"] is not None


# ------------------------------------------------------------------- maths
def test_percentile_and_jain_helpers():
    assert percentile([], 0.99) == 0
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([1, 2, 3, 4], 0.99) == 4
    assert jain_index([]) == 1.0
    assert jain_index([5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0]) == pytest.approx(1 / 3)


def test_serving_metric_directions():
    from repro.obs.regress import metric_direction

    assert metric_direction("tenants.flood.rejection_rate") == -1
    assert metric_direction("tenants.flood.p99") == -1
    assert metric_direction("tenants.flood.p999") == -1
    assert metric_direction("tenants.flood.goodput") == 1
    assert metric_direction("fairness_jain") == 1
    # The pre-serving classifications must be unchanged.
    assert metric_direction("modes.naive.cycles_per_second") == 1
    assert metric_direction("modes.naive.cycles") == -1
