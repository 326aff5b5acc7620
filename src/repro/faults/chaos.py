"""Chaos harness: seeded fault sweeps asserting the robustness contract.

Each chaos run elaborates a small design with a seeded :class:`FaultPlan`
and a command watchdog, drives a real workload through the full stack, and
classifies the outcome:

* ``ok``        — completed, outputs verified, no recovery machinery used;
* ``degraded``  — completed with verified outputs, but only thanks to
  retries / rerouting / quarantine (graceful degradation worked);
* ``error``     — a *typed* error surfaced (``CommandTimeout``,
  ``CoreQuarantined``, ``FaultedResponse``, or a bounded ``DeadlockError``);
* ``corrupt``   — outputs wrong with no error raised (CONTRACT VIOLATION);
* ``unexpected``— an untyped exception escaped (CONTRACT VIOLATION).

The contract the sweep asserts: every seeded schedule terminates bounded in
one of the first three outcomes, under both scheduling modes (the naive
oracle and the compiled production loop), and a given seed produces the
same fault schedule and final cycle count in both.  ``run_empty_plan_differential`` additionally proves the empty plan
is a strict no-op (stable metrics and final cycles bit-identical to a build
with no plan at all).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.errors import FaultError
from repro.faults.plan import FaultPlan
from repro.runtime.server import WatchdogConfig
from repro.sim import SCHEDULING_MODES, DeadlockError

MODES: Tuple[str, ...] = SCHEDULING_MODES
SCENARIOS: Tuple[str, ...] = ("memcpy", "fig6", "serving", "checkpoint")

#: Sharded-simulation modes (see :mod:`repro.dist`).  These are a separate
#: family from ``MODES``: command timing legitimately differs from the
#: single-process build (proxied cores add SLR-crossing hops), so the
#: identity contract for dist runs is *engine-internal* — ``dist:serial``
#: and ``dist:fork`` of the same seed must agree bit-for-bit — rather than
#: cross-mode with the scheduling backends.  Only scenarios whose designs
#: have SLR-crossing memory pipes support them (memcpy; the DelayCore-based
#: fig6/serving scenarios have no memory network and therefore no cut
#: points).
DIST_MODES: Tuple[str, ...] = ("dist", "dist:serial", "dist:fork")


def _mode_build_args(mode: str) -> Dict[str, object]:
    """Map a chaos mode name to ``BeethovenBuild`` keyword arguments."""
    if mode in DIST_MODES:
        from repro.dist import DistConfig

        _, _, engine = mode.partition(":")
        return {"distributed": DistConfig(n_workers=2, engine=engine or "auto")}
    return {"scheduling": mode}

#: Outcomes the robustness contract allows.
GOOD_OUTCOMES = ("ok", "degraded", "error")

#: Watchdog policy the chaos scenarios run under: tight deadlines so hangs
#: convert quickly, two strikes to quarantine so degradation is reachable,
#: and enough retries that a quarantine still leaves one reroute attempt.
CHAOS_WATCHDOG = WatchdogConfig(
    timeout_cycles=4000,
    max_retries=3,
    backoff_base_cycles=256,
    backoff_cap_cycles=2048,
    quarantine_strikes=2,
)


@dataclass
class ChaosOutcome:
    """Classified result of one seeded chaos run."""

    scenario: str
    mode: str
    seed: int
    outcome: str
    error: str = ""
    cycles: int = 0
    n_faults: int = 0
    fingerprint: str = ""
    timeouts: int = 0
    retries: int = 0
    quarantines: int = 0
    rerouted: int = 0
    late_responses: int = 0

    @property
    def violates_contract(self) -> bool:
        return self.outcome not in GOOD_OUTCOMES


def default_plan(seed: int, intensity: float = 1.0) -> FaultPlan:
    """The sweep's plan generator: a pure function of ``seed``.

    Each seed activates up to three fault classes with rates tuned so small
    workloads actually encounter them; some seeds draw zero classes, keeping
    fault-free runs in the sweep population as a control group.
    """
    rng = random.Random(0x5EED ^ (seed * 2654435761 & 0xFFFFFFFF))
    active = rng.sample(
        ("dram", "r_corrupt", "r_drop", "b_drop", "mmio", "hang"), rng.randint(0, 3)
    )
    return FaultPlan(
        seed=seed,
        dram_read_flip_rate=0.02 * intensity if "dram" in active else 0.0,
        axi_r_corrupt_rate=0.03 * intensity if "r_corrupt" in active else 0.0,
        axi_r_drop_rate=0.03 * intensity if "r_drop" in active else 0.0,
        axi_b_drop_rate=0.10 * intensity if "b_drop" in active else 0.0,
        mmio_resp_drop_rate=0.30 * intensity if "mmio" in active else 0.0,
        core_hang_rate=0.40 * intensity if "hang" in active else 0.0,
        core_hang_cycles=rng.choice((0, 2000)),
        core_hang_window=6000,
        max_faults_per_site=2,
    )


def _classify(handle, errors: List[str], corrupt: bool, unexpected: str = "") -> Tuple[str, str]:
    if unexpected:
        return "unexpected", unexpected
    if corrupt:
        return "corrupt", "output mismatch with no error raised"
    if errors:
        return "error", "; ".join(errors)
    server = handle.server
    recovered = (
        int(server.retries)
        or int(server.rerouted)
        or int(server.quarantines)
        or int(server.timeouts)
    )
    return ("degraded" if recovered else "ok"), ""


def _outcome(scenario, mode, seed, handle, outcome, error) -> ChaosOutcome:
    server = handle.server
    faults = handle.faults
    # Sharded runs absorb partition fault events at slice barriers, so the
    # *arrival order* of events differs from a single-process run even when
    # the event multiset is identical; the canonical (sorted) fingerprint is
    # the order-independent identity dist engines are compared under.
    if faults is None:
        fingerprint = ""
    elif mode in DIST_MODES:
        fingerprint = faults.canonical_fingerprint()
    else:
        fingerprint = faults.fingerprint()
    return ChaosOutcome(
        scenario=scenario,
        mode=mode,
        seed=seed,
        outcome=outcome,
        error=error,
        cycles=handle.design.sim.cycle,
        n_faults=len(faults.events) if faults is not None else 0,
        fingerprint=fingerprint,
        timeouts=int(server.timeouts),
        retries=int(server.retries),
        quarantines=int(server.quarantines),
        rerouted=int(server.rerouted),
        late_responses=int(server.late_responses),
    )


def run_memcpy_chaos(
    seed: int,
    mode: str,
    plan: Optional[FaultPlan] = None,
    watchdog: Optional[WatchdogConfig] = None,
) -> ChaosOutcome:
    """Memcpy through the full stack (host -> MMIO -> cores -> DRAM) under
    a seeded fault schedule; one command per core so quarantine-and-reroute
    can finish the work on the surviving core.

    Under a ``dist`` mode the same workload runs on a synthetic multi-die
    device (so SLR-crossing pipes exist for the partitioner to cut),
    sharded over two workers."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform, multi_die_platform
    from repro.runtime import FpgaHandle

    plan = plan if plan is not None else default_plan(seed)
    size, n_cores = 1024, 2
    platform = multi_die_platform(2) if mode in DIST_MODES else AWSF1Platform()
    build = BeethovenBuild(
        memcpy_config(n_cores=n_cores),
        platform,
        faults=plan,
        watchdog=watchdog or CHAOS_WATCHDOG,
        **_mode_build_args(mode),
    )
    handle = FpgaHandle(build.design)
    pattern = bytes((i * 131 + 17 + seed) % 256 for i in range(size))
    src = handle.malloc(size)
    dsts = [handle.malloc(size) for _ in range(n_cores)]
    src.write(pattern)
    handle.copy_to_fpga(src)
    errors: List[str] = []
    corrupt = False
    unexpected = ""
    try:
        futs = [
            handle.call(
                "Memcpy", "memcpy", c,
                src=src.fpga_addr, dst=dsts[c].fpga_addr, len_bytes=size,
            )
            for c in range(n_cores)
        ]
        for c, fut in enumerate(futs):
            try:
                fut.get(max_cycles=400_000)
            except (FaultError, DeadlockError) as exc:
                errors.append(f"core{c}: {type(exc).__name__}")
                continue
            handle.copy_from_fpga(dsts[c])
            if dsts[c].read() != pattern:
                corrupt = True
    except (FaultError, DeadlockError) as exc:
        errors.append(type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 — untyped escape = violation
        unexpected = f"{type(exc).__name__}: {exc}"
    outcome, error = _classify(handle, errors, corrupt, unexpected)
    result = _outcome("memcpy", mode, seed, handle, outcome, error)
    getattr(build.design.sim, "shutdown", lambda: None)()
    return result


def run_fig6_chaos(
    seed: int,
    mode: str,
    plan: Optional[FaultPlan] = None,
    watchdog: Optional[WatchdogConfig] = None,
) -> ChaosOutcome:
    """The Figure-6 measured model (DelayCore rounds through the runtime
    server) under fault injection — exercises the command path, the
    watchdog, and hang quarantine with no memory traffic at all."""
    from repro.baselines.delay_core import delay_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    if mode in DIST_MODES:
        raise ValueError(
            "fig6 chaos cannot run sharded: DelayCore declares no memory "
            "channels, so the design has no SLR bridges to partition at"
        )
    plan = plan if plan is not None else default_plan(seed)
    n_cores, rounds = 3, 2
    build = BeethovenBuild(
        delay_config(n_cores, 600),
        AWSF1Platform(),
        scheduling=mode,
        faults=plan,
        watchdog=watchdog or CHAOS_WATCHDOG,
    )
    handle = FpgaHandle(build.design)
    errors: List[str] = []
    unexpected = ""
    try:
        for r in range(rounds):
            futs = []
            for c in range(n_cores):
                try:
                    futs.append((c, handle.call("Delay", "run", c, job=r * n_cores + c)))
                except FaultError as exc:  # every core already quarantined
                    errors.append(f"r{r}c{c}: {type(exc).__name__}")
            for c, fut in futs:
                try:
                    fut.get(max_cycles=400_000)
                except (FaultError, DeadlockError) as exc:
                    errors.append(f"r{r}c{c}: {type(exc).__name__}")
    except Exception as exc:  # noqa: BLE001 — untyped escape = violation
        unexpected = f"{type(exc).__name__}: {exc}"
    outcome, error = _classify(handle, errors, False, unexpected)
    return _outcome("fig6", mode, seed, handle, outcome, error)


#: Exception type names the serving layer records as *typed* ticket errors;
#: anything else settling a ticket is an untyped escape (contract violation).
_SERVING_TYPED = (
    "CommandTimeout",
    "FaultedResponse",
    "CoreQuarantined",
    "DeadlockError",
    "AdmissionRejected",
)


def run_serving_chaos(
    seed: int,
    mode: str,
    plan: Optional[FaultPlan] = None,
    watchdog: Optional[WatchdogConfig] = None,
) -> ChaosOutcome:
    """The multi-tenant serving layer under fault injection.

    Two tenants submit a fixed heterogeneous mix (gemm + attn) through
    :class:`~repro.serve.AcceleratorService` — admission, DRR release,
    kernel routing and the settle pump all run over a faulted fabric, and
    the contract is the serving layer's own: every admitted request settles
    ``ok`` or ``failed`` with a *typed* error, and the run drains bounded.
    The submission schedule is fixed (no RNG), so a given seed's outcome is
    a pure function of the fault schedule — identical across modes.
    """
    from repro.runtime import FpgaHandle
    from repro.serve.errors import ServeError
    from repro.serve.scenarios import hetero_build
    from repro.serve.service import AcceleratorService
    from repro.serve.tenant import TenantConfig

    if mode in DIST_MODES:
        raise ValueError(
            "serving chaos cannot run sharded: its delay-core design has "
            "no memory network, so there are no SLR bridges to partition at"
        )
    plan = plan if plan is not None else default_plan(seed)
    build = hetero_build(
        mode=mode, faults=plan, watchdog=watchdog or CHAOS_WATCHDOG
    )
    handle = FpgaHandle(build.design)
    errors: List[str] = []
    unexpected = ""
    tickets = []
    try:
        service = AcceleratorService(
            handle,
            [
                TenantConfig(name="tA", max_in_flight=2),
                TenantConfig(name="tB", max_in_flight=2),
            ],
        )
        for r in range(2):
            for tenant in ("tA", "tB"):
                for kernel in ("gemm", "attn"):
                    try:
                        tickets.append(service.submit(tenant, kernel, job=r))
                    except ServeError as exc:
                        errors.append(f"{tenant}/{kernel}: {type(exc).__name__}")
        service.run_until_drained(max_cycles=400_000)
    except (FaultError, DeadlockError, ServeError) as exc:
        errors.append(type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 — untyped escape = violation
        unexpected = f"{type(exc).__name__}: {exc}"
    for t in tickets:
        if not t.settled:
            errors.append(f"{t.tenant}/{t.kernel}: unsettled")
        elif t.outcome == "failed":
            name = t.error.split(":", 1)[0]
            if name in _SERVING_TYPED:
                errors.append(f"{t.tenant}/{t.kernel}: {name}")
            elif not unexpected:
                unexpected = f"untyped ticket error: {t.error}"
    outcome, error = _classify(handle, errors, False, unexpected)
    return _outcome("serving", mode, seed, handle, outcome, error)


def run_checkpoint_chaos(
    seed: int,
    mode: str,
    plan: Optional[FaultPlan] = None,
    watchdog: Optional[WatchdogConfig] = None,
) -> ChaosOutcome:
    """SIGKILL a checkpointed run at a seeded point, resume it, and demand
    bit-identity with an uninterrupted reference (tested under the standard
    seeded fault plan).

    Single-process modes kill the whole process and resume from the snapshot
    file; ``dist:fork`` kills one worker and relies on barrier-checkpoint
    failover.  The differential itself runs under the scenario's own plan
    and watchdog (they are part of its deterministic identity), so ``plan``/
    ``watchdog`` overrides are rejected rather than silently ignored.
    """
    import tempfile

    from repro.snapshot.scenario import kill_and_resume_differential

    if plan is not None or watchdog is not None:
        raise ValueError(
            "checkpoint chaos pins its own fault plan and watchdog; "
            "override the seed instead"
        )
    if mode in DIST_MODES and mode != "dist:fork":
        raise ValueError(
            f"checkpoint chaos needs worker processes to kill; use "
            f"'dist:fork' or one of {MODES} (got {mode!r})"
        )
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-chaos-") as workdir:
        result = kill_and_resume_differential(seed, mode, workdir)
    return ChaosOutcome(
        scenario="checkpoint",
        mode=mode,
        seed=seed,
        outcome=result["outcome"],
        error=result["error"],
        cycles=result["cycles"],
        n_faults=result["n_faults"],
        fingerprint=result["fingerprint"],
        timeouts=result["timeouts"],
        retries=result["retries"],
        quarantines=result["quarantines"],
        rerouted=result["rerouted"],
        late_responses=result["late_responses"],
    )


_SCENARIO_FNS: Dict[str, Callable[..., ChaosOutcome]] = {
    "memcpy": run_memcpy_chaos,
    "fig6": run_fig6_chaos,
    "serving": run_serving_chaos,
    "checkpoint": run_checkpoint_chaos,
}


def run_chaos(scenario: str, mode: str, seed: int) -> ChaosOutcome:
    try:
        fn = _SCENARIO_FNS[scenario]
    except KeyError:
        raise ValueError(f"unknown chaos scenario {scenario!r}") from None
    return fn(seed, mode)


def chaos_job(scenario: str, mode: str, seed: int) -> Dict[str, object]:
    """Farm-friendly entry point: plain-dict outcome, importable by name."""
    return asdict(run_chaos(scenario, mode, seed))


def run_chaos_sweep(
    seeds: Sequence[int],
    scenarios: Sequence[str] = SCENARIOS,
    modes: Sequence[str] = MODES,
    workers: int = 0,
) -> List[ChaosOutcome]:
    """The full cross product; ``workers > 1`` shards it over a farm pool."""
    combos = [(sc, m, s) for sc in scenarios for m in modes for s in seeds]
    if workers > 1:
        from repro.farm.job import Job
        from repro.farm.pool import WorkerPool, multiprocessing_available

        if multiprocessing_available():
            pool = WorkerPool(workers, default_timeout_s=600.0)
            jobs = [
                Job("repro.faults.chaos:chaos_job", (sc, m, s), cache=False)
                for sc, m, s in combos
            ]
            results: List[ChaosOutcome] = []
            for (sc, m, s), out in zip(combos, pool.run(jobs)):
                if out.ok:
                    results.append(ChaosOutcome(**out.value))
                else:
                    results.append(
                        ChaosOutcome(sc, m, s, "unexpected", error=out.error or "farm failure")
                    )
            return results
    return [run_chaos(sc, m, s) for sc, m, s in combos]


def render_chaos_report(outcomes: Sequence[ChaosOutcome]) -> str:
    """Human summary: outcome histogram per scenario/mode plus violations."""
    lines = [f"chaos sweep: {len(outcomes)} runs"]
    by_cell: Dict[Tuple[str, str], Dict[str, int]] = {}
    for o in outcomes:
        cell = by_cell.setdefault((o.scenario, o.mode), {})
        cell[o.outcome] = cell.get(o.outcome, 0) + 1
    for (scenario, mode), cell in sorted(by_cell.items()):
        parts = " ".join(f"{k}={v}" for k, v in sorted(cell.items()))
        lines.append(f"  {scenario:<8} {mode:<13} {parts}")
    recovered = sum(1 for o in outcomes if o.outcome == "degraded")
    errored = sum(1 for o in outcomes if o.outcome == "error")
    lines.append(f"  degraded-but-correct: {recovered}, typed errors: {errored}")
    violations = [o for o in outcomes if o.violates_contract]
    if violations:
        lines.append(f"  CONTRACT VIOLATIONS: {len(violations)}")
        for o in violations[:20]:
            lines.append(
                f"    {o.scenario}/{o.mode} seed={o.seed}: {o.outcome} ({o.error})"
            )
    else:
        lines.append("  contract held: no hangs, no silent corruption")
    return "\n".join(lines)


# ------------------------------------------------------------ differential
def _run_fixed_memcpy(mode: str, faults: Optional[FaultPlan]):
    """Fixed memcpy workload returning (stable metrics, final cycle, ok)."""
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform, multi_die_platform
    from repro.runtime import FpgaHandle

    size = 2048
    if mode in DIST_MODES:
        platform = multi_die_platform(2)
        n_cores = 2  # sharding needs at least one core per die
    else:
        platform, n_cores = AWSF1Platform(), 1
    build = BeethovenBuild(
        memcpy_config(n_cores=n_cores),
        platform,
        faults=faults,
        **_mode_build_args(mode),
    )
    handle = FpgaHandle(build.design)
    src, dst = handle.malloc(size), handle.malloc(size)
    pattern = bytes((i * 131 + 17) % 256 for i in range(size))
    src.write(pattern)
    handle.copy_to_fpga(src)
    handle.call(
        "Memcpy", "memcpy", 0, src=src.fpga_addr, dst=dst.fpga_addr, len_bytes=size
    ).get(max_cycles=500_000)
    handle.copy_from_fpga(dst)
    metrics = build.design.metrics(stable_only=True)
    cycle = build.design.sim.cycle
    getattr(build.design.sim, "shutdown", lambda: None)()
    return metrics, cycle, dst.read() == pattern


def run_empty_plan_differential(mode: str) -> Dict[str, object]:
    """Prove ``FaultPlan()`` is a strict no-op under ``mode``.

    Runs the fixed workload with no plan and with the empty plan; asserts
    every ``fault/*`` metric of the latter is zero, then requires the
    remaining stable metrics and the final cycle count to be bit-identical.
    """
    base_metrics, base_cycles, base_ok = _run_fixed_memcpy(mode, None)
    empty_metrics, empty_cycles, empty_ok = _run_fixed_memcpy(mode, FaultPlan())
    nonzero = {
        k: v for k, v in empty_metrics.items() if k.startswith("fault/") and v != 0
    }
    stripped = {
        k: v for k, v in empty_metrics.items() if not k.startswith("fault/")
    }
    return {
        "mode": mode,
        "identical": stripped == base_metrics and base_cycles == empty_cycles,
        "fault_metrics_nonzero": nonzero,
        "cycles": (base_cycles, empty_cycles),
        "data_ok": base_ok and empty_ok,
        "mismatched_keys": sorted(
            set(stripped) ^ set(base_metrics)
            | {k for k in set(stripped) & set(base_metrics) if stripped[k] != base_metrics[k]}
        ),
    }
