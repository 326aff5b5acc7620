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
same fault schedule and final cycle count in both.
``run_empty_plan_differential`` additionally proves the empty plan is a
strict no-op (stable metrics and final cycles bit-identical to a build with
no plan at all).

A scenario is a build preset plus a drive.  :func:`memcpy_scenario` is the
one memcpy builder (the sweep's, the differential's and the checkpoint
scenario's presets differ only in size, core count, plan and watchdog), and
:func:`run_scene` is the one runner: it drives a built scene, catches what
escapes and classifies the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.errors import FaultError
from repro.faults.plan import FaultPlan
from repro.runtime.server import WatchdogConfig
from repro.sim import SCHEDULING_MODES, DeadlockError

MODES: Tuple[str, ...] = SCHEDULING_MODES

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


def default_plan(seed: int) -> FaultPlan:
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
        dram_read_flip_rate=0.02 if "dram" in active else 0.0,
        axi_r_corrupt_rate=0.03 if "r_corrupt" in active else 0.0,
        axi_r_drop_rate=0.03 if "r_drop" in active else 0.0,
        axi_b_drop_rate=0.10 if "b_drop" in active else 0.0,
        mmio_resp_drop_rate=0.30 if "mmio" in active else 0.0,
        core_hang_rate=0.40 if "hang" in active else 0.0,
        core_hang_cycles=rng.choice((0, 2000)),
        core_hang_window=6000,
        max_faults_per_site=2,
    )


@dataclass
class _Verdict:
    """What a drive observed: per-step typed errors, wrong output, and an
    untyped escape (the last two are contract violations)."""

    errors: List[str] = field(default_factory=list)
    corrupt: bool = False
    unexpected: str = ""


def _classify(handle, v: _Verdict) -> Tuple[str, str]:
    if v.unexpected:
        return "unexpected", v.unexpected
    if v.corrupt:
        return "corrupt", "output mismatch with no error raised"
    if v.errors:
        return "error", "; ".join(v.errors)
    server = handle.server
    recovered = (
        server.retries
        or server.rerouted
        or server.quarantines
        or server.timeouts
    )
    return ("degraded" if recovered else "ok"), ""


def run_scene(
    scenario: str,
    mode: str,
    seed: int,
    scene: tuple,
    drive: Callable[[tuple, _Verdict], None],
    review: Optional[Callable[[tuple, _Verdict], None]] = None,
) -> ChaosOutcome:
    """The one scenario runner: drive a built ``scene`` (``(build, handle,
    ...)``), turn what escapes into a typed error or an untyped violation,
    let ``review`` inspect the scene afterwards, and classify."""
    from repro.serve.errors import ServeError

    handle = scene[1]
    v = _Verdict()
    try:
        drive(scene, v)
    except (FaultError, DeadlockError, ServeError) as exc:
        v.errors.append(type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 — untyped escape = violation
        v.unexpected = f"{type(exc).__name__}: {exc}"
    if review is not None:
        review(scene, v)
    outcome, error = _classify(handle, v)
    server = handle.server
    faults = handle.faults
    return ChaosOutcome(
        scenario=scenario,
        mode=mode,
        seed=seed,
        outcome=outcome,
        error=error,
        cycles=handle.design.sim.cycle,
        n_faults=len(faults.events) if faults is not None else 0,
        fingerprint=faults.fingerprint() if faults is not None else "",
        timeouts=server.timeouts,
        retries=server.retries,
        quarantines=server.quarantines,
        rerouted=server.rerouted,
        late_responses=server.late_responses,
    )


# ----------------------------------------------------------------- memcpy
def memcpy_scenario(mode: str, seed: int, *, size: int, n_cores: int, faults, watchdog):
    """Memcpy on AWS F1 with the host setup done and one copy per core
    issued: ``(build, handle, futs, dsts, pattern)``.

    One source buffer holds a seeded pattern; core ``c`` copies it to
    ``dsts[c]``.  Two calls with the same arguments build identical
    skeletons and command uids, which is the replay a snapshot restore
    needs.
    """
    from repro.core.build import BeethovenBuild
    from repro.kernels.memcpy import memcpy_config
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(
        memcpy_config(n_cores=n_cores),
        AWSF1Platform(),
        scheduling=mode,
        faults=faults,
        watchdog=watchdog,
    )
    handle = FpgaHandle(build.design)
    pattern = bytes((i * 131 + 17 + seed) % 256 for i in range(size))
    src = handle.malloc(size)
    dsts = [handle.malloc(size) for _ in range(n_cores)]
    src.write(pattern)
    handle.copy_to_fpga(src)
    futs = [
        handle.call(
            "Memcpy", "memcpy", c,
            src=src.fpga_addr, dst=dsts[c].fpga_addr, len_bytes=size,
        )
        for c in range(n_cores)
    ]
    return build, handle, futs, dsts, pattern


def check_copies(scene: tuple, v: _Verdict, max_cycles: Optional[int] = None) -> None:
    """Settle each core's copy and compare it with the pattern.

    With ``max_cycles`` each future is waited on for that long; without it
    the run is over, and a copy still in flight is an ``Unfinished`` error.
    A typed error is recorded against its core.
    """
    _, handle, futs, dsts, pattern = scene
    for c, fut in enumerate(futs):
        if max_cycles is None and not fut.done:
            v.errors.append(f"core{c}: Unfinished")
            continue
        try:
            fut.get(max_cycles=max_cycles) if max_cycles else fut.try_get()
        except (FaultError, DeadlockError) as exc:
            v.errors.append(f"core{c}: {type(exc).__name__}")
            continue
        handle.copy_from_fpga(dsts[c])
        if dsts[c].read() != pattern:
            v.corrupt = True


def chaos_memcpy(mode: str, seed: int) -> tuple:
    """The sweep's memcpy: 1 KiB on each of two cores, so quarantine and
    reroute can finish the work on the surviving core."""
    return memcpy_scenario(
        mode, seed, size=1024, n_cores=2, faults=default_plan(seed), watchdog=CHAOS_WATCHDOG
    )


def drive_memcpy(scene: tuple, v: _Verdict) -> None:
    check_copies(scene, v, max_cycles=400_000)


# ------------------------------------------------------------------- fig6
_FIG6_CORES, _FIG6_ROUNDS = 3, 2


def _fig6(mode: str, seed: int) -> tuple:
    """The Figure-6 measured model: DelayCore rounds through the runtime
    server, so the command path, the watchdog and hang quarantine run with
    no memory traffic at all."""
    from repro.baselines.delay_core import delay_config
    from repro.core.build import BeethovenBuild
    from repro.platforms import AWSF1Platform
    from repro.runtime import FpgaHandle

    build = BeethovenBuild(
        delay_config(_FIG6_CORES, 600),
        AWSF1Platform(),
        scheduling=mode,
        faults=default_plan(seed),
        watchdog=CHAOS_WATCHDOG,
    )
    return build, FpgaHandle(build.design)


def _drive_fig6(scene: tuple, v: _Verdict) -> None:
    handle = scene[1]
    for r in range(_FIG6_ROUNDS):
        futs = []
        for c in range(_FIG6_CORES):
            try:
                futs.append((c, handle.call("Delay", "run", c, job=r * _FIG6_CORES + c)))
            except FaultError as exc:  # every core already quarantined
                v.errors.append(f"r{r}c{c}: {type(exc).__name__}")
        for c, fut in futs:
            try:
                fut.get(max_cycles=400_000)
            except (FaultError, DeadlockError) as exc:
                v.errors.append(f"r{r}c{c}: {type(exc).__name__}")


# ---------------------------------------------------------------- serving
#: Exception type names the serving layer records as *typed* ticket errors;
#: anything else settling a ticket is an untyped escape (contract violation).
_SERVING_TYPED = (
    "CommandTimeout",
    "FaultedResponse",
    "CoreQuarantined",
    "DeadlockError",
    "AdmissionRejected",
)


def _serving(mode: str, seed: int) -> tuple:
    """The multi-tenant serving layer over a faulted heterogeneous fabric:
    ``(build, handle, tickets)``, the tickets filled by the drive.

    Two tenants submit a fixed gemm + attn mix (no RNG), so a seed's
    outcome is a pure function of its fault schedule, the same in every
    mode.  The contract is the serving layer's own: every admitted request
    settles ``ok`` or ``failed`` with a *typed* error, and the run drains
    bounded.
    """
    from repro.runtime import FpgaHandle
    from repro.serve.scenarios import hetero_build

    build = hetero_build(mode=mode, faults=default_plan(seed), watchdog=CHAOS_WATCHDOG)
    return build, FpgaHandle(build.design), []


def _drive_serving(scene: tuple, v: _Verdict) -> None:
    from repro.serve.errors import ServeError
    from repro.serve.service import AcceleratorService
    from repro.serve.tenant import TenantConfig

    _, handle, tickets = scene
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
                    v.errors.append(f"{tenant}/{kernel}: {type(exc).__name__}")
    service.run_until_drained(max_cycles=400_000)


def _review_tickets(scene: tuple, v: _Verdict) -> None:
    """Every ticket must have settled, a failed one with a typed error."""
    for t in scene[2]:
        if not t.settled:
            v.errors.append(f"{t.tenant}/{t.kernel}: unsettled")
        elif t.outcome == "failed":
            name = t.error.split(":", 1)[0]
            if name in _SERVING_TYPED:
                v.errors.append(f"{t.tenant}/{t.kernel}: {name}")
            elif not v.unexpected:
                v.unexpected = f"untyped ticket error: {t.error}"


# ------------------------------------------------------------- checkpoint
def run_checkpoint_chaos(mode: str, seed: int) -> ChaosOutcome:
    """SIGKILL a checkpointed memcpy at a seeded point, resume it, and
    demand bit-identity with an uninterrupted reference: the outcome fields
    of :func:`repro.snapshot.scenario.kill_and_resume_differential`."""
    import tempfile

    from repro.snapshot.scenario import kill_and_resume_differential

    with tempfile.TemporaryDirectory(prefix="repro-ckpt-chaos-") as workdir:
        result = kill_and_resume_differential(seed, mode, workdir)
    return ChaosOutcome(**{f.name: result[f.name] for f in fields(ChaosOutcome)})


#: Scenario name -> ``(mode, seed) -> ChaosOutcome``: a build preset and a
#: drive through :func:`run_scene`, or the kill-and-resume differential.
_SCENARIOS: Dict[str, Callable[[str, int], ChaosOutcome]] = {
    "memcpy": lambda mode, seed: run_scene(
        "memcpy", mode, seed, chaos_memcpy(mode, seed), drive_memcpy),
    "fig6": lambda mode, seed: run_scene(
        "fig6", mode, seed, _fig6(mode, seed), _drive_fig6),
    "serving": lambda mode, seed: run_scene(
        "serving", mode, seed, _serving(mode, seed), _drive_serving, _review_tickets),
    "checkpoint": run_checkpoint_chaos,
}
SCENARIOS: Tuple[str, ...] = tuple(_SCENARIOS)


def run_chaos(scenario: str, mode: str, seed: int) -> ChaosOutcome:
    try:
        fn = _SCENARIOS[scenario]
    except KeyError:
        raise ValueError(f"unknown chaos scenario {scenario!r}") from None
    return fn(mode, seed)


def run_chaos_sweep(
    seeds: Sequence[int],
    scenarios: Sequence[str] = SCENARIOS,
    modes: Sequence[str] = MODES,
) -> List[ChaosOutcome]:
    """The full cross product, run in this process."""
    return [run_chaos(sc, m, s) for sc in scenarios for m in modes for s in seeds]


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
    """2 KiB on one core, no watchdog: (stable metrics, final cycle, ok)."""
    build, handle, (fut,), (dst,), pattern = memcpy_scenario(
        mode, 0, size=2048, n_cores=1, faults=faults, watchdog=None
    )
    fut.get(max_cycles=500_000)
    handle.copy_from_fpga(dst)
    metrics = build.metrics(stable_only=True)
    cycle = build.design.sim.cycle
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
