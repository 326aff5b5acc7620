"""The event-driven host command path against its eagerly stepped references.

Three mechanisms keep the runtime server, MMIO frontend, command router,
command adapters and delay cores asleep unless something can change them:
edge-directed wake subscriptions (``Component.wake_edges``) with the backlog
covered in each class's ``next_event``, the server's poll grid in closed
form, and one ``LoadGenerator`` wait per arrival.  None of them may move a
simulated cycle, so everything here is a differential:

* seeded serving runs under ``naive`` vs ``compiled`` over host interfaces, core latencies and tenant mixes that back
  the command path up — which the stock F1 ``serve_mix`` never does — with
  and without a watchdog, dropped responses and hang patches;
* the poll grid against a test-local server that steps it one visit at a
  time, the rule the closed form replaces;
* budgets that fail when a class slides back to waking itself, or the load
  generator to one ``Simulator.run`` per settlement.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.baselines.delay_core import DelayCore, delay_config
from repro.command.packing import CommandSpec, EmptyAccelResponse, Field, UInt
from repro.command.rocc import RoccInstruction, RoccResponse
from repro.core.accelerator import AcceleratorCore
from repro.core.build import BeethovenBuild
from repro.core.config import AcceleratorConfig
from repro.faults import FaultPlan
from repro.platforms import AWSF1Platform
from repro.platforms.base import HostInterface
from repro.runtime import FpgaHandle
from repro.runtime.server import RuntimeServer, WatchdogConfig
from repro.serve import AcceleratorService, TenantConfig
from repro.serve.loadgen import (
    ClosedLoop,
    LoadBudgetExceeded,
    LoadGenerator,
    OpenLoop,
    TenantLoad,
)
from repro.serve.scenarios import hetero_build, profile_loads
from repro.sim import (
    DEFAULT_SCHEDULING,
    SCHEDULING_MODES,
    ChannelQueue,
    Component,
    DeadlockError,
    Simulator,
    class_tick_table,
    render_class_tick_table,
)

TIER1_SEEDS = range(20)
KERNELS = ("ka", "kb")


# ------------------------------------------------------------------ scenarios
@dataclasses.dataclass
class Case:
    """One seeded serving scenario; a pure function of ``seed``."""

    seed: int
    host: HostInterface
    cores: tuple  # ((n_cores, latency) of system A, same of system B)
    loads: list
    watchdog: WatchdogConfig | None
    #: Shrink the queues a stock design never fills, so the server's stalled
    #: word push and the frontend's blocked instruction push run too.
    squeeze: bool
    faults: FaultPlan | None = None


def make_case(seed: int, **overrides) -> Case:
    rng = random.Random(seed)
    host = HostInterface(
        discrete=True,
        mmio_word_cycles=rng.choice((1, 2, 4, 30)),
        dma_bytes_per_cycle=32.0,
        response_poll_cycles=rng.choice((1, 3, 7, 12, 60)),
        command_lock_cycles=rng.choice((0, 1, 2, 8, 50)),
    )
    latency = lambda: rng.choice((1, 2, 5, 20, 90, 400, rng.randint(1, 400)))  # noqa: E731
    cores = ((rng.randint(1, 3), latency()), (rng.randint(1, 2), latency()))
    n_tenants = rng.randint(1, 4)
    loads = []
    for i in range(n_tenants):
        n_requests = rng.randint(6, 90 // n_tenants)
        if rng.random() < 0.6:
            arrivals = ClosedLoop(
                concurrency=rng.choice((1, 2, 4, 8, 12)),
                n_requests=n_requests,
                think_cycles=rng.choice((0, 7)),
                retry_backoff_cycles=rng.choice((8, 64)),
            )
        else:
            arrivals = OpenLoop(
                mean_gap_cycles=rng.choice((3, 10, 40, 200)), n_requests=n_requests
            )
        mix = [(k, {"job": i + 1}, rng.randint(1, 3)) for k in KERNELS if rng.random() < 0.8]
        loads.append(
            TenantLoad(
                TenantConfig(
                    name=f"t{i}",
                    weight=rng.choice((1, 1, 2)),
                    max_in_flight=rng.choice((1, 2, 4, 8, 16)),
                    max_queued=rng.choice((4, 64)),
                ),
                mix or [(KERNELS[0], {"job": i + 1}, 1)],
                arrivals,
            )
        )
    watchdog = None
    if rng.random() < 0.5:
        # Short enough that deep queues on a slow core genuinely time out
        # (retries, late responses, quarantine) on some seeds.
        watchdog = WatchdogConfig(
            timeout_cycles=rng.choice((300, 1200, 20_000)),
            max_retries=2,
            backoff_base_cycles=32,
        )
    case = Case(seed, host, cores, loads, watchdog, squeeze=rng.random() < 0.3)
    return dataclasses.replace(case, **overrides)


def build_case(case: Case, mode: str):
    platform = dataclasses.replace(AWSF1Platform(), host=case.host)
    configs = [
        delay_config(n, lat, name=name, io_name=kernel)
        for (n, lat), name, kernel in zip(case.cores, ("A", "B"), KERNELS)
    ]
    build = BeethovenBuild(
        configs, platform, scheduling=mode, watchdog=case.watchdog, faults=case.faults
    )
    design = build.design
    if case.squeeze:
        design.mmio.cmd_words.capacity = 1
        design.router.cmd_in.capacity = 1
        design.router.resp_out.capacity = 1
        for system in design.systems:
            for ecore in system.cores:
                ecore.adapter.cmd_in.capacity = 1
    handle = FpgaHandle(design)
    service = AcceleratorService(handle, [load.tenant for load in case.loads])
    return build, handle, LoadGenerator(service, case.loads, seed=case.seed)


def run_case(case: Case, mode: str, prepare=None):
    build, handle, gen = build_case(case, mode)
    if prepare is not None:
        prepare(build, handle)
    report = gen.run(max_cycles=400_000, stall_budget=60_000)
    return handle.cycle, report.to_dict(), build.metrics(stable_only=True)


def assert_same(case: Case, prepare=None):
    reference = run_case(case, SCHEDULING_MODES[0], prepare)
    for mode in SCHEDULING_MODES[1:]:
        got = run_case(case, mode, prepare)
        assert got[0] == reference[0], f"seed {case.seed}: final cycle, {mode}"
        assert got[1] == reference[1], f"seed {case.seed}: serving report, {mode}"
        assert got[2] == reference[2], f"seed {case.seed}: stable metrics, {mode}"
    return reference


# --------------------------------------------------------------- differential
@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_backed_up_host_path_is_cycle_exact(seed):
    """Final cycle, serving report and the whole stable-metric dump (channel
    occupancy integrals included) agree between the eager and the
    event-driven schedule."""
    cycle, report, _ = assert_same(make_case(seed))
    assert cycle > 0 and report["totals"]["admitted"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(20, 220))
def test_backed_up_host_path_seed_sweep(seed):
    assert_same(make_case(seed))


class _FullnessProbe(Component):
    """Ticks every cycle and notes which channels it ever saw full."""

    def __init__(self, channels):
        super().__init__("probe")
        self._watch = channels
        self.seen_full = set()

    def channels(self):
        return []

    def tick(self, cycle):
        for chan in self._watch:
            if len(chan._items) >= chan.capacity:
                self.seen_full.add(chan.name)


def test_the_sweep_really_backs_the_path_up():
    """The tier-1 seeds fill every queue of the path at least once, so the
    stalled-push, head-of-line and backlog-drain branches all run."""
    seen = set()
    for seed in TIER1_SEEDS:
        build, _handle, gen = build_case(make_case(seed), DEFAULT_SCHEDULING)
        sim = build.design.sim
        probe = sim.add(_FullnessProbe(list(sim._channels)))
        gen.run(max_cycles=400_000, stall_budget=60_000)
        seen |= probe.seen_full
    assert {"mmio.cmdw", "mmio.respw", "cmdrouter.cmd", "cmdrouter.resp"} <= seen
    assert any(n.startswith("cmdadapt.") and n.endswith(".in") for n in seen)
    assert any(n.startswith("io.") and n.endswith(".req") for n in seen)


# --------------------------------------- backlogs only a hint can see drained
class _TwoPortCore(AcceleratorCore):
    """Two independent command ports, one taking a three-chunk command: the
    adapter then holds consumable chunks behind a stalled final one, and two
    responses can turn visible in one cycle — backlogs no edge announces.
    Plain default wake membership and no hint (it is not the class under
    test): ticked every cycle."""

    def __init__(self, ctx, latencies):
        super().__init__(ctx)
        wide = tuple(Field(f"w{i}", UInt(64)) for i in range(5))
        self.ports = [
            self.beethoven_io(CommandSpec("wide", wide), EmptyAccelResponse()),
            self.beethoven_io(CommandSpec("narrow", (Field("job", UInt(32)),)), EmptyAccelResponse()),
        ]
        self.latencies = latencies
        self.done_at = [None, None]

    def tick(self, cycle):
        for i, io in enumerate(self.ports):
            if self.done_at[i] is None:
                if io.req.can_pop():
                    io.req.pop()
                    self.done_at[i] = cycle + self.latencies[i]
            elif cycle >= self.done_at[i] and io.resp.can_push():
                io.resp.push({})
                self.done_at[i] = None


@pytest.mark.parametrize(
    "latencies,word_cycles,poll_cycles",
    [
        ((1, 1), 1, 1),
        ((7, 90), 1, 1),  # chunks of the next command queue behind a stalled final one
        ((40, 3), 1, 12),
        ((7, 90), 4, 60),
        ((41, 20), 4, 1),  # both ports answer in the same cycle
    ],
)
def test_multi_chunk_and_two_port_backlogs_drain_on_schedule(latencies, word_cycles, poll_cycles):
    host = HostInterface(True, word_cycles, 32.0, poll_cycles, 0)
    platform = dataclasses.replace(AWSF1Platform(), host=host)
    config = AcceleratorConfig(
        name="Two", n_cores=1, module_constructor=lambda ctx: _TwoPortCore(ctx, latencies)
    )
    wide = {f"w{i}": (i + 1) << 40 for i in range(5)}
    outcomes = {}
    for mode in SCHEDULING_MODES:
        build = BeethovenBuild(config, platform, scheduling=mode)
        handle = FpgaHandle(build.design)
        futs = []
        for k in range(10):
            futs.append(handle.call("Two", "wide", 0, **wide))
            futs.append(handle.call("Two", "narrow", 0, job=k))
        for fut in futs:
            fut.get(max_cycles=50_000)
        outcomes[mode] = (
            handle.cycle, [f.latency_cycles for f in futs], build.metrics(stable_only=True)
        )
    assert outcomes["compiled"] == outcomes["naive"]


def test_prestaged_backlogs_drain_one_item_per_cycle():
    """A testbench may fill a queue before the first ``run``: several words
    at the frontend, instructions at the router and an adapter, commands at
    a core.  No later edge announces items two onwards; occupancy integrals
    put every pop on its cycle."""
    dumps = {}
    for mode in ("naive", "compiled"):
        build = hetero_build(mode=mode)
        design = build.design
        cores = [ecore for system in design.systems for ecore in system.cores]

        def inst(ecore, job):
            return RoccInstruction(
                system_id=ecore.system_id, core_id=ecore.core_id, funct7=0,
                rs1=job, rs2=0, xd=True, rd=1,
            )

        for job in range(2):  # twelve words: two commands for core 0
            for word in inst(cores[0], job).encode_words():
                design.mmio.cmd_words.push(word)
        for job in range(3):
            design.router.cmd_in.push(inst(cores[1], job))
        for job in range(3):
            cores[2].adapter.cmd_in.push(inst(cores[2], job))
        for job in range(2):
            cores[3].core.io.req.push({"job": job})
        design.sim.run(4_000)
        dumps[mode] = build.metrics(stable_only=True)
        assert [ecore.core.jobs_done for ecore in cores] == [2, 3, 3, 2]
    assert dumps["compiled"] == dumps["naive"]


# ------------------------------------------------------------------- faults
@pytest.mark.parametrize("seed", range(6))
def test_dropped_responses_end_a_poll_sleep_on_the_deadline(seed):
    """With responses eaten at the MMIO frontend nothing wakes the sleeping
    server but its own deadline; timeouts, retries and late responses land
    on the cycles the every-cycle schedule gives."""
    case = make_case(
        seed,
        watchdog=WatchdogConfig(timeout_cycles=900, max_retries=2, backoff_base_cycles=32),
        faults=FaultPlan(seed=seed, mmio_resp_drop_rate=0.25, max_faults_per_site=4),
    )
    _, _, metrics = assert_same(case)
    assert metrics["runtime/server/watchdog/timeouts"] > 0


def test_late_responses_are_counted_exactly():
    """A slow ``ka`` command the watchdog gave up on answers while the client
    has moved on to the other core, so nothing waits on its own: that answer
    is a late response, read on the same visit under every schedule."""
    case = Case(
        seed=0,
        host=HostInterface(True, 30, 32.0, 60, 50),
        cores=((1, 300), (1, 5)),
        loads=[
            TenantLoad(
                TenantConfig(name="t0", max_in_flight=1, max_queued=8),
                [("ka", {"job": 1}, 1), ("kb", {"job": 2}, 1)],
                ClosedLoop(concurrency=1, n_requests=12),
            )
        ],
        watchdog=WatchdogConfig(timeout_cycles=250, max_retries=0, quarantine_strikes=1000),
        squeeze=False,
    )
    _, report, metrics = assert_same(case)
    assert report["totals"]["failed"] == metrics["runtime/server/watchdog/timeouts"] == 3
    assert metrics["runtime/server/watchdog/late_responses"] == 3


@pytest.mark.parametrize("seed", range(4))
def test_hang_patched_delay_core_falls_back_to_both_edges(seed):
    """``FaultPlan`` hangs patch ``tick``/``next_event`` on the instance; the
    patch wins over the class's edge declaration (the core is subscribed to
    both edges of its union again) and the run stays cycle-exact."""
    case = make_case(
        seed,
        watchdog=None,
        faults=FaultPlan(
            seed=seed, core_hang_rate=1.0, core_hang_cycles=1500, core_hang_window=1200
        ),
    )
    assert_same(case)
    build, _handle, gen = build_case(case, "compiled")
    gen.run(max_cycles=400_000, stall_budget=60_000)
    for system in build.design.systems:
        for ecore in system.cores:
            core = ecore.core
            assert isinstance(core, DelayCore) and "tick" in vars(core)
            assert core._sched_index in core.io.req._push_subs
            assert core._sched_index in core.io.req._pop_subs


def _hang_server(build, handle, start=400, end=2600):
    """Wedge the runtime server itself for ``[start, end)`` the way
    ``FaultPlan`` wedges a core: instance-level ``tick`` and ``next_event``."""
    server = handle.server
    orig_tick, orig_next = server.tick, server.next_event

    def tick(cycle):
        if not start <= cycle < end:
            orig_tick(cycle)

    def next_event(cycle):
        return float(end) if start <= cycle < end else orig_next(cycle)

    server.tick, server.next_event = tick, next_event


@pytest.mark.parametrize("seed", range(4))
def test_hang_patched_server_stays_cycle_exact(seed):
    """The grid keeps its phase through a window in which no visit runs."""
    case = make_case(seed, watchdog=None)
    assert_same(case, prepare=_hang_server)
    build, handle, gen = build_case(case, "compiled")
    _hang_server(build, handle)
    gen.run(max_cycles=400_000, stall_budget=60_000)
    resp_words = build.design.mmio.resp_words
    assert handle.server._sched_index in resp_words._pop_subs  # union, both edges


def test_unpatched_classes_subscribe_to_their_declared_edges_only():
    build = hetero_build()
    handle = FpgaHandle(build.design)
    handle.run_cycles(1)
    design = build.design
    mmio, router, server = design.mmio, design.router, handle.server
    ecore = design.systems[0].cores[0]
    core, adapter = ecore.core, ecore.adapter
    expected = {
        # channel: (push subscribers, pop subscribers)
        mmio.cmd_words: ({mmio}, set()),
        mmio.resp_words: ({server}, {mmio}),
        router.cmd_in: ({router}, {mmio}),
        router.resp_out: ({mmio}, set()),
        adapter.cmd_in: ({adapter}, set()),
        adapter.resp_out: ({router}, {adapter}),
        core.io.req: ({core}, {adapter}),
        core.io.resp: ({adapter}, set()),
    }
    for chan, (on_push, on_pop) in expected.items():
        assert set(chan._push_subs) == {c._sched_index for c in on_push}, chan.name
        assert set(chan._pop_subs) == {c._sched_index for c in on_pop}, chan.name
    # The union the other engines subscribe to is derived, not restated.
    assert list(server.wake_channels()) == [mmio.resp_words]
    assert set(mmio.wake_channels()) == {
        mmio.cmd_words, mmio.resp_words, router.cmd_in, router.resp_out
    }
    # Nobody outside the host path opted in.
    opted = {type(c).__name__ for c in design.sim._components if c.wake_edges() is not None}
    assert opted == {
        "RuntimeServer", "MmioFrontend", "CommandRouter", "CoreCommandAdapter", "DelayCore"
    }


# ------------------------------------------------------------------ budgets
def _serve(profile, n_requests, **build_kw):
    build = hetero_build(**build_kw)
    handle = FpgaHandle(build.design)
    loads = profile_loads(profile, n_requests)
    service = AcceleratorService(handle, [load.tenant for load in loads])
    return build, handle, LoadGenerator(service, loads, seed=1)


def _count_run_entries(sim):
    entries = []
    run = sim.run

    def counting_run(*args, **kwargs):
        entries.append(sim.cycle)
        return run(*args, **kwargs)

    sim.run = counting_run
    return entries


@pytest.mark.parametrize("profile,n_requests", [("smoke", 40), ("symmetric", 40)])
def test_ticks_per_command_and_run_entries_stay_bounded(profile, n_requests):
    """Per command: the server locks, pushes six words and polls once (8),
    the frontend moves six words and one response (7); a slide back to
    self-wakes roughly doubles every row, per-settlement waits make the run
    entries grow with the request count."""
    build, handle, gen = _serve(profile, n_requests)
    sim = build.design.sim
    assert sim.scheduling == DEFAULT_SCHEDULING
    entries = _count_run_entries(sim)
    report = gen.run()
    commands = report.totals["completed"]
    assert commands == 3 * n_requests
    table = class_tick_table(sim)
    budgets = {
        "RuntimeServer": 10, "MmioFrontend": 10, "CommandRouter": 7,
        "CoreCommandAdapter": 5, "DelayCore": 5,
    }
    for name, budget in budgets.items():
        assert table[name]["ticks_per_command"] <= budget, (name, table[name])
        assert table[name]["ticks_per_command"] == table[name]["ticks_executed"] / commands
    # A serving design moves no DRAM column: the table speaks commands.
    text = render_class_tick_table(table)
    assert "ticks/cmd" in text and "ticks/col" not in text
    assert len(entries) <= 3, entries


def test_wedged_service_raises_within_stall_budget_of_last_settlement():
    """A permanent hang and no watchdog: the typed DeadlockError arrives
    ``stall_budget`` cycles after the last settlement, not after the wait's
    entry and not at ``max_cycles``."""
    stall_budget = 5_000
    plan = FaultPlan(seed=3, core_hang_rate=1.0, core_hang_cycles=0, core_hang_window=3_000)
    outcomes = {}
    for mode in ("naive", "compiled"):
        build, handle, gen = _serve("smoke", 40, mode=mode, faults=plan)
        with pytest.raises(DeadlockError):
            gen.run(max_cycles=1_000_000, stall_budget=stall_budget)
        settled = [
            t.done_cycle for runner in gen._runners for t in runner.tickets if t.settled
        ]
        assert settled, "the hang window opened before anything settled"
        assert handle.cycle == max(settled) + 1 + stall_budget
        outcomes[mode] = (handle.cycle, len(settled))
    assert outcomes["naive"] == outcomes["compiled"]


def test_cycle_budget_raises_load_budget_exceeded_while_settlements_flow():
    """``max_cycles`` running out mid-wait is not a stall."""
    stops = set()
    for mode in ("naive", "compiled"):
        _build, handle, gen = _serve("symmetric", 40, mode=mode)
        with pytest.raises(LoadBudgetExceeded):
            gen.run(max_cycles=6_000, stall_budget=4_000)
        assert sum(runner.settled for runner in gen._runners) > 0
        stops.add(handle.cycle)
    assert stops == {6_001}


# ---------------------------------------------------------------- poll grid
class _EagerServer(RuntimeServer):
    """The stepping rule the closed form replaces: every visit that finds no
    word moves ``_next_poll`` by one interval.  Exact only when ticked every
    cycle, so it runs under ``naive``."""

    def _poll(self, cycle):
        if cycle < self._next_poll or not any(self._waiters.values()):
            return
        progressed = False
        while self.mmio.resp_words.can_pop():
            self._resp_words.append(self.mmio.resp_words.pop())
            progressed = True
            if len(self._resp_words) == 4:
                resp = RoccResponse.decode_words(self._resp_words)
                self._resp_words.clear()
                self._waiters[(resp.system_id, resp.core_id)].popleft().callback(resp)
                self.responses_received += 1
        host = self.host
        self._next_poll = cycle + (
            host.mmio_word_cycles if progressed else host.response_poll_cycles
        )


class _ScriptedFrontend(Component):
    """Swallows command words; answers the n-th completed command
    ``delays[n]`` cycles after its last word arrived."""

    def __init__(self, delays):
        super().__init__("mmio")
        self.cmd_words = ChannelQueue(16, "mmio.cmdw")
        self.resp_words = ChannelQueue(16, "mmio.respw")
        self._delays = list(delays)
        self._partial = []
        self._due = []  # (cycle, RoccResponse)

    def tick(self, cycle):
        if self.cmd_words.can_pop():
            self._partial.append(self.cmd_words.pop())
            if len(self._partial) == 6:
                inst = RoccInstruction.decode_words(self._partial)
                self._partial.clear()
                self._due.append(
                    (cycle + self._delays.pop(0),
                     RoccResponse(inst.system_id, inst.core_id, inst.rd, 0))
                )
        if self._due and self._due[0][0] <= cycle and self.resp_words.can_push(4):
            for word in self._due.pop(0)[1].encode_words():
                self.resp_words.push(word)

    def next_event(self, cycle):
        if self.cmd_words.can_pop():
            return cycle
        return max(cycle, self._due[0][0]) if self._due else float("inf")


POLL_HOST = HostInterface(True, 2, 32.0, 7, 3)


def _poll_grid_run(server_cls, mode, delays, resubmit_gap, stop_at):
    """Two commands to one core: the second is submitted ``resubmit_gap``
    cycles after the first one's response (so the waiter set goes empty and
    non-empty again between visits).  Returns what an observer can see."""
    sim = Simulator(scheduling=mode)
    mmio = sim.add(_ScriptedFrontend(delays))
    server = sim.add(server_cls(mmio, POLL_HOST))
    inst = RoccInstruction(system_id=0, core_id=0, funct7=0, rs1=1, rs2=2, xd=True, rd=1)
    visits = []
    server.submit(inst, lambda resp: visits.append(sim.cycle), cycle_hint=0)
    sim.run(10_000, until=lambda: len(visits) == 1)
    if resubmit_gap:
        sim.run(resubmit_gap)
    server.submit(inst, lambda resp: visits.append(sim.cycle), cycle_hint=sim.cycle)
    sim.run(10_000, until=lambda: len(visits) == 2)
    sim.run(stop_at)  # sleep on with nothing in flight, then one more command
    server.submit(inst, lambda resp: visits.append(sim.cycle), cycle_hint=sim.cycle)
    sim.run(5)
    # One eager tick brings a lazily held grid position up to date.
    sim.step()
    return (
        visits,
        int(server.lock_wait_cycles),
        int(server.responses_received),
        server._next_poll,
        sim.cycle,
    )


@pytest.mark.parametrize("offset", range(POLL_HOST.response_poll_cycles + 1))
@pytest.mark.parametrize("resubmit_gap", (0, 1, 2, 5, 20))
def test_poll_grid_closed_form_equals_eager_stepping(offset, resubmit_gap):
    """The response lands at every offset from the grid, and the waiter set
    goes empty -> non-empty at several distances from the last visit."""
    delays = [2 * POLL_HOST.response_poll_cycles + offset, 11 + offset, 40]
    reference = _poll_grid_run(_EagerServer, "naive", delays, resubmit_gap, 3 + offset)
    assert len(reference[0]) == 2 and reference[2] == 2
    for mode in SCHEDULING_MODES:
        got = _poll_grid_run(RuntimeServer, mode, delays, resubmit_gap, 3 + offset)
        assert got == reference, mode


def test_submission_from_another_tick_wakes_an_idle_server():
    """A command submitted mid-run by some other component's tick (no run
    entry to wake everything) must not sit behind the idle server's NEVER
    hint."""

    class _Submitter(Component):
        def __init__(self, server, inst, at):
            super().__init__("submitter")
            self.server, self.inst, self.at = server, inst, at

        def channels(self):
            return []

        def tick(self, cycle):
            if cycle == self.at:
                self.server.submit(self.inst, lambda resp: None, cycle_hint=cycle)

        def next_event(self, cycle):
            return self.at if cycle <= self.at else float("inf")

    answered = {}
    for mode in SCHEDULING_MODES:
        sim = Simulator(scheduling=mode)
        mmio = sim.add(_ScriptedFrontend([5]))
        server = sim.add(RuntimeServer(mmio, POLL_HOST))
        inst = RoccInstruction(system_id=0, core_id=0, funct7=0, rs1=1, rs2=2, xd=True, rd=1)
        sim.add(_Submitter(server, inst, at=50))
        sim.run(2_000, until=lambda: int(server.responses_received) == 1)
        answered[mode] = sim.cycle
    assert answered["naive"] == answered["compiled"]
    assert answered["naive"] < 150
