"""Seeded, deterministic fault injection.

A :class:`FaultPlan` is a frozen description of *what can go wrong*: per-site
fault rates plus one seed.  It is a pure function of its config — the same
plan compiled into the same design always produces the same fault schedule,
under every scheduling mode — which makes fault sweeps farmable and their
results cacheable by fingerprint, exactly like any other ``repro.farm`` job.

Determinism strategy:

* every injection site gets its own :class:`random.Random` seeded from
  ``sha256(f"{seed}:{site}")``, so adding a site (or reordering compilation)
  never perturbs another site's draws;
* draws happen per *event processed at the site* (a column read at the DRAM
  controller, an R beat routed through a NoC node, a response crossing the
  MMIO frontend).  Both scheduling modes process identical event
  sequences at identical cycles, so the schedules are bit-identical;
* core hang windows are drawn once at compile time as absolute cycles (and
  their fault events recorded then), so a hung core that is never ticked
  under compiled scheduling still logs the same schedule as under naive.

Silent corruption is structurally impossible: corrupted beats travel with
``err=True`` (modeled ECC/link CRC) and poison the owning core's command;
dropped beats/responses starve a transfer that can then never complete, so
they surface as watchdog timeouts — loud, typed, recoverable.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim import NEVER

#: Every fault/detection kind the metrics layer counts.  Fixed up front so a
#: compiled plan always registers the same ``fault/*`` metric keys — the
#: empty-plan differential relies on the key set being config-independent.
FAULT_KINDS = (
    "dram_flip",
    "r_corrupt",
    "r_drop",
    "b_drop",
    "mmio_resp_drop",
    "core_hang",
    "detected",
    "recovered",
)


def _site_seed(seed: int, site: str) -> int:
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FaultEvent:
    """One injected (or detected) fault, in the global schedule log."""

    cycle: int
    site: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class FaultPlan:
    """Frozen fault configuration; compile into a design at elaboration.

    Rates are per-event Bernoulli probabilities at each site.  A rate of 0
    installs no hook at that site; the all-zero plan is a strict no-op (the
    differential harness in ``repro.faults.chaos`` proves stable metrics and
    final cycle counts bit-identical to an un-faulted build).
    """

    seed: int = 0
    #: DRAM column reads: flip one bit, deliver the beat with ``err`` set.
    dram_read_flip_rate: float = 0.0
    #: NoC nodes: corrupt an R beat in flight (delivered with ``err``).
    axi_r_corrupt_rate: float = 0.0
    #: NoC nodes: drop an R beat (the burst can never complete -> timeout).
    axi_r_drop_rate: float = 0.0
    #: NoC nodes: drop a B response (the writer never finishes -> timeout).
    axi_b_drop_rate: float = 0.0
    #: MMIO frontend: eat a whole response (lost interrupt -> timeout/retry).
    mmio_resp_drop_rate: float = 0.0
    #: Per-core probability of one hang window during the run.
    core_hang_rate: float = 0.0
    #: Hang duration in cycles; 0 means the core wedges permanently.
    core_hang_cycles: int = 0
    #: Hang start cycle is drawn uniformly from [0, core_hang_window).
    core_hang_window: int = 50_000
    #: Cap on injections per site, so high rates cannot starve a run forever.
    max_faults_per_site: int = 2

    @property
    def empty(self) -> bool:
        return not any(
            (
                self.dram_read_flip_rate,
                self.axi_r_corrupt_rate,
                self.axi_r_drop_rate,
                self.axi_b_drop_rate,
                self.mmio_resp_drop_rate,
                self.core_hang_rate,
            )
        )

    def site_rng(self, site: str) -> random.Random:
        """The per-site RNG; a pure function of (seed, site)."""
        return random.Random(_site_seed(self.seed, site))

    def describe(self) -> Dict[str, object]:
        """Plain-dict form, fingerprint- and farm-friendly."""
        return asdict(self)

    # ------------------------------------------------------------- compile
    def compile(self, design) -> "FaultState":
        """Install injectors into an :class:`ElaboratedDesign`'s models.

        Returns the shared :class:`FaultState` (event log, poison map,
        ``fault/*`` metrics).  Only sites with a nonzero rate get a hook;
        detection wiring (Readers reporting ``err`` beats) is always
        installed because it is free when no faults fire.
        """
        state = FaultState(self, design.sim.registry)
        budget = self.max_faults_per_site
        if self.dram_read_flip_rate > 0:
            design.controller._fault = DramReadFaultHook(
                state, "dram/mc", self.site_rng("dram/mc"),
                self.dram_read_flip_rate, budget,
            )
        axi_rates = (self.axi_r_corrupt_rate, self.axi_r_drop_rate, self.axi_b_drop_rate)
        if any(axi_rates) and design.network is not None:
            from repro.noc.axi_node import AxiBufferNode

            for comp in design.network.components:
                if isinstance(comp, AxiBufferNode):
                    site = f"noc/{comp.name}"
                    comp._fault = AxiNodeFaultHook(
                        state, site, self.site_rng(site),
                        self.axi_r_corrupt_rate, self.axi_r_drop_rate,
                        self.axi_b_drop_rate, budget,
                    )
        if self.mmio_resp_drop_rate > 0:
            design.mmio._fault = MmioFaultHook(
                state, "cmd/mmio", self.site_rng("cmd/mmio"),
                self.mmio_resp_drop_rate, budget,
            )
        from repro.memory.reader import Reader

        for system in design.systems:
            for ecore in system.cores:
                key = (ecore.system_id, ecore.core_id)
                for master in ecore.ctx.masters():
                    if isinstance(master, Reader):  # only a Reader sees err beats
                        master._fault_state = state
                        master._fault_key = key
                if self.core_hang_rate > 0:
                    self._maybe_install_hang(state, ecore)
        return state

    def _maybe_install_hang(self, state: "FaultState", ecore) -> None:
        """Draw and (maybe) install one hang window on ``ecore``.

        The wrapper suppresses ``tick`` during [start, end) and teaches
        ``next_event`` to sleep to the hang end (or :data:`NEVER` for a
        permanent wedge), while never letting the core sleep *into* unfired
        pre-hang work.  Suppression depends only on the cycle number, so all
        scheduling modes see identical behaviour; the fault event is logged
        at compile time because a wedged core may never be ticked at its
        hang-start cycle under compiled scheduling.
        """
        site = f"core/{ecore.path}"
        rng = self.site_rng(site)
        if rng.random() >= self.core_hang_rate:
            return
        start = rng.randrange(max(self.core_hang_window, 1))
        end = start + self.core_hang_cycles if self.core_hang_cycles > 0 else None
        core = ecore.core
        orig_tick = core.tick
        orig_next = core.next_event
        state.inject(
            start, site, "core_hang",
            f"end={'never' if end is None else end}",
        )

        def tick(cycle: int, _orig=orig_tick) -> None:
            if cycle >= start and (end is None or cycle < end):
                return  # wedged: commands and data pile up outside the core
            _orig(cycle)

        def next_event(cycle: int, _orig=orig_next):
            if cycle >= start and (end is None or cycle < end):
                return NEVER if end is None else float(end)
            return _orig(cycle)

        core.tick = tick
        core.next_event = next_event


class FaultState:
    """Shared runtime state of a compiled plan: schedule log, poison, metrics.

    ``fault/*`` counters are *stable* metrics: injection sites process
    identical event streams under all scheduling modes, so the counts (like
    every other stable metric) are mode-independent and participate in the
    differential harness's bit-identical comparison.
    """

    _state = ("events", "_poison", "counts")

    def __init__(self, plan: FaultPlan, registry) -> None:
        self.plan = plan
        self.events: List[FaultEvent] = []
        self._poison: Dict[Tuple[int, int], List[FaultEvent]] = {}
        self.counts = dict.fromkeys(FAULT_KINDS, 0)
        scope = registry.scope("fault")
        for kind in FAULT_KINDS:
            scope.bind(kind, lambda kind=kind: self.counts[kind])

    # ------------------------------------------------------------- logging
    def _log(self, cycle: int, site: str, kind: str, detail: str) -> FaultEvent:
        ev = FaultEvent(int(cycle), site, kind, detail)
        self.events.append(ev)
        self.counts[kind] += 1
        return ev

    def inject(self, cycle: int, site: str, kind: str, detail: str = "") -> FaultEvent:
        return self._log(cycle, site, kind, detail)

    def mark_detected(
        self, key: Optional[Tuple[int, int]], cycle: int, site: str, detail: str = ""
    ) -> None:
        """A consumer saw an ``err`` beat: poison ``key``'s in-flight command."""
        ev = self._log(cycle, site, "detected", detail)
        if key is not None:
            self._poison.setdefault(key, []).append(ev)

    def note_recovery(self, cycle: int, site: str, detail: str = "") -> None:
        self._log(cycle, site, "recovered", detail)

    def take_poison(self, key: Tuple[int, int]) -> List[FaultEvent]:
        """Pop (and clear) the poison accumulated against ``key``."""
        return self._poison.pop(key, [])

    def fingerprint(self) -> str:
        """Stable hash of the realised fault schedule (cycle/site/kind/detail)."""
        h = hashlib.sha256()
        for ev in self.events:
            h.update(f"{ev.cycle}:{ev.site}:{ev.kind}:{ev.detail}\n".encode())
        return h.hexdigest()[:16]


def _flip_one_bit(data: bytes, rng: random.Random) -> Tuple[bytes, int]:
    bit = rng.randrange(max(len(data), 1) * 8)
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped), bit


class DramReadFaultHook:
    """Bit-flips column reads inside the DRAM controller."""

    _state = ("rng", "budget")

    def __init__(self, state: FaultState, site: str, rng, rate: float, budget: int) -> None:
        self.state = state
        self.site = site
        self.rng = rng
        self.rate = rate
        self.budget = budget

    def filter_read(self, cycle: int, addr: int, data: bytes) -> Tuple[bytes, bool]:
        if self.budget <= 0 or self.rng.random() >= self.rate:
            return data, False
        self.budget -= 1
        data, bit = _flip_one_bit(data, self.rng)
        self.state.inject(cycle, self.site, "dram_flip", f"addr={addr:#x} bit={bit}")
        return data, True


class AxiNodeFaultHook:
    """Corrupts or drops R beats and drops B responses at one NoC node."""

    _state = ("rng", "budget")

    def __init__(
        self,
        state: FaultState,
        site: str,
        rng,
        corrupt_rate: float,
        drop_rate: float,
        b_drop_rate: float,
        budget: int,
    ) -> None:
        self.state = state
        self.site = site
        self.rng = rng
        self.corrupt_rate = corrupt_rate
        self.drop_rate = drop_rate
        self.b_drop_rate = b_drop_rate
        self.budget = budget

    def filter_r(self, cycle: int, axi_id: int, beat):
        """The payload to forward for ``beat`` routed on ``axi_id``: ``beat``
        itself, a corrupted copy with ``err`` set, or ``None`` (dropped)."""
        if self.budget <= 0:
            return beat
        draw = self.rng.random()
        # Details carry the (stable) local AXI id, never the transaction
        # tag: tags come from a process-global counter, so they differ from
        # build to build and would break cross-mode fingerprint equality.
        if draw < self.drop_rate:
            self.budget -= 1
            self.state.inject(cycle, self.site, "r_drop", f"id={axi_id}")
            return None
        if draw < self.drop_rate + self.corrupt_rate:
            self.budget -= 1
            data, bit = _flip_one_bit(beat.data, self.rng)
            self.state.inject(
                cycle, self.site, "r_corrupt", f"id={axi_id} bit={bit}"
            )
            return beat._replace(data=data, err=True)
        return beat

    def drop_b(self, cycle: int, axi_id: int) -> bool:
        if self.budget <= 0 or self.rng.random() >= self.b_drop_rate:
            return False
        self.budget -= 1
        self.state.inject(cycle, self.site, "b_drop", f"id={axi_id}")
        return True


class MmioFaultHook:
    """Eats whole responses at the MMIO frontend (lost interrupt model)."""

    _state = ("rng", "budget")

    def __init__(self, state: FaultState, site: str, rng, rate: float, budget: int) -> None:
        self.state = state
        self.site = site
        self.rng = rng
        self.rate = rate
        self.budget = budget

    def drop_response(self, cycle: int, resp) -> bool:
        if self.budget <= 0 or self.rng.random() >= self.rate:
            return False
        self.budget -= 1
        self.state.inject(
            cycle, self.site, "mmio_resp_drop",
            f"core=({resp.system_id},{resp.core_id})",
        )
        return True
