"""SoC elaboration: from configurations to a costed, then simulatable, design.

This is the heart of the reproduction — the code path that plays the role of
Beethoven's Chisel elaboration.  It runs in two parts.

The **plan**, made by the constructor, is everything costing reads:

1. construct core 0 of every System as its *template* (the user's
   ``module_constructor``, the type and command-IO checks,
   ``kernel_resources()``) and cost every core of the System from it — a
   System is N identical cores;
2. floorplan the cores onto SLRs;
3. map each core's on-chip memories to BRAM/URAM (80% spill rule) or, on
   ASIC targets, compile them to SRAM macros;
4. decide the SLR-aware memory tree (:func:`repro.noc.tree.plan_tree`);
5. produce the resource, floorplan and routability reports.

:meth:`ElaboratedDesign.instantiate` then builds the live model from the
plan: cores 1…N−1, command adapters, intra-core links, the DDR controller,
the NoC components, the command network and the observability wiring.  It
runs once, at the first read of ``design.sim`` or of any live attribute
(``design.network``, ``design.controller``, ``ecore.core``/``ctx``/
``adapter``, …): most design points a composer builds are only costed, never
simulated.  The netlist is registered with the simulator at the first read
of ``design.sim``.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.axi.monitor import AxiMonitor, MonitoredAxiPort
from repro.axi.types import AxiPort
from repro.command.router import CommandRouter, CoreCommandAdapter, MmioFrontend
from repro.core.accelerator import AcceleratorCore
from repro.core.config import (
    AcceleratorConfig,
    IntraCoreMemoryPortInConfig,
    IntraCoreMemoryPortOutConfig,
    ReadChannelConfig,
    ScratchpadConfig,
    WriteChannelConfig,
    as_config_list,
)
from repro.core.context import CoreContext
from repro.dram.controller import MemoryController
from repro.fpga.device import ResourceVector
from repro.fpga.floorplan import (
    Floorplanner,
    Placement,
    RoutabilityReport,
    emit_constraints,
    routability_report,
)
from repro.fpga.memcells import MemcellMapper
from repro.fpga.resources import ResourceEstimator
from repro.hdl.ir import HdlMemory
from repro.noc.tree import TreePlan, build_network, plan_tree
from repro.platforms.base import Platform
from repro.sim import DEFAULT_SCHEDULING, Simulator, Tracer

#: ElaboratedCore attributes that exist only once the design is instantiated.
_LIVE_CORE = frozenset({"core", "ctx", "adapter"})
#: ElaboratedDesign attributes that exist only once it is instantiated.
_LIVE_DESIGN = frozenset(
    {"controller", "monitor", "mem_mport", "network", "router", "mmio", "_broadcasts"}
)


class ElaboratedCore:
    """One placed core: its costing record (``path``, ``slr``,
    ``resources``, ``primitive_resources``, ``memories``) and, once the
    design is instantiated, its live model (``core``, ``ctx``, ``adapter``).
    Reading a live attribute instantiates the design."""

    def __init__(
        self,
        design: "ElaboratedDesign",
        system_id: int,
        core_id: int,
        path: str,
        resources: ResourceVector,
        primitive_resources: Dict[str, ResourceVector],
        memories: List[Tuple[str, HdlMemory]],
    ) -> None:
        # Weak, so a costed-only design stays free of reference cycles and
        # is reclaimed as soon as its caller drops it.
        self._design = weakref.ref(design)
        self.system_id = system_id
        self.core_id = core_id
        self.path = path
        self.slr = 0
        self.resources = resources
        self.primitive_resources = primitive_resources
        self.memories = memories

    def __getattr__(self, name: str):
        # Only reached while ``name`` is unset.
        ref = self.__dict__.get("_design")
        if name in _LIVE_CORE and ref is not None:
            design = ref()
            if design is None:
                raise AttributeError(
                    f"{self.path}: {name!r} needs the design instantiated, and "
                    "the design was released first; keep the build alive"
                )
            if not design._instantiated:
                design.instantiate()
                return getattr(self, name)
        raise AttributeError(f"'ElaboratedCore' object has no attribute {name!r}")


@dataclass
class ElaboratedSystem:
    config: AcceleratorConfig
    system_id: int
    #: Core 0's context and model, constructed by the plan; the whole
    #: System is costed from them, and instantiation reuses them as core 0.
    template_ctx: CoreContext
    template_core: AcceleratorCore
    cores: List[ElaboratedCore] = field(default_factory=list)


@dataclass
class ResourceReport:
    """Table-II-style accounting of the elaborated design."""

    per_core: Dict[str, ResourceVector] = field(default_factory=dict)
    per_core_breakdown: Dict[str, Dict[str, ResourceVector]] = field(default_factory=dict)
    interconnect: ResourceVector = field(default_factory=ResourceVector)
    command: ResourceVector = field(default_factory=ResourceVector)
    total: ResourceVector = field(default_factory=ResourceVector)
    with_shell: ResourceVector = field(default_factory=ResourceVector)
    interconnect_per_slr: Dict[int, ResourceVector] = field(default_factory=dict)


class ElaboratedDesign:
    """The output of elaboration; consumed by the runtime and the reports."""

    def __init__(
        self,
        configs,
        platform: Platform,
        observability: Optional["Observability"] = None,
        scheduling: str = DEFAULT_SCHEDULING,
        faults=None,
        watchdog=None,
    ) -> None:
        from repro.obs import CommandSpanTracker, Observability

        self.platform = platform
        self.configs = as_config_list(configs)
        # Metrics are always collected; the Observability config gates span
        # tracking, the wall-clock profiler, and trace ring-buffer caps.
        self.observability = (
            observability if observability is not None else Observability()
        )
        self.tracer = Tracer(max_events=self.observability.max_events)
        # Span tracking follows one command across the server, adapter and
        # memory ports.
        self.span_tracker = (
            CommandSpanTracker(self.tracer) if self.observability.enabled else None
        )
        # Built designs default to the compiled schedule (the tick program
        # itself is only built at the first ``run()``): every framework
        # component declares wake channels and hints, and unhinted user
        # cores are still ticked every cycle.  ``scheduling="naive"`` names
        # the oracle, e.g. for the differential harness.
        self._sim = Simulator(
            "beethoven",
            tracer=self.tracer,
            profile=self.observability.profile,
            scheduling=scheduling,
        )
        # Set at the wiring point below; until then a read of ``sim`` (the
        # fault plan's registry) sees the bare simulator.
        self._wire_pending = False
        self._instantiated = False
        self.estimator = ResourceEstimator()
        self.systems: List[ElaboratedSystem] = []
        self.memcell_mapper: Optional[MemcellMapper] = None
        self.macro_plans: List[Tuple[str, object]] = []
        self.placement: Optional[Placement] = None
        #: The memory tree as planned (None: no core has an AXI master).
        self.noc_plan: Optional[TreePlan] = None
        self.n_memory_interfaces = 0
        self.routability: Optional[RoutabilityReport] = None
        self.report = ResourceReport()
        # Default watchdog policy handed to FpgaHandle (None = disabled).
        self.watchdog = watchdog
        #: FaultState of the compiled FaultPlan (None when no plan was given).
        self.faults = None

        self._plan_cores()
        self._check_intra_core_links()
        self._floorplan()
        self._map_memories()
        self._plan_memory_network()
        # A fault plan hooks into live models, so it instantiates (and may
        # be refused) in the constructor.
        if faults is not None:
            self.instantiate()
        self._compile_faults(faults)
        # The wiring point: the netlist registers at the first read of ``sim``.
        self._wire_pending = True
        self._finalise_report()
        self._check_routability()

    def __getattr__(self, name: str):
        # Only reached while ``name`` is unset.
        if name in _LIVE_DESIGN and not self.__dict__.get("_instantiated", True):
            self.instantiate()
            return getattr(self, name)
        raise AttributeError(f"'ElaboratedDesign' object has no attribute {name!r}")

    # ----------------------------------------------------------------- plan
    def _construct_core(
        self, config: AcceleratorConfig, system_id: int, core_id: int
    ) -> Tuple[CoreContext, AcceleratorCore]:
        ctx = CoreContext(config.name, system_id, core_id, config, self.platform)
        core = config.module_constructor(ctx)
        if not isinstance(core, AcceleratorCore):
            raise TypeError(
                f"module_constructor for {config.name!r} must return an "
                f"AcceleratorCore, got {type(core).__name__}"
            )
        if not ctx.ios:
            raise ValueError(
                f"core {config.name!r} declares no BeethovenIO; the host "
                "could never command it"
            )
        return ctx, core

    def _plan_cores(self) -> None:
        """Construct each System's template core and cost every core from it."""
        for system_id, config in enumerate(self.configs):
            ctx, core = self._construct_core(config, system_id, 0)
            system = ElaboratedSystem(config, system_id, ctx, core)
            breakdown = self._primitive_resources(ctx, core)
            total = ResourceVector()
            for vec in breakdown.values():
                total = total + vec
            shapes = self._core_memories(ctx)
            for core_id in range(config.n_cores):
                system.cores.append(
                    ElaboratedCore(
                        self,
                        system_id,
                        core_id,
                        f"{config.name}/core{core_id}",
                        total,
                        dict(breakdown),
                        # Each core maps its own copies (mapping annotates them).
                        [(name, dataclasses.replace(mem)) for name, mem in shapes],
                    )
                )
            self.systems.append(system)

    def _check_intra_core_links(self) -> None:
        by_name = {c.name: c for c in self.configs}
        for config in self.configs:
            for cfg in config.memory_channel_config:
                if not isinstance(cfg, IntraCoreMemoryPortOutConfig):
                    continue
                target = by_name.get(cfg.to_system)
                if target is None:
                    raise ValueError(
                        f"intra-core port {cfg.name!r} targets unknown system "
                        f"{cfg.to_system!r}"
                    )
                if not any(
                    isinstance(c, IntraCoreMemoryPortInConfig)
                    and c.name == cfg.to_memory_port
                    for c in target.memory_channel_config
                ):
                    raise ValueError(
                        f"intra-core port {cfg.name!r} targets unknown memory "
                        f"port {cfg.to_memory_port!r} on {cfg.to_system!r}"
                    )

    # ------------------------------------------------------------ resources
    def _core_memories(self, ctx: CoreContext) -> List[Tuple[str, HdlMemory]]:
        mems: List[Tuple[str, HdlMemory]] = []
        for cfg in ctx.config.memory_channel_config:
            if isinstance(cfg, ScratchpadConfig):
                depth = cfg.n_datas * (2 if cfg.features.double_buffered else 1)
                mems.append(
                    (
                        cfg.name,
                        HdlMemory(
                            f"{cfg.name}_mem",
                            cfg.data_width_bits,
                            depth,
                            n_read_ports=cfg.n_ports,
                            latency=cfg.latency,
                        ),
                    )
                )
                sp = ctx.scratchpads[cfg.name]
                if sp.reader is not None:
                    tuning = sp.reader.tuning
                    mems.append(
                        (
                            f"{cfg.name}_init_buf",
                            HdlMemory(
                                f"{cfg.name}_init_buf",
                                ctx.platform.axi_params.beat_bytes * 8,
                                tuning.buffer_bytes // ctx.platform.axi_params.beat_bytes,
                            ),
                        )
                    )
            elif isinstance(cfg, ReadChannelConfig):
                for i, reader in enumerate(ctx.readers[cfg.name]):
                    mems.append(
                        (
                            f"{cfg.name}{i}_buf",
                            HdlMemory(
                                f"{cfg.name}{i}_buf",
                                ctx.platform.axi_params.beat_bytes * 8,
                                reader.tuning.buffer_bytes
                                // ctx.platform.axi_params.beat_bytes,
                            ),
                        )
                    )
            elif isinstance(cfg, WriteChannelConfig):
                for i, writer in enumerate(ctx.writers[cfg.name]):
                    mems.append(
                        (
                            f"{cfg.name}{i}_buf",
                            HdlMemory(
                                f"{cfg.name}{i}_buf",
                                ctx.platform.axi_params.beat_bytes * 8,
                                writer.tuning.buffer_bytes
                                // ctx.platform.axi_params.beat_bytes,
                            ),
                        )
                    )
        return mems

    def _primitive_resources(
        self, ctx: CoreContext, core: AcceleratorCore
    ) -> Dict[str, ResourceVector]:
        est = self.estimator
        breakdown: Dict[str, ResourceVector] = {}
        for name, readers in ctx.readers.items():
            for i, r in enumerate(readers):
                breakdown[f"reader.{name}{i}"] = est.reader(
                    r.data_bytes, r.tuning.max_in_flight, r.tuning.n_axi_ids
                )
        for name, writers in ctx.writers.items():
            for i, w in enumerate(writers):
                breakdown[f"writer.{name}{i}"] = est.writer(
                    w.data_bytes, w.tuning.max_in_flight
                )
        for name, sp in ctx.scratchpads.items():
            breakdown[f"scratchpad.{name}"] = est.scratchpad_logic(
                len(sp.ports), sp.data_width_bits
            )
            if sp.reader is not None:
                breakdown[f"scratchpad.{name}.reader"] = est.reader(
                    sp.reader.data_bytes,
                    sp.reader.tuning.max_in_flight,
                    sp.reader.tuning.n_axi_ids,
                )
        breakdown["cmd_adapter"] = est.command_adapter()
        kernel = core.kernel_resources()
        if kernel is not None:
            breakdown["kernel"] = kernel
        return breakdown

    # ------------------------------------------------------------ floorplan
    def _floorplan(self) -> None:
        device = self.platform.device
        all_cores = [c for s in self.systems for c in s.cores]
        if device is None or device.n_slrs == 1:
            self.placement = Placement(
                assignment={c.path: 0 for c in all_cores},
                slr_load={0: sum((c.resources for c in all_cores), ResourceVector())},
            )
            return
        planner = Floorplanner(device)
        # Balance on logic resources only: on-chip memories are mapped after
        # placement and the 80% spill rule lets them move between BRAM and
        # URAM, so they should not skew the logic balance.
        items = [(c.path, c.resources) for c in all_cores]
        self.placement = planner.place(items)
        for c in all_cores:
            c.slr = self.placement.assignment[c.path]

    def _map_memories(self) -> None:
        if self.platform.is_asic:
            from repro.asic.macros import MemoryCompiler

            library = getattr(self.platform, "macro_library", None)
            compiler = MemoryCompiler(library) if library else MemoryCompiler()
            for system in self.systems:
                for ecore in system.cores:
                    for name, mem in ecore.memories:
                        plan = compiler.compile(mem.width_bits, mem.depth)
                        mem.cell_mapping = "SRAM_MACRO"
                        mem.macro_plan = plan
                        self.macro_plans.append((f"{ecore.path}/{name}", plan))
            return
        device = self.platform.device
        if device is None:
            return
        mapper = MemcellMapper(device)
        self.memcell_mapper = mapper
        for system in self.systems:
            for ecore in system.cores:
                for name, mem in ecore.memories:
                    kind = mapper.map_memory(mem, ecore.slr, f"{ecore.path}/{name}")
                    counts = mapper.counts(mem)
                    if kind in ("BRAM", "URAM"):
                        cells = self.estimator.memory_cells(kind, counts[kind])
                    else:
                        cells = self.estimator.memory_cells("LUTRAM", mem.bits)
                    ecore.primitive_resources[f"mem.{name}"] = cells
                    ecore.resources = ecore.resources + cells
        # Refresh the per-SLR loads with the *mapped* cell demand: the spill
        # rule may have moved memories from the preferred cell type the
        # floorplanner estimated with, and the feasibility check must see
        # the real mix (this is what lets 80%-spill designs route).
        if self.placement is not None:
            loads = {slr: ResourceVector() for slr in range(device.n_slrs)}
            for system in self.systems:
                for ecore in system.cores:
                    loads[ecore.slr] = loads[ecore.slr] + ecore.resources
            self.placement.slr_load = loads

    def _plan_memory_network(self) -> None:
        slrs: List[int] = []
        child_bits = 1
        for system in self.systems:
            masters = system.template_ctx.all_axi_masters()
            for port in masters:
                child_bits = max(child_bits, port.params.id_bits)
            for ecore in system.cores:
                slrs += [ecore.slr] * len(masters)
        self.n_memory_interfaces = len(slrs)
        if slrs:
            device = self.platform.device
            root_slr = device.memory_interface_slr if device else 0
            self.noc_plan = plan_tree(self.platform.tree_config, slrs, child_bits, root_slr)

    # ---------------------------------------------------------- instantiate
    def instantiate(self) -> None:
        """Build the live model from the plan; runs once.

        The only code that creates cores 1…N−1 (core 0 is the plan's
        template), the command adapters, intra-core links and broadcasts,
        the DDR controller and monitor, the NoC components, the command
        router and MMIO frontend, and the span-tracker wiring — the same
        objects, with the same names, in the same order, whenever it runs.
        A ``module_constructor`` that fails only for a later core fails
        here (a System is N identical cores; see
        :class:`~repro.core.config.AcceleratorConfig`).
        """
        if self._instantiated:
            return
        self._instantiated = True
        addr_bits = self.platform.addr_bits
        for system in self.systems:
            for ecore in system.cores:
                if ecore.core_id == 0:
                    ecore.ctx, ecore.core = system.template_ctx, system.template_core
                else:
                    ecore.ctx, ecore.core = self._construct_core(
                        system.config, system.system_id, ecore.core_id
                    )
                ecore.adapter = CoreCommandAdapter(
                    system.system_id, ecore.core_id, ecore.ctx.ios, addr_bits
                )
        self._link_intra_core_ports()
        self._build_memory_network()
        self._build_command_network()
        self._wire_observability()

    def _link_intra_core_ports(self) -> None:
        self._broadcasts = []
        by_name = {s.config.name: s for s in self.systems}
        for system in self.systems:
            for cfg in system.config.memory_channel_config:
                if not isinstance(cfg, IntraCoreMemoryPortOutConfig):
                    continue
                target_system = by_name[cfg.to_system]
                in_cfg = target_system.config.channel(cfg.to_memory_port)
                broadcast = getattr(in_cfg, "comm_degree", "point_to_point") == "broadcast"
                for ecore in system.cores:
                    out_links = ecore.ctx.intra_out[cfg.name]
                    if broadcast:
                        # Broadcast: one producer feeds the same-named memory
                        # of EVERY consumer core via a fan-out component.
                        sinks = [
                            c.ctx.intra_in[cfg.to_memory_port] for c in target_system.cores
                        ]
                        from repro.core.intra import IntraCoreBroadcast

                        for i, link in enumerate(out_links):
                            fanout = IntraCoreBroadcast(
                                f"{ecore.path}.{cfg.name}.bcast{i}",
                                [s.links[i % len(s.links)] for s in sinks],
                            )
                            link.chan = fanout.input.chan
                            self._broadcasts.append(fanout)
                    else:
                        tgt_core = target_system.cores[
                            ecore.core_id % len(target_system.cores)
                        ]
                        in_mem = tgt_core.ctx.intra_in[cfg.to_memory_port]
                        for i, link in enumerate(out_links):
                            link.chan = in_mem.links[i % len(in_mem.links)].chan

    def _build_memory_network(self) -> None:
        params = self.platform.axi_params
        slave_port = AxiPort(params, "ddr", depth=8)
        self.monitor = AxiMonitor("ddr")
        self.mem_mport = MonitoredAxiPort(slave_port, self.monitor)
        self.controller = MemoryController(self.mem_mport, self.platform.dram_timing)
        self.network = None
        if self.noc_plan is not None:
            ports = [
                port
                for system in self.systems
                for ecore in system.cores
                for port in ecore.ctx.all_axi_masters()
            ]
            self.network = build_network(self.noc_plan, ports, self.mem_mport)

    def _build_command_network(self) -> None:
        self.router = CommandRouter()
        self.mmio = MmioFrontend(self.router)
        for system in self.systems:
            for ecore in system.cores:
                latency = self.platform.command_latency_for(ecore.slr)
                self.router.attach(ecore.adapter, latency)

    # -------------------------------------------------------- observability
    def _wire_observability(self) -> None:
        """Hand the span tracker to every model on a command's lifecycle path.

        The tracker follows a host command from the runtime server (which is
        attached later, by :class:`repro.runtime.FpgaHandle`) through the
        per-core adapter to the Reader/Writer ports that issue AXI bursts on
        the command's behalf.
        """
        tracker = self.span_tracker
        if tracker is None:
            return
        for system in self.systems:
            for ecore in system.cores:
                key = (ecore.system_id, ecore.core_id)
                tracker.set_track(key, ecore.path)
                ecore.adapter.spans = tracker
                for master in ecore.ctx.masters():
                    master.spans = tracker
                    master.span_key = key

    # ------------------------------------------------------------- faults
    def _compile_faults(self, plan) -> None:
        """Compile a :class:`repro.faults.FaultPlan` into the built models.

        Runs after the networks exist (hooks attach to live components) and
        before the wiring point, so ``fault/*`` counters participate in the
        same registry dumps as everything else, ahead of every component's.
        """
        if plan is None:
            return
        from repro.faults.plan import FaultPlan

        if not isinstance(plan, FaultPlan):
            raise TypeError(
                f"faults= expects a FaultPlan, got {type(plan).__name__}"
            )
        self.faults = plan.compile(self)

    # ------------------------------------------------------------- simulator
    @property
    def sim(self):
        """The cycle simulator, with the design instantiated and its netlist
        registered on first use.

        Everything that drives or reads the design goes through here — the
        runtime handle, the metric registry, snapshots, the serving layer —
        so resource-only callers (sweeps, feasibility searches) never pay for
        the live model or ``Simulator.add``/``register_channel``.
        """
        if self._wire_pending:
            self._wire_pending = False
            self.instantiate()
            self._register_all()
        return self._sim

    def _register_all(self) -> None:
        sim = self._sim
        sim.add(self.controller)
        sim.add(self.monitor)
        for chan in self.mem_mport.port.channels():
            sim.register_channel(chan)
        if self.network is not None:
            self.network.register_with(sim)
        for system in self.systems:
            for ecore in system.cores:
                for comp in ecore.ctx.all_components():
                    sim.add(comp)
                sim.add(ecore.core)
                sim.add(ecore.adapter)
        for bcast in self._broadcasts:
            sim.add(bcast)
        sim.add(self.router)
        sim.add(self.mmio)

    # --------------------------------------------------------------- report
    def _finalise_report(self) -> None:
        rep = self.report
        est = self.estimator
        beat = self.platform.axi_params.beat_bytes
        total = ResourceVector()
        for system in self.systems:
            for ecore in system.cores:
                rep.per_core[ecore.path] = ecore.resources
                rep.per_core_breakdown[ecore.path] = dict(ecore.primitive_resources)
                total = total + ecore.resources
        interconnect = ResourceVector()
        per_slr: Dict[int, ResourceVector] = {}
        plan = self.noc_plan
        if plan is not None:
            for spec in plan.nodes:
                if spec.kind == "node":
                    vec = est.noc_node(len(spec.inputs), beat)
                elif spec.kind == "pipe":
                    vec = est.slr_pipe(beat, spec.latency)
                else:
                    vec = est.noc_node(1, beat).scaled(0.5)  # id compressor
                interconnect = interconnect + vec
            for slr, count in plan.nodes_per_slr.items():
                share = count / max(plan.n_nodes, 1)
                per_slr[slr] = interconnect.scaled(share)
        n_cores = sum(len(s.cores) for s in self.systems)
        command = est.mmio_frontend(n_cores)
        rep.interconnect = interconnect
        rep.interconnect_per_slr = per_slr
        rep.command = command
        rep.total = total + interconnect + command
        shell = ResourceVector()
        if self.platform.device is not None:
            for vec in self.platform.device.shell_usage.values():
                shell = shell + vec
        rep.with_shell = rep.total + shell

    def _check_routability(self) -> None:
        device = self.platform.device
        if device is None or self.placement is None:
            self.routability = RoutabilityReport(feasible=True, score=1.0)
            return
        net = self.noc_plan
        self.routability = routability_report(
            device,
            self.placement,
            interconnect_per_slr=self.report.interconnect_per_slr,
            max_fanout=net.max_fanout if net else 0,
            unbuffered_crossings=0 if (net is None or net.n_pipes or device.n_slrs == 1 or not self._crosses_slrs()) else 1,
            memcells_feasible=self.memcell_mapper.feasible if self.memcell_mapper else True,
            constraints_emitted=True,
        )

    def _crosses_slrs(self) -> bool:
        if self.placement is None:
            return False
        return len({slr for slr in self.placement.assignment.values()}) > 1

    # ---------------------------------------------------------------- emits
    def emit_constraints(self) -> str:
        if self.placement is None or self.platform.device is None:
            return "# single-die platform: no placement constraints\n"
        return emit_constraints(self.placement, self.platform.device)

    # ------------------------------------------------------------- lookups
    def all_cores(self) -> List[ElaboratedCore]:
        return [c for s in self.systems for c in s.cores]

    # ------------------------------------------------------------- registry
    @property
    def registry(self):
        """The design-wide metric registry (owned by the simulator)."""
        return self.sim.registry
