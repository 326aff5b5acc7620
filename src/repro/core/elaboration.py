"""SoC elaboration: from configurations to a simulatable, costed design.

This is the heart of the reproduction — the code path that plays the role of
Beethoven's Chisel elaboration:

1. construct every System's cores and their declared memory primitives;
2. estimate per-core resources and floorplan cores onto SLRs;
3. map each core's on-chip memories to BRAM/URAM (80% spill rule) or, on
   ASIC targets, compile them to SRAM macros;
4. build the SLR-aware memory tree network from every Reader/Writer port to
   the DDR controller, and the command network from the MMIO frontend to
   every core;
5. produce the resource, floorplan and routability reports, and register
   everything with a cycle simulator at the first use of ``design.sim``
   (a handle, the metric registry, a snapshot): most design points a
   composer builds are only costed, never simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.axi.monitor import AxiMonitor, MonitoredAxiPort
from repro.axi.types import AxiPort
from repro.command.router import CommandRouter, CoreCommandAdapter, MmioFrontend
from repro.core.accelerator import AcceleratorCore
from repro.core.config import (
    AcceleratorConfig,
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
from repro.noc.tree import BuiltNetwork, TreeBuilder
from repro.platforms.base import Platform
from repro.sim import DEFAULT_SCHEDULING, Simulator, Tracer


@dataclass
class ElaboratedCore:
    """One placed core instance plus its plumbing."""

    system_id: int
    core_id: int
    core: AcceleratorCore
    ctx: CoreContext
    adapter: CoreCommandAdapter
    slr: int = 0
    resources: ResourceVector = field(default_factory=ResourceVector)
    primitive_resources: Dict[str, ResourceVector] = field(default_factory=dict)
    memories: List[Tuple[str, HdlMemory]] = field(default_factory=list)

    @property
    def path(self) -> str:
        return f"{self.ctx.system_name}/core{self.core_id}"


@dataclass
class ElaboratedSystem:
    config: AcceleratorConfig
    system_id: int
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
        tracer: Optional[Tracer] = None,
        fast_forward: bool = True,
        observability: Optional["Observability"] = None,
        scheduling: Optional[str] = None,
        faults=None,
        watchdog=None,
        distributed=None,
    ) -> None:
        from repro.obs import CommandSpanTracker, Observability

        self.platform = platform
        self.configs = as_config_list(configs)
        # ``distributed=`` shards the design across partition simulators at
        # SLR-bridge boundaries (repro.dist).  Accepts a DistConfig or a
        # plain worker count.
        if distributed is not None:
            from repro.dist import DistConfig, DistError

            if isinstance(distributed, bool) or (
                not isinstance(distributed, (int, DistConfig))
            ):
                raise DistError(
                    "distributed= expects a DistConfig or a worker count, "
                    f"got {type(distributed).__name__}"
                )
            if isinstance(distributed, int):
                distributed = DistConfig(n_workers=distributed)
        self.dist_config = distributed
        self.dist_plan = None
        self.root_sim = None
        # Metrics are always collected; the Observability config gates span
        # tracking, the wall-clock profiler, and trace ring-buffer caps.
        self.observability = (
            observability
            if observability is not None
            else Observability(profile=False)
        )
        self.tracer = tracer or Tracer(max_events=self.observability.max_events)
        # Span tracking follows one command across the server, adapter and
        # memory ports — a lifecycle that spans partitions in a sharded
        # build, so it is forced off there (documented in DESIGN.md).
        self.span_tracker = (
            CommandSpanTracker(self.tracer)
            if self.observability.enabled and self.dist_config is None
            else None
        )
        # Built designs default to the compiled schedule (the tick program
        # itself is only built at the first ``run()``): every framework
        # component declares wake channels and hints, and unhinted user
        # cores are still ticked every cycle.  ``scheduling`` names any of
        # ``SCHEDULING_MODES`` explicitly, e.g. for the differential
        # harness; ``fast_forward=False`` keeps its legacy meaning of plain
        # naive stepping.
        if scheduling is None:
            scheduling = DEFAULT_SCHEDULING if fast_forward else "naive"
        self._sim = Simulator(
            "beethoven",
            tracer=self.tracer,
            profile=self.observability.profile,
            scheduling=scheduling,
        )
        # Set at the wiring point below; until then a read of ``sim`` (the
        # fault plan's registry) sees the bare simulator.
        self._wire_pending = False
        self.estimator = ResourceEstimator()
        self.systems: List[ElaboratedSystem] = []
        self.memcell_mapper: Optional[MemcellMapper] = None
        self.macro_plans: List[Tuple[str, object]] = []
        self.placement: Optional[Placement] = None
        self.network: Optional[BuiltNetwork] = None
        self._broadcasts: List = []
        self.routability: Optional[RoutabilityReport] = None
        self.report = ResourceReport()

        self._build_cores()
        self._wire_intra_core_links()
        self._estimate_core_resources()
        self._floorplan()
        self._map_memories()
        # Default watchdog policy handed to FpgaHandle (None = disabled).
        self.watchdog = watchdog
        #: FaultState of the compiled FaultPlan (None when no plan was given).
        self.faults = None

        self._build_memory_network()
        if self.dist_config is not None:
            from repro.dist import plan_partitions

            self.dist_plan = plan_partitions(self, self.dist_config)
        self._build_command_network()
        self._wire_observability()
        self._compile_faults(faults)
        # The wiring point.  A single-process design registers its netlist at
        # the first read of ``sim``; a sharded one wires now, so the
        # DistSimulator below validates (and may refuse) in the constructor.
        if self.dist_plan is None:
            self._wire_pending = True
        else:
            self._register_all()
        self._finalise_report()
        self._check_routability()
        if self.dist_plan is not None:
            from repro.dist import DistSimulator

            # From here on the design drives like any other: ``self.sim`` is
            # the slice/barrier supervisor, the single-process kernel stays
            # reachable as ``root_sim`` (partition 0).
            self.root_sim = self._sim
            self._sim = DistSimulator(
                self.dist_plan, self.part_sims, self.dist_config,
                fault_state=self.faults,
            )

    # ------------------------------------------------------------------ cores
    def _build_cores(self) -> None:
        for system_id, config in enumerate(self.configs):
            system = ElaboratedSystem(config, system_id)
            for core_id in range(config.n_cores):
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
                adapter = CoreCommandAdapter(
                    system_id, core_id, ctx.ios, self.platform.addr_bits
                )
                system.cores.append(ElaboratedCore(system_id, core_id, core, ctx, adapter))
            self.systems.append(system)

    def _wire_intra_core_links(self) -> None:
        by_name = {s.config.name: s for s in self.systems}
        for system in self.systems:
            for cfg in system.config.memory_channel_config:
                if not isinstance(cfg, IntraCoreMemoryPortOutConfig):
                    continue
                target_system = by_name.get(cfg.to_system)
                if target_system is None:
                    raise ValueError(
                        f"intra-core port {cfg.name!r} targets unknown system "
                        f"{cfg.to_system!r}"
                    )
                for ecore in system.cores:
                    out_links = ecore.ctx.intra_out[cfg.name]
                    tgt_core = target_system.cores[
                        ecore.core_id % len(target_system.cores)
                    ]
                    in_mem = tgt_core.ctx.intra_in.get(cfg.to_memory_port)
                    if in_mem is None:
                        raise ValueError(
                            f"intra-core port {cfg.name!r} targets unknown memory "
                            f"port {cfg.to_memory_port!r} on {cfg.to_system!r}"
                        )
                    in_cfg = target_system.config.channel(cfg.to_memory_port)
                    if getattr(in_cfg, "comm_degree", "point_to_point") == "broadcast":
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
                        for i, link in enumerate(out_links):
                            link.chan = in_mem.links[i % len(in_mem.links)].chan

    # ------------------------------------------------------------ resources
    def _core_memories(self, ecore: ElaboratedCore) -> List[Tuple[str, HdlMemory]]:
        mems: List[Tuple[str, HdlMemory]] = []
        ctx = ecore.ctx
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

    def _estimate_core_resources(self) -> None:
        est = self.estimator
        for system in self.systems:
            for ecore in system.cores:
                ctx = ecore.ctx
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
                kernel = ecore.core.kernel_resources()
                if kernel is not None:
                    breakdown["kernel"] = kernel
                ecore.memories = self._core_memories(ecore)
                ecore.primitive_resources = breakdown
                total = ResourceVector()
                for vec in breakdown.values():
                    total = total + vec
                ecore.resources = total

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

    # ------------------------------------------------------------- networks
    def _build_memory_network(self) -> None:
        params = self.platform.axi_params
        slave_port = AxiPort(params, "ddr", depth=8)
        self.monitor = AxiMonitor("ddr", self.tracer)
        self.mem_mport = MonitoredAxiPort(slave_port, self.monitor)
        self.controller = MemoryController(self.mem_mport, self.platform.dram_timing)
        endpoints: List[Tuple[AxiPort, int]] = []
        child_bits = 1
        for system in self.systems:
            for ecore in system.cores:
                for port in ecore.ctx.all_axi_masters():
                    endpoints.append((port, ecore.slr))
                    child_bits = max(child_bits, port.params.id_bits)
        if not endpoints:
            self.network = None
            return
        builder = TreeBuilder(self.platform.tree_config, endpoints[0][0].params)
        root_slr = (
            self.platform.device.memory_interface_slr if self.platform.device else 0
        )
        self.network = builder.build(endpoints, self.mem_mport, child_bits, root_slr)
        self.n_memory_interfaces = len(endpoints)

    def _build_command_network(self) -> None:
        self.router = CommandRouter()
        self.mmio = MmioFrontend(self.router)
        proxies = self.dist_plan.proxies if self.dist_plan is not None else {}
        for system in self.systems:
            for ecore in system.cores:
                latency = self.platform.command_latency_for(ecore.slr)
                # In a sharded build, cores on non-root SLRs are commanded
                # through a root-partition proxy; the command bridge adds the
                # SLR-crossing hop on top of the stock attach latency.
                proxy = proxies.get((ecore.system_id, ecore.core_id))
                self.router.attach(proxy if proxy is not None else ecore.adapter, latency)

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
                ctx = ecore.ctx
                masters = [r for rs in ctx.readers.values() for r in rs]
                masters += [w for ws in ctx.writers.values() for w in ws]
                masters += [
                    sp.reader
                    for sp in ctx.scratchpads.values()
                    if sp.reader is not None
                ]
                for master in masters:
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
        """The cycle simulator, with the netlist registered on first use.

        Everything that drives or reads the design goes through here — the
        runtime handle, the metric registry, snapshots, the serving layer —
        so resource-only callers (sweeps, feasibility searches) never pay for
        ``Simulator.add``/``register_channel``.
        """
        if self._wire_pending:
            self._wire_pending = False
            self._register_all()
        return self._sim

    def _register_all(self) -> None:
        if self.dist_plan is not None:
            from repro.dist import register_partitioned

            self.part_sims = [self._sim] + [
                Simulator(f"part{p}", scheduling=self._sim.scheduling)
                for p in range(1, self.dist_plan.n_partitions)
            ]
            register_partitioned(self, self.dist_plan, self.part_sims)
            return
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
        if self.network is not None:
            for comp in self.network.components:
                from repro.noc.axi_node import AxiBufferNode, AxiPipe

                if isinstance(comp, AxiBufferNode):
                    vec = est.noc_node(len(comp.upstreams), beat)
                elif isinstance(comp, AxiPipe):
                    vec = est.slr_pipe(beat, comp.latency)
                else:
                    vec = est.noc_node(1, beat).scaled(0.5)  # id compressor
                interconnect = interconnect + vec
            for slr, count in self.network.nodes_per_slr.items():
                share = count / max(self.network.n_nodes, 1)
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
        net = self.network
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
    def core(self, system_name: str, core_id: int = 0) -> ElaboratedCore:
        for system in self.systems:
            if system.config.name == system_name:
                return system.cores[core_id]
        raise KeyError(f"no system {system_name!r}")

    def all_cores(self) -> List[ElaboratedCore]:
        return [c for s in self.systems for c in s.cores]

    # -------------------------------------------------------------- exports
    @property
    def registry(self):
        """The design-wide metric registry (owned by the simulator)."""
        return self.sim.registry

    def metrics(self, prefix: Optional[str] = None, stable_only: bool = False):
        return self.sim.registry.dump(prefix, stable_only=stable_only)

    def metrics_report(self, prefix: Optional[str] = None) -> str:
        return self.sim.registry.render_report(prefix)

    def export_metrics(self, path: str, prefix: Optional[str] = None):
        from repro.obs.export import export_metrics

        return export_metrics(path, self.sim.registry, prefix)

    def chrome_trace(self):
        from repro.obs.attribution import counter_track_events
        from repro.obs.export import chrome_trace

        return chrome_trace(
            self.tracer,
            [self.monitor],
            extra_events=counter_track_events([self.monitor]),
        )

    def export_chrome_trace(self, path: str):
        from repro.obs.attribution import counter_track_events
        from repro.obs.export import export_chrome_trace

        return export_chrome_trace(
            path,
            self.tracer,
            [self.monitor],
            extra_events=counter_track_events([self.monitor]),
        )

    def profile_report(self, top: int = 0) -> str:
        from repro.obs.profiler import render_profile_report

        # In a sharded build the wall-clock profiler only covers partition 0.
        return render_profile_report(getattr(self.sim, "root", self.sim), top=top)

    def attribution_report(self, by_tenant: bool = False):
        """Cycle-attribution rollup (see :mod:`repro.obs.attribution`).

        ``by_tenant=True`` adds a per-tenant rollup keyed on the serving
        layer's tenant span tags.
        """
        from repro.obs.attribution import attribution_report

        return attribution_report(
            self.tracer,
            [self.monitor],
            registry=self.sim.registry,
            cycles=self.sim.cycle,
            timing=self.platform.dram_timing,
            by_tenant=by_tenant,
        )

    def attribution_report_text(self) -> str:
        from repro.obs.attribution import render_attribution_report

        return render_attribution_report(self.attribution_report())

    def export_attribution(self, path: str, by_tenant: bool = False):
        """Write the attribution rollup as JSON; returns the report dict."""
        import json

        report = self.attribution_report(by_tenant=by_tenant)
        with open(path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True, default=float)
        return report
