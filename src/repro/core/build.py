"""``BeethovenBuild`` — the user entry point (paper Figure 3a).

Elaborates an accelerator configuration for a platform and exposes every
generated artefact: the simulatable design, the structural Verilog, the
placement constraints, the C++ host bindings and the reports.  The build
modes mirror the paper's flows:

* ``Simulation`` — elaborate for the cycle simulator (Verilator/DRAMsim3
  role); the returned design is ready for :class:`repro.runtime.FpgaHandle`,
  which wires the simulator at first use.
* ``Synthesis`` — additionally runs the feasibility model (floorplan,
  memcell mapping, routability) and refuses designs that would not route.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Union

from repro.core.config import AcceleratorConfig, as_config_list
from repro.core.elaboration import ElaboratedDesign
from repro.obs.config import Observability
from repro.platforms.base import Platform
from repro.sim import DEFAULT_SCHEDULING, Tracer


class BuildMode(enum.Enum):
    Simulation = "simulation"
    Synthesis = "synthesis"


class InfeasibleDesignError(RuntimeError):
    """Raised in Synthesis mode when the design would not place/route.

    ``design`` is the rejected :class:`ElaboratedDesign`, so a caller can
    ask what binds without elaborating the same point again.
    """

    def __init__(self, message: str, design: Optional[ElaboratedDesign] = None) -> None:
        super().__init__(message)
        self.design = design


class BeethovenBuild:
    """Elaborate a configuration onto a platform and collect the artefacts."""

    def __init__(
        self,
        configs: Union[AcceleratorConfig, Sequence[AcceleratorConfig]],
        platform: Platform,
        build_mode: BuildMode = BuildMode.Simulation,
        tracer: Optional[Tracer] = None,
        observability: Optional["Observability"] = None,
        scheduling: str = DEFAULT_SCHEDULING,
        faults=None,
        watchdog=None,
        distributed=None,
    ) -> None:
        self.platform = platform
        self.build_mode = build_mode
        self.configs = as_config_list(configs)
        self.design = ElaboratedDesign(
            self.configs,
            platform,
            tracer,
            observability=observability,
            scheduling=scheduling,
            faults=faults,
            watchdog=watchdog,
            distributed=distributed,
        )
        if build_mode is BuildMode.Synthesis:
            report = self.design.routability
            if report is not None and not report.feasible:
                raise InfeasibleDesignError(
                    "design fails the place/route feasibility model: "
                    + "; ".join(report.reasons),
                    self.design,
                )

    # ------------------------------------------------------------- artefacts
    # The generators load only when an artefact is asked for: a build that
    # is only simulated or costed never imports them.
    def emit_verilog(self) -> str:
        from repro.hdl.verilog import emit_design

        return emit_design(self.hdl_top())

    def hdl_top(self):
        from repro.core.hdlgen import build_hdl

        return build_hdl(self.design)

    def emit_constraints(self) -> str:
        return self.design.emit_constraints()

    def emit_cpp_header(self) -> str:
        from repro.codegen.cpp import generate_header

        return generate_header(self.design)

    def emit_chipkit_top(self):
        """ASIC flow: wrap the fabric with the user's licensed CPU."""
        from repro.asic.chipkit import ChipKitIntegration

        m0_path = getattr(self.platform, "m0_source_path", None)
        integration = ChipKitIntegration(m0_source_path=m0_path or "")
        return integration.build_top(self.hdl_top())

    # ---------------------------------------------------------- observability
    @property
    def registry(self):
        """Design-wide metric registry (see :mod:`repro.obs`)."""
        return self.design.registry

    def metrics(self, prefix=None, stable_only: bool = False):
        return self.design.metrics(prefix, stable_only=stable_only)

    def metrics_report(self, prefix=None) -> str:
        return self.design.metrics_report(prefix)

    def export_metrics(self, path: str, prefix=None):
        return self.design.export_metrics(path, prefix)

    def chrome_trace(self):
        return self.design.chrome_trace()

    def export_chrome_trace(self, path: str):
        """Write a Perfetto-loadable (ui.perfetto.dev) trace JSON file."""
        return self.design.export_chrome_trace(path)

    def profile_report(self, top: int = 0) -> str:
        return self.design.profile_report(top=top)

    def attribution_report(self, by_tenant: bool = False):
        """Cycle-attribution rollup (see :mod:`repro.obs.attribution`)."""
        return self.design.attribution_report(by_tenant=by_tenant)

    def attribution_report_text(self) -> str:
        return self.design.attribution_report_text()

    def export_attribution(self, path: str, by_tenant: bool = False):
        return self.design.export_attribution(path, by_tenant=by_tenant)

    # ---------------------------------------------------------------- reports
    @property
    def resource_report(self):
        return self.design.report

    @property
    def placement(self):
        return self.design.placement

    @property
    def routability(self):
        return self.design.routability

    def summary(self) -> str:
        """One-paragraph human summary of the build."""
        d = self.design
        n_cores = sum(len(s.cores) for s in d.systems)
        lines = [
            f"Beethoven build: {len(d.systems)} system(s), {n_cores} core(s) "
            f"on {self.platform.name}",
        ]
        if d.noc_plan is not None:
            lines.append(
                f"  memory network: {d.n_memory_interfaces} interfaces, "
                f"{d.noc_plan.n_nodes} nodes, {d.noc_plan.n_pipes} SLR bridges"
            )
        if getattr(d, "dist_plan", None) is not None:
            desc = d.dist_plan.descriptor()
            lines.append(
                f"  sharded: {desc.n_workers} partitions, slice width "
                f"{desc.slice_width}, {len(desc.cut_set)} cut bridges"
            )
        if d.placement is not None and self.platform.device is not None:
            per_slr = {
                slr: len(d.placement.cores_on(slr))
                for slr in range(self.platform.device.n_slrs)
            }
            lines.append(f"  floorplan: cores per SLR {per_slr}")
        if d.routability is not None:
            verdict = "routable" if d.routability.feasible else "NOT routable"
            lines.append(
                f"  feasibility: {verdict} (worst util {d.routability.worst_util:.1%})"
            )
        return "\n".join(lines)
