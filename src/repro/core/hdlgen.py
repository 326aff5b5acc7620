"""HDL IR construction for an elaborated design.

Builds the structural module hierarchy Beethoven would emit: the top level
contains the MMIO frontend, the command router, the memory network nodes and
one module per System containing its Cores; each Core module contains the
user kernel stub plus the generated Readers/Writers/Scratchpads with their
(mapped) memories.  The emitted Verilog is a structural netlist with
behavioural bodies summarised — see DESIGN.md for the fidelity statement.
"""

from __future__ import annotations

from typing import Dict

from repro.hdl.ir import HdlModule, sanitize


def _reader_module(name: str, data_bytes: int, axi_beat_bytes: int) -> HdlModule:
    mod = HdlModule(sanitize(f"reader_{name}"), doc="Beethoven Reader (prefetching, TLP)")
    mod.add_port("clk", "input")
    mod.add_port("req_valid", "input")
    mod.add_port("req_ready", "output")
    mod.add_port("req_addr", "input", 64)
    mod.add_port("req_len", "input", 32)
    mod.add_port("data_valid", "output")
    mod.add_port("data_ready", "input")
    mod.add_port("data_bits", "output", data_bytes * 8)
    for ch, d in (("ar", "output"), ("r", "input")):
        mod.add_port(f"axi_{ch}_valid", d)
        mod.add_port(f"axi_{ch}_ready", "input" if d == "output" else "output")
    mod.add_port("axi_r_bits", "input", axi_beat_bytes * 8)
    return mod


def _writer_module(name: str, data_bytes: int, axi_beat_bytes: int) -> HdlModule:
    mod = HdlModule(sanitize(f"writer_{name}"), doc="Beethoven Writer (TLP)")
    mod.add_port("clk", "input")
    mod.add_port("req_valid", "input")
    mod.add_port("req_ready", "output")
    mod.add_port("req_addr", "input", 64)
    mod.add_port("req_len", "input", 32)
    mod.add_port("data_valid", "input")
    mod.add_port("data_ready", "output")
    mod.add_port("data_bits", "input", data_bytes * 8)
    mod.add_port("done_valid", "output")
    for ch in ("aw", "w", "b"):
        mod.add_port(f"axi_{ch}_valid", "output" if ch != "b" else "input")
        mod.add_port(f"axi_{ch}_ready", "input" if ch != "b" else "output")
    mod.add_port("axi_w_bits", "output", axi_beat_bytes * 8)
    return mod


def build_hdl(design) -> HdlModule:
    """Construct the HDL hierarchy for an :class:`ElaboratedDesign`."""
    platform = design.platform
    beat = platform.axi_params.beat_bytes
    top = HdlModule(
        sanitize(f"beethoven_top_{platform.name}"),
        doc=f"Beethoven accelerator top for platform {platform.name}",
    )
    top.add_port("clk", "input")
    top.add_port("rst_n", "input")
    # External memory interface.
    for port_name, width, direction in (
        ("m_axi_ar", 64, "output"),
        ("m_axi_r", beat * 8, "input"),
        ("m_axi_aw", 64, "output"),
        ("m_axi_w", beat * 8, "output"),
        ("m_axi_b", 2, "input"),
    ):
        top.add_port(port_name, direction, width)
    # Host MMIO interface.
    top.add_port("s_mmio_awaddr", "input", 32)
    top.add_port("s_mmio_wdata", "input", 32)
    top.add_port("s_mmio_rdata", "output", 32)

    mmio = HdlModule("mmio_frontend", doc="AXI-MMIO command/response system")
    mmio.add_port("clk", "input")
    top.instantiate(mmio, "u_mmio", {"clk": "clk"})
    router = HdlModule("command_router", doc="SLR-aware command routing network")
    router.add_port("clk", "input")
    top.instantiate(router, "u_cmd_router", {"clk": "clk"})

    module_cache: Dict[str, HdlModule] = {}
    for system in design.systems:
        sys_mod = HdlModule(
            sanitize(f"system_{system.config.name}"),
            doc=f"Beethoven System {system.config.name!r} ({len(system.cores)} cores)",
        )
        sys_mod.add_port("clk", "input")
        # Every core of a System is built from its template, so the plan's
        # core 0 describes them all: emitting instantiates nothing.
        kernel_class = type(system.template_core).__name__
        ctx = system.template_ctx
        for ecore in system.cores:
            core_mod = HdlModule(
                sanitize(f"core_{system.config.name}_{ecore.core_id}"),
                doc=f"Core {ecore.core_id} of system {system.config.name!r}",
            )
            core_mod.add_port("clk", "input")
            core_mod.attrs["slr"] = ecore.slr
            kernel = HdlModule(
                sanitize(f"kernel_{system.config.name}"),
                doc=f"User kernel logic ({kernel_class})",
            )
            kernel.add_port("clk", "input")
            if kernel.name not in module_cache:
                module_cache[kernel.name] = kernel
            core_mod.instantiate(module_cache[kernel.name], "u_kernel", {"clk": "clk"})
            for rname, readers in ctx.readers.items():
                for i, r in enumerate(readers):
                    rmod_name = sanitize(f"reader_{system.config.name}_{rname}")
                    if rmod_name not in module_cache:
                        module_cache[rmod_name] = _reader_module(
                            f"{system.config.name}_{rname}", r.data_bytes, beat
                        )
                    core_mod.instantiate(
                        module_cache[rmod_name], f"u_{rname}_{i}", {"clk": "clk"}
                    )
            for wname, writers in ctx.writers.items():
                for i, w in enumerate(writers):
                    wmod_name = sanitize(f"writer_{system.config.name}_{wname}")
                    if wmod_name not in module_cache:
                        module_cache[wmod_name] = _writer_module(
                            f"{system.config.name}_{wname}", w.data_bytes, beat
                        )
                    core_mod.instantiate(
                        module_cache[wmod_name], f"u_{wname}_{i}", {"clk": "clk"}
                    )
            for _name, mem in ecore.memories:
                core_mod.add_memory(mem)
            sys_mod.instantiate(core_mod, f"u_core{ecore.core_id}", {"clk": "clk"})
        top.instantiate(sys_mod, f"u_{sanitize(system.config.name)}", {"clk": "clk"})

    plan = design.noc_plan
    if plan is not None:
        noc = HdlModule(
            "memory_noc",
            doc=(
                f"Generated memory network: {plan.n_nodes} buffer nodes, "
                f"{plan.n_pipes} SLR bridges, depth {plan.depth}"
            ),
        )
        noc.add_port("clk", "input")
        top.instantiate(noc, "u_memory_noc", {"clk": "clk"})
    return top

