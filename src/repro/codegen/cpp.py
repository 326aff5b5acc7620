"""C++ host-binding generation (paper Figure 3b).

From each core's command/response declarations Beethoven generates a C++
library whose functions take the custom command arguments, pack them onto
RoCC payloads and return ``response_handle<T>`` futures.  We generate the
same header text; the packing layout comments make the platform dependence
visible (an ``Address()`` field widens with the platform's address bits, so
the same declaration yields different bit layouts on different platforms —
the paper's argument for generating this code).
"""

from __future__ import annotations

from typing import List

from repro.command.packing import CommandSpec, Field, ResponseSpec


def _cpp_type(field: Field, addr_bits: int) -> str:
    if field.is_float:
        return "float"
    if field.is_address:
        return "const remote_ptr &"
    width = field.resolved_width(addr_bits)
    for bits in (8, 16, 32, 64):
        if width <= bits:
            return f"uint{bits}_t"
    raise ValueError(f"field {field.name!r} wider than 64 bits")


def _resp_struct_name(system: str, io: str) -> str:
    return f"{system}_{io}_response"


def response_struct(system: str, spec: ResponseSpec, io_name: str) -> str:
    if not spec.fields:
        return ""
    lines = [f"struct {_resp_struct_name(system, io_name)} {{"]
    for f in spec.fields:
        lines.append(f"  {_cpp_type(f, 64)} {f.name};")
    lines.append("};")
    return "\n".join(lines)


def binding_signature(system: str, spec: CommandSpec, resp: ResponseSpec, addr_bits: int) -> str:
    resp_t = _resp_struct_name(system, spec.name) if resp.fields else "bool"
    args = ["int16_t core_idx"]
    for f in spec.fields:
        args.append(f"{_cpp_type(f, addr_bits)} {f.name}")
    arg_text = ",\n    ".join(args)
    return f"response_handle<{resp_t}> {spec.name}(\n    {arg_text})"


def generate_header(design) -> str:
    """Generate the full C++ header for an elaborated design."""
    platform = design.platform
    addr_bits = platform.addr_bits
    out: List[str] = [
        "// Generated by Beethoven (repro) — host bindings",
        f"// platform: {platform.name} (addr_bits={addr_bits})",
        "#pragma once",
        "#include <cstdint>",
        '#include "beethoven/runtime.h"',
        "",
    ]
    for system in design.systems:
        cfg = system.config
        out.append(f"namespace {cfg.name} {{")
        out.append(f"  // {cfg.n_cores} cores")
        for io in system.template_ctx.ios:
            spec = io.command_spec
            resp = io.response_spec
            struct = response_struct(cfg.name, resp, spec.name)
            if struct:
                out.append("  " + struct.replace("\n", "\n  "))
            chunks = spec.n_chunks(addr_bits)
            total = spec.total_bits(addr_bits)
            out.append(
                f"  // payload: {total} bits -> {chunks} RoCC instruction(s)"
            )
            sig = binding_signature(cfg.name, spec, resp, addr_bits)
            out.append("  " + sig.replace("\n", "\n  ") + ";")
        out.append(f"}} // namespace {cfg.name}")
        out.append("")
    return "\n".join(out)
