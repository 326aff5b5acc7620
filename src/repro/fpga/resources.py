"""FPGA resource estimation for generated designs.

The estimator prices every component the elaborator creates.  The per-
primitive cost formulas are linear models in the primitive's parameters
(port width, AXI IDs in flight, fanout, ...) with coefficients calibrated
against the paper's Table II breakdown of the 23-core A^3 design — so the
model exercises the same accounting code paths (per-core, per-interconnect,
per-SLR) the paper reports, and reproduces its totals to first order.

CLB counts are derived from LUT/FF demand: an UltraScale+ CLB holds 8 LUTs
and 16 flip-flops, but placed designs never pack perfectly; Table II implies
an achieved packing of ~7 LUTs per CLB on the A^3 design, which we adopt.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.device import ResourceVector

LUTS_PER_CLB = 7.3
REGS_PER_CLB = 14.6


def clb_for(lut: float, reg: float) -> float:
    return max(lut / LUTS_PER_CLB, reg / REGS_PER_CLB)


def _vec(lut: float, reg: float, bram: float = 0.0, uram: float = 0.0) -> ResourceVector:
    return ResourceVector(clb=clb_for(lut, reg), lut=lut, reg=reg, bram=bram, uram=uram)


@dataclass(frozen=True)
class CostModel:
    """Calibratable coefficients for the per-primitive cost formulas."""

    # Reader: control FSM + per-byte datapath + per-in-flight tracking.
    reader_base_lut: float = 900.0
    reader_lut_per_byte: float = 18.0
    reader_lut_per_inflight: float = 60.0
    reader_base_reg: float = 1_100.0
    reader_reg_per_byte: float = 20.0
    # Writer: smaller FSM (no reorder tracking).
    writer_base_lut: float = 500.0
    writer_lut_per_byte: float = 16.0
    writer_base_reg: float = 650.0
    writer_reg_per_byte: float = 18.0
    # Scratchpad control (cells are priced by the memcell mapper).
    scratchpad_base_lut: float = 300.0
    scratchpad_lut_per_port: float = 90.0
    scratchpad_base_reg: float = 250.0
    # NoC: an N-to-1 buffer node muxes five channels of the full bus width.
    node_lut_per_up_per_byte: float = 2.0
    node_base_lut: float = 450.0
    node_reg_per_byte: float = 1.2
    pipe_reg_per_byte_per_stage: float = 9.0
    # Command plumbing.
    adapter_lut: float = 350.0
    adapter_reg: float = 420.0
    mmio_lut: float = 2_500.0
    mmio_reg: float = 3_000.0
    router_lut_per_core: float = 120.0
    router_reg_per_core: float = 150.0


class ResourceEstimator:
    """Prices components and aggregates per-core / interconnect / totals."""

    def __init__(self) -> None:
        self.model = CostModel()

    # ----------------------------------------------------------- primitives
    def reader(self, data_bytes: int, max_in_flight: int, n_axi_ids: int) -> ResourceVector:
        m = self.model
        lut = (
            m.reader_base_lut
            + m.reader_lut_per_byte * data_bytes
            + m.reader_lut_per_inflight * (max_in_flight + n_axi_ids)
        )
        reg = m.reader_base_reg + m.reader_reg_per_byte * data_bytes
        return _vec(lut, reg)

    def writer(self, data_bytes: int, max_in_flight: int) -> ResourceVector:
        m = self.model
        lut = m.writer_base_lut + m.writer_lut_per_byte * data_bytes + 40.0 * max_in_flight
        reg = m.writer_base_reg + m.writer_reg_per_byte * data_bytes
        return _vec(lut, reg)

    def scratchpad_logic(self, n_ports: int, width_bits: int) -> ResourceVector:
        m = self.model
        lut = m.scratchpad_base_lut + m.scratchpad_lut_per_port * n_ports + width_bits * 0.8
        reg = m.scratchpad_base_reg + width_bits * 1.2 * n_ports
        return _vec(lut, reg)

    def noc_node(self, n_upstreams: int, beat_bytes: int) -> ResourceVector:
        m = self.model
        lut = m.node_base_lut + m.node_lut_per_up_per_byte * n_upstreams * beat_bytes * 8
        reg = m.node_reg_per_byte * beat_bytes * 8
        return _vec(lut, reg)

    def slr_pipe(self, beat_bytes: int, stages: int) -> ResourceVector:
        reg = self.model.pipe_reg_per_byte_per_stage * beat_bytes * 8 * max(stages, 1)
        return _vec(reg * 0.05, reg)

    def command_adapter(self) -> ResourceVector:
        return _vec(self.model.adapter_lut, self.model.adapter_reg)

    def mmio_frontend(self, n_cores: int) -> ResourceVector:
        m = self.model
        lut = m.mmio_lut + m.router_lut_per_core * n_cores
        reg = m.mmio_reg + m.router_reg_per_core * n_cores
        return _vec(lut, reg)

    def memory_cells(self, kind: str, count: int) -> ResourceVector:
        if kind == "BRAM":
            return ResourceVector(bram=count)
        if kind == "URAM":
            return ResourceVector(uram=count)
        if kind == "LUTRAM":
            # Distributed RAM burns LUTs: 64 bits per LUT6 as RAM64X1.
            return _vec(count / 64.0, 0.0)
        raise ValueError(f"unknown memory cell kind {kind!r}")
