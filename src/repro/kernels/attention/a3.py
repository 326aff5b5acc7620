"""The A^3 approximate-attention accelerator core (paper Section III-C).

Three coarse-grained stages, exactly the published structure:

1. **Dot product** — one key row per cycle against the resident query
   (a 64-wide int8 MAC tree), with the first global reduction (running
   max/min of the scores) tracked as rows stream.  Scores are staged in a
   FIFO because the reduction result is only known once all keys are done.
2. **Exponent / softmax** — LUT-based base-2 exponentiation, one score per
   cycle, plus the second global reduction (the sum) and one fixed-point
   divide per key.
3. **Output** — one value row per cycle, Q1.15-weighted accumulation into
   the output vector.

The key and value matrices are *stationary* in Beethoven scratchpads
(initialised from DRAM via their built-in Readers); queries stream in
through a Reader (one 64-byte row per beat) and results stream out through a
Writer.  Stages are pipelined across queries through FIFOs, so steady-state
throughput is one query per ``n_keys`` cycles per core — which at 250 MHz and
320 keys is the ~780 K attentions/s/core that makes a 23-core design land at
the paper's 16.6 M ops/s.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.command.packing import Address, CommandSpec, EmptyAccelResponse, Field, UInt
from repro.core.accelerator import AcceleratorCore
from repro.core.config import (
    AcceleratorConfig,
    ReadChannelConfig,
    ScratchpadConfig,
    ScratchpadFeatures,
    WriteChannelConfig,
)
from repro.fpga.device import ResourceVector
from repro.kernels.attention.fixedpoint import WEIGHT_FRAC_BITS, fixed_weights
from repro.kernels.attention.reference import SCALE_FRAC_BITS
from repro.memory.types import ReadRequest, WriteRequest
from repro.sim import NEVER

DIV_LATENCY = 16  # fixed-point divider pipeline in stage 2
STAGE_FIFO_DEPTH = 2


class A3Core(AcceleratorCore):
    """One A^3 core: stationary K/V, streaming queries."""

    _state = ("_init_pending", "_k_mat", "_v_mat", "_attending", "_temp_q", "_queries_left",
              "_s1", "_s2", "_s3", "_fifo_scores", "_fifo_weights", "_out_chunks",
              "queries_processed")

    def __init__(self, ctx, dim: int = 64, n_keys: int = 320) -> None:
        super().__init__(ctx)
        if dim % 8:
            raise ValueError("embedding dimension must be a multiple of 8")
        self.dim = dim
        self.n_keys = n_keys
        self.io_init = self.beethoven_io(
            CommandSpec(
                "load_kv",
                (Field("key_addr", Address()), Field("value_addr", Address())),
            ),
            EmptyAccelResponse(),
        )
        self.io_attend = self.beethoven_io(
            CommandSpec(
                "attend",
                (
                    Field("query_addr", Address()),
                    Field("out_addr", Address()),
                    Field("n_queries", UInt(16)),
                    Field("temp_q", UInt(32)),  # Q18 softmax temperature
                ),
            ),
            EmptyAccelResponse(),
        )
        self.queries = self.get_reader_module("queries")
        self.out = self.get_writer_module("attn_out")
        self.keys_sp = self.get_scratchpad("keys")
        self.values_sp = self.get_scratchpad("values")

        self._init_pending = 0
        self._k_mat: Optional[np.ndarray] = None
        self._v_mat: Optional[np.ndarray] = None
        self._attending = False
        self._temp_q = 1
        self._queries_left = 0
        # Stage slots: (busy_cycles_remaining, payload)
        self._s1 = None
        self._s2 = None
        self._s3 = None
        self._fifo_scores: Deque[np.ndarray] = deque()
        self._fifo_weights: Deque[np.ndarray] = deque()
        self._out_chunks: Deque[bytes] = deque()
        self.queries_processed = 0

    def kernel_resources(self) -> ResourceVector:
        """The Table II 'Kernel' row: the A^3 pipeline proper (MAC tree,
        exponent unit, divider, output accumulators and stage FIFOs)."""
        from repro.fpga.resources import clb_for

        return ResourceVector(clb=clb_for(16_900, 8_200), lut=16_900, reg=8_200, bram=1)

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> None:
        self._tick_init()
        self._tick_attend_cmd()
        self._tick_pipeline()
        self._tick_output()

    def next_event(self, cycle: int) -> Optional[float]:
        # Stage slots count down and FIFOs drain without channel traffic, so
        # only a core with nothing at all pending may sleep until a command.
        if (
            self._init_pending
            or self._attending
            or self._s1 is not None
            or self._s2 is not None
            or self._s3 is not None
            or self._fifo_scores
            or self._fifo_weights
            or self._out_chunks
        ):
            return None
        return NEVER

    # ------------------------------------------------------------- K/V load
    def _tick_init(self) -> None:
        io = self.io_init
        if (
            self._init_pending == 0
            and io.req.can_pop()
            and self.keys_sp.init.can_push()
            and self.values_sp.init.can_push()
        ):
            cmd = io.req.pop()
            nbytes = self.n_keys * self.dim
            self.keys_sp.init.push(ReadRequest(cmd["key_addr"], nbytes))
            self.values_sp.init.push(ReadRequest(cmd["value_addr"], nbytes))
            self._init_pending = 2
        if self._init_pending > 0:
            for sp in (self.keys_sp, self.values_sp):
                if sp.init_done.can_pop():
                    sp.init_done.pop()
                    self._init_pending -= 1
            if self._init_pending == 0 and io.resp.can_push():
                self._k_mat = self._matrix_from(self.keys_sp)
                self._v_mat = self._matrix_from(self.values_sp)
                io.resp.push({})
            elif self._init_pending == 0:
                self._init_pending = -1  # retry response next cycle
        elif self._init_pending == -1 and io.resp.can_push():
            self._k_mat = self._matrix_from(self.keys_sp)
            self._v_mat = self._matrix_from(self.values_sp)
            io.resp.push({})
            self._init_pending = 0

    def _matrix_from(self, sp) -> np.ndarray:
        row_bytes = self.dim
        rows = []
        for cell in sp.mem.cells()[: self.n_keys]:
            rows.append(
                np.frombuffer(
                    int(cell).to_bytes(row_bytes, "little"), dtype=np.int8
                )
            )
        return np.stack(rows)

    # --------------------------------------------------------------- attend
    def _tick_attend_cmd(self) -> None:
        io = self.io_attend
        if (
            not self._attending
            and self._k_mat is not None
            and io.req.can_pop()
            and self.queries.request.can_push()
            and self.out.request.can_push()
        ):
            cmd = io.req.pop()
            n = cmd["n_queries"]
            self.queries.request.push(ReadRequest(cmd["query_addr"], n * self.dim))
            self.out.request.push(WriteRequest(cmd["out_addr"], n * self.dim))
            self._temp_q = cmd["temp_q"]
            self._queries_left = n
            self._attending = True
        if self._attending and self.out.done.can_pop() and io.resp.can_push():
            self.out.done.pop()
            io.resp.push({})
            self._attending = False

    def _tick_pipeline(self) -> None:
        if not self._attending:
            return
        # Stage 3: weighted value accumulation, one row per cycle.
        if self._s3 is not None:
            busy, weights = self._s3
            busy -= 1
            if busy <= 0:
                acc = weights @ self._v_mat.astype(np.int64)
                out = (acc + (1 << (WEIGHT_FRAC_BITS - 1))) >> WEIGHT_FRAC_BITS
                out8 = np.clip(out, -128, 127).astype(np.int8)
                self._out_chunks.append(out8.tobytes())
                self.queries_processed += 1
                self._s3 = None
            else:
                self._s3 = (busy, weights)
        if self._s3 is None and self._fifo_weights:
            self._s3 = (self.n_keys, self._fifo_weights.popleft())
        # Stage 2: exponent + normalise.
        if self._s2 is not None:
            busy, scores = self._s2
            busy -= 1
            if busy <= 0:
                if len(self._fifo_weights) < STAGE_FIFO_DEPTH:
                    weights = fixed_weights(scores, self._temp_q, SCALE_FRAC_BITS)
                    self._fifo_weights.append(weights)
                    self._s2 = None
                else:
                    self._s2 = (1, scores)  # stall on full FIFO
            else:
                self._s2 = (busy, scores)
        if self._s2 is None and self._fifo_scores:
            # The divider is pipelined: DIV_LATENCY is fill latency, charged
            # once per query on top of the n_keys-cycle exponent stream only
            # as a small constant (II stays one score per cycle).
            self._s2 = (self.n_keys + 2, self._fifo_scores.popleft())
        # Stage 1: dot products, one key row per cycle.
        if self._s1 is not None:
            busy, query = self._s1
            busy -= 1
            if busy <= 0:
                if len(self._fifo_scores) < STAGE_FIFO_DEPTH:
                    scores = self._k_mat.astype(np.int32) @ query.astype(np.int32)
                    self._fifo_scores.append(scores)
                    self._s1 = None
                else:
                    self._s1 = (1, query)
            else:
                self._s1 = (busy, query)
        if self._s1 is None and self._queries_left > 0 and self.queries.data.can_pop():
            chunk = self.queries.data.pop()
            query = np.frombuffer(chunk, dtype=np.int8)
            self._s1 = (self.n_keys, query)
            self._queries_left -= 1

    def _tick_output(self) -> None:
        if self._out_chunks and self.out.data.can_push():
            self.out.data.push(self._out_chunks.popleft())


def a3_config(
    n_cores: int = 1, dim: int = 64, n_keys: int = 320, name: str = "A3"
) -> AcceleratorConfig:
    """The BERT-parameterised A^3 System (23 cores in the paper's build).

    Four memory interfaces per core — query Reader, output Writer, and the
    two scratchpad init Readers — which is how the paper's 23-core design
    reaches its 92 distinct memory interfaces.
    """

    def make(ctx):
        return A3Core(ctx, dim, n_keys)

    row_bits = dim * 8
    double_buffered = ScratchpadFeatures(init_via_reader=True, double_buffered=True)
    return AcceleratorConfig(
        name=name,
        n_cores=n_cores,
        module_constructor=make,
        memory_channel_config=(
            ReadChannelConfig("queries", data_bytes=dim),
            WriteChannelConfig("attn_out", data_bytes=dim),
            ScratchpadConfig("keys", row_bits, n_keys, latency=1, features=double_buffered),
            ScratchpadConfig("values", row_bits, n_keys, latency=1, features=double_buffered),
        ),
    )
