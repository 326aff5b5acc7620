"""One rep of one workload, in a process of its own.

``run.py`` starts this file once per (workload, rep) so every measurement
includes interpreter start and import, exactly what a user's script pays.
The last line of stdout is the rep's JSON record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

import numpy as np

from tracing import CpuTicker, SpanLog

#: SIGPROF period (process CPU time) and how many ticks apart probes run.
TICK_S = 0.004
PROBE_EVERY = 2
KEPT_MESSAGES = 5


class Rep:
    """What a workload gets: inputs, spans, failure accounting, results."""

    #: Returned by :meth:`op` in place of a result when the call failed.
    FAILED = object()

    def __init__(self, seed: int, scale: float, traced: bool, workdir: str, typed_errors) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.spans = SpanLog(traced)
        self.span = self.spans.span
        self._typed_errors = typed_errors
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.setup_s = 0.0
        self.sim_cycles = 0
        self.latencies: List[int] = []
        self.cmd_p50 = self.cmd_p99 = 0
        self.counters: Dict[str, float] = {}
        self._digest = hashlib.sha256()

    def scaled(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def setup_done(self) -> None:
        """First host operation can be issued now (first call wins)."""
        if not self.setup_s:
            self.setup_s = time.thread_time()

    # -------------------------------------------------------- failure accounting
    def op(self, span, fn, *args, **kwargs) -> Any:
        """One operation: call ``fn`` (inside ``span`` if named); a typed
        error is counted and kept, never raised, so one bad operation cannot
        abort the benchmark.  Untyped exceptions are bugs and propagate."""
        self.attempted += 1
        try:
            if span is None:
                return fn(*args, **kwargs)
            with self.span(span):
                return fn(*args, **kwargs)
        except self._typed_errors as exc:
            self._fail(f"{getattr(fn, '__qualname__', fn)}: {type(exc).__name__}: {exc}")
            return self.FAILED

    def check(self, ok, message: str) -> None:
        """One output verification, counted like any other operation."""
        self.attempted += 1
        if not ok:
            self._fail(message)

    def count_ops(self, attempted: int, failed: int) -> None:
        """Operations the program ran and accounted for itself."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{failed} of {attempted} program-side operations failed")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < KEPT_MESSAGES:
            self.messages.append(message.splitlines()[0][:300])

    # ------------------------------------------------------------------ results
    def add_counter(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_counter(self, name: str, value) -> None:
        self.counters[name] = value

    def digest_update(self, obj) -> None:
        """Fold one JSON-able result (stable metrics, reports, artefacts)
        into the determinism digest."""
        self._digest.update(json.dumps(obj, sort_keys=True, default=repr).encode())

    def record(self) -> Dict[str, Any]:
        c = self.counters
        executed, possible = c.get("sim.executed_ticks", 0), c.get("sim.possible_ticks", 0)
        c["sim.elided_tick_frac"] = 1.0 - executed / possible if possible else 0.0
        hits, misses = c.get("dram.row_hits", 0), c.get("dram.row_misses", 0)
        c["dram.row_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
        cycles = c.get("sim.cycles", 0)
        c["dram.bus_util"] = c.get("dram.bus_cycles", 0) / cycles if cycles else 0.0
        if self.latencies:
            from repro.serve import percentile  # nearest rank, as the serving report

            ranked = sorted(self.latencies)
            self.cmd_p50, self.cmd_p99 = percentile(ranked, 0.50), percentile(ranked, 0.99)
        return {
            "setup_s": self.setup_s,
            "sim_cycles": self.sim_cycles,
            "cmd_p50_cycles": self.cmd_p50,
            "cmd_p99_cycles": self.cmd_p99,
            "attempted": self.attempted,
            "failed": self.failed,
            "messages": self.messages,
            "digest": self._digest.hexdigest(),
            "counters": c,
            "spans": self.spans.totals(),
            "span_log": self.spans.spans,
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    wall0 = time.perf_counter()
    import repro

    ticker = CpuTicker(
        TICK_S, PROBE_EVERY, os.path.dirname(repro.__file__) if args.trace else None)
    ticker.start()
    import workloads
    from repro.core.build import InfeasibleDesignError
    from repro.farm import FarmJobError
    from repro.faults.errors import FaultError
    from repro.serve import ServeError
    from repro.sim import SimulationError
    from repro.snapshot import SnapshotError

    rep = Rep(
        args.seed, args.scale, bool(args.trace), args.workdir,
        (FaultError, SimulationError, SnapshotError, FarmJobError, ServeError,
         InfeasibleDesignError),
    )
    workloads.WORKLOADS[args.workload](rep)
    ticker.stop()
    record = rep.record()
    probes = [dur for _at, dur in ticker.probes]
    setup_probes = [dur for at, dur in ticker.probes if at <= rep.setup_s] or probes
    record.update(
        workload=args.workload,
        seed=args.seed,
        traced=bool(args.trace),
        samples=ticker.counts,
        probe_s=sum(probes) / len(probes),
        setup_probe_s=sum(setup_probes) / len(setup_probes),
        wall_s=time.perf_counter() - wall0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
