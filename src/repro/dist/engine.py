"""The sharded-simulation engine: an in-process slice loop over partitions.

:class:`DistSimulator` presents the ordinary :class:`repro.sim.Simulator`
driving surface (``cycle``/``step``/``run``/``add``/``register_channel``/
``registry``/``state_dump``) over a set of partition simulators produced by
:func:`repro.dist.partition.register_partitioned`.  Every partition advances
in this process, one slice at a time, with every bridge on its local
transport, so the loop exercises the exact cut structure of the plan.

The conservative-synchronization contract (slice width <= minimum bridge
latency) is established by the partitioner; the loop only has to keep the
partitions' cycle counters in lockstep.  ``until`` predicates are evaluated
at slice barriers, so completion cycles are barrier-quantized.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.dist.config import DistError
from repro.dist.partition import PartitionPlan
from repro.sim import DeadlockError, compact_state_dump, render_deadlock_report


class MergedRegistry:
    """One metric namespace over every partition's registry.

    Reads (``dump``/``value``/``names``) merge all partitions; writes
    (``scope``/``bind``/``counter``...) go to partition 0's registry, which
    is where runtime/serving metrics belong.  Merge rules:

    * ``sim/cycles_total`` appears in every partition and must agree (the
      barrier keeps them in lockstep) — one copy survives;
    * other *stable*-key collisions must be value-equal (e.g. the constant
      ``trace/spans = 0`` each partition binds) — unequal values mean the
      cut leaked state and raise :class:`DistError`;
    * volatile collisions (per-partition wall-clock, tick counts) are kept
      under a ``@p<n>`` suffix.
    """

    def __init__(self, engine: "DistSimulator") -> None:
        self._engine = engine
        self._root = engine.root.registry

    # Writes -> root registry.
    def scope(self, prefix: str):
        return self._root.scope(prefix)

    def counter(self, name: str):
        return self._root.counter(name)

    def gauge(self, name: str):
        return self._root.gauge(name)

    def histogram(self, name: str, *args, **kwargs):
        return self._root.histogram(name, *args, **kwargs)

    def attach(self, name: str, metric, volatile: bool = False):
        return self._root.attach(name, metric, volatile=volatile)

    def bind(self, name: str, fn, volatile: bool = False):
        return self._root.bind(name, fn, volatile=volatile)

    def get(self, name: str):
        return self._root.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._root or name in self.dump()

    # Reads -> merged view.
    def dump(self, prefix: Optional[str] = None, stable_only: bool = False) -> Dict[str, Any]:
        merged = self._root.dump(prefix, stable_only=stable_only)
        for pid, part_dump, stable_keys in self._engine._partition_dumps(prefix, stable_only):
            stable = set(stable_keys)
            for key, value in part_dump.items():
                if key not in merged:
                    merged[key] = value
                    continue
                if key == "sim/cycles_total" or key in stable:
                    if merged[key] != value:
                        raise DistError(
                            f"stable metric {key!r} disagrees between the "
                            f"root partition ({merged[key]!r}) and partition "
                            f"{pid} ({value!r}): the cut leaked state"
                        )
                    continue
                merged[f"{key}@p{pid}"] = value
        return merged

    def value(self, name: str, default=0):
        if name in self._root:
            return self._root.value(name, default)
        return self.dump().get(name, default)

    def names(self, prefix: Optional[str] = None) -> List[str]:
        return list(self.dump(prefix).keys())

    def to_json(self, prefix: Optional[str] = None, indent: int = 2) -> str:
        import json

        return json.dumps(self.dump(prefix), indent=indent, sort_keys=True)

    def render_report(self, prefix: Optional[str] = None) -> str:
        lines = [f"{'metric':<58} value"]
        for name, value in sorted(self.dump(prefix).items()):
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"{name:<58} {shown}")
        return "\n".join(lines)


class DistSimulator:
    """The in-process slice loop, presenting the single-``Simulator`` surface."""

    def __init__(self, plan: PartitionPlan, sims) -> None:
        self.plan = plan
        self.sims = list(sims)
        self.root = self.sims[0]
        self.name = self.root.name + ":dist"
        self.slice_width = plan.slice_width
        self._slices = 0
        self.registry = MergedRegistry(self)
        # All dist/* metrics are volatile: they describe the execution
        # harness, not the modeled hardware, and differ across worker counts
        # by design.
        scope = self.root.registry.scope("dist")
        scope.bind("partitions", lambda: self.plan.n_partitions, volatile=True)
        scope.bind("slice_width", lambda: self.slice_width, volatile=True)
        scope.bind("slices", lambda: self._slices, volatile=True)

    # --------------------------------------------------- simulator surface
    @property
    def cycle(self) -> int:
        return self.root.cycle

    @property
    def scheduling(self) -> str:
        return self.root.scheduling

    @property
    def tracer(self):
        return self.root.tracer

    def add(self, component) -> None:
        self.root.add(component)

    def register_channel(self, chan) -> None:
        self.root.register_channel(chan)

    def run_slice(self, n_cycles: int) -> int:
        if n_cycles > 0:
            self._advance(n_cycles)
        return self.cycle

    def run(self, max_cycles: int, until=None) -> int:
        deadline = self.cycle + max_cycles
        while self.cycle < deadline:
            if until is not None and until():
                return self.cycle
            self._advance(min(self.slice_width, deadline - self.cycle))
        if until is None or until():
            return self.cycle
        self._raise_deadlock(max_cycles)

    def state_dump(self) -> Dict[str, Any]:
        dump = self.root.state_dump()
        dump["partitions"] = {
            pid: self.sims[pid].state_dump() for pid in range(1, self.plan.n_partitions)
        }
        return dump

    # ------------------------------------------------------------ slice loop
    def _advance(self, n: int) -> None:
        """Advance ``n`` cycles, in at most ``slice_width`` steps."""
        target = self.cycle + n
        while self.cycle < target:
            step = min(self.slice_width, target - self.cycle)
            for sim in self.sims:
                sim.run_slice(step)
            self._slices += 1
            cycles = {sim.cycle for sim in self.sims}
            if len(cycles) != 1:
                raise DistError(f"partition cycle skew after slice: {sorted(cycles)}")

    # ----------------------------------------------------- dumps & deadlock
    def _partition_dumps(self, prefix, stable_only):
        """[(pid, dump, stable_keys)] for partitions 1..N-1."""
        out = []
        for pid in range(1, self.plan.n_partitions):
            reg = self.sims[pid].registry
            out.append((
                pid,
                reg.dump(prefix, stable_only=stable_only),
                list(reg.dump(prefix, stable_only=True)),
            ))
        return out

    def _raise_deadlock(self, max_cycles: int) -> None:
        dump = self.state_dump()
        dump["partitions"] = {
            pid: compact_state_dump(pdump) if isinstance(pdump, dict) else pdump
            for pid, pdump in dump.get("partitions", {}).items()
        }
        dump = compact_state_dump(dump)
        message = (
            f"distributed simulation ran {max_cycles} cycles (to cycle "
            f"{self.cycle}) without the completion condition becoming true "
            f"across {self.plan.n_partitions} partitions\n"
            + render_deadlock_report(dump)
        )
        raise DeadlockError(message, dump)
