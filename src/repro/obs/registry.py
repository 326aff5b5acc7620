"""The metric registry: one namespace for every statistic the models keep.

Before this layer existed each model grew its own ad-hoc stat fields
(channel push counts, the DRAM controller's stats table, the runtime
server's lock-wait samples, ...) and every analysis reached into model
internals to read them.  The registry replaces that with a single
hierarchically-namespaced (``system/core/port``) collection of *views*:

* a model counts in plain fields — ``int`` counters, dicts of ints for
  per-kind tables — and :meth:`MetricScope.bind` publishes each as a lazy
  view read through its owner at dump time (``lambda: self.retries``), so
  the hot paths stay plain attribute arithmetic;
* a :class:`Histogram` — fixed upper-bound buckets plus count/total, cheap
  enough for per-command latency samples — is an object of its owner, bound
  the same way (``lambda: self.lock_wait_hist.dump_value()``).

Because every entry reads through its owner, the registry holds no value
of its own: a snapshot captures a statistic with the object that holds it,
and a restore that refills or replaces that field is what the next dump
reads.

Views are registered after the component joins a
:class:`~repro.sim.Simulator` — construction signatures stay unchanged and
a primitive used standalone (outside any simulator) simply keeps private
counters.  Registration is deferred (:meth:`MetricRegistry.defer`): the
simulator leaves one pending entry per component/channel and the registry
runs them, in registration order, the first time anything reads or writes
it, so a design that is elaborated only for its floorplan never builds the
views.

Volatile metrics (skip accounting, wall-clock profiles) are flagged so the
compiled-vs-naive differential harness can compare ``dump(stable_only=
True)`` bit-for-bit.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

SEP = "/"

#: Default histogram buckets: powers of two up to 64Ki, good for cycle counts.
DEFAULT_BUCKETS = tuple(1 << i for i in range(17))

#: Default percentiles reported by histogram dumps.  p999 rides along because
#: the serving-SLO reports (ROADMAP item 3) gate on tail latency.
DEFAULT_PERCENTILES = (0.5, 0.9, 0.99, 0.999)


def _percentile_key(q: float) -> str:
    """``0.999 -> "p999"``, ``0.5 -> "p50"`` — stable dump/report keys."""
    return "p" + f"{q * 100:g}".replace(".", "")


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bin.

    ``percentiles`` selects which quantiles the dump reports (as ``p50``,
    ``p999``, ... keys).  Quantiles are estimated by linear interpolation
    inside the bucket holding the target rank — exact at bucket bounds and
    deterministic, which is all the SLO reports need.
    """

    __slots__ = ("buckets", "counts", "count", "total", "percentiles")

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    ) -> None:
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        for q in percentiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"percentile {q} outside (0, 1)")
        self.percentiles = tuple(percentiles)
        self.counts = [0] * (len(self.buckets) + 1)  # last bin = overflow
        self.count = 0
        self.total = 0

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        # The first bound >= value; past the last bound it is the overflow bin.
        self.counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (0 on an empty histogram).

        Overflow-bin ranks return the largest bucket bound: the histogram
        cannot see past its last bound, and a flat answer there is more
        honest than extrapolation.
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bound in enumerate(self.buckets):
            c = self.counts[i]
            if c and seen + c >= rank:
                lo = self.buckets[i - 1] if i else 0
                return lo + (bound - lo) * (rank - seen) / c
            seen += c
        return float(self.buckets[-1])

    def dump_value(self):
        out = {
            "count": self.count,
            "total": self.total,
            "buckets": {str(b): c for b, c in zip(self.buckets, self.counts)},
            "overflow": self.counts[-1],
        }
        for q in self.percentiles:
            out[_percentile_key(q)] = self.quantile(q)
        return out

    # ------------------------------------------------------------- snapshot
    def snapshot_state(self, fr) -> Tuple[Tuple[float, ...], Tuple[int, ...], int, Any]:
        """The bucket bounds, the counts per bin, the count and the total."""
        return self.buckets, tuple(self.counts), self.count, self.total

    @staticmethod
    def check_state(state) -> None:
        """Refuse, in a restore's first pass, a histogram image of another
        shape: sorted numeric bounds, one natural count per bin plus the
        overflow bin, a count that is their sum, and a numeric total."""
        from repro.snapshot.engine import SnapshotError

        buckets, counts, count, total = state if type(state) is tuple and len(state) == 4 else (None,) * 4
        if not (type(buckets) is tuple and buckets and type(counts) is tuple
                and set(map(type, buckets)) <= {int, float} and set(map(type, counts)) <= {int}
                and all(a <= b for a, b in zip(buckets, buckets[1:]))
                and len(counts) == len(buckets) + 1 and min(counts) >= 0
                and type(count) is int and count == sum(counts) and type(total) in (int, float)):
            raise SnapshotError(
                "malformed snapshot: a histogram must be (sorted bucket bounds, one natural "
                "count per bin and overflow, their sum, a numeric total)")

    def restore_state(self, state, th) -> None:
        buckets, counts, count, total = state
        # The bounds are structure: compared, never written.  Only a
        # histogram thawed fresh, with no live counterpart, takes the
        # image's (and the default percentiles).
        try:
            live = self.buckets
        except AttributeError:
            live = self.buckets = buckets
            self.percentiles, self.counts = DEFAULT_PERCENTILES, []
        if live != buckets:
            from repro.snapshot.engine import SnapshotError

            raise SnapshotError(
                f"the histogram image has bucket bounds {buckets}, the live one {live}: "
                "not the same design")
        self.counts[:] = counts
        self.count, self.total = count, total

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.2f})"


class BoundMetric:
    """A lazy view over an owner's value: read through ``fn`` at dump time.

    Every registry entry is one: the owning object mutates its plain field
    directly and the registry reads it only when asked.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn

    def dump_value(self):
        return self.fn()

    def __repr__(self) -> str:
        return f"BoundMetric({self.fn()!r})"


class MetricRegistry:
    """Hierarchically namespaced collection of metrics (``a/b/c`` paths)."""

    def __init__(self) -> None:
        self._adopted: Dict[str, object] = {}
        self._volatile: Dict[str, bool] = {}
        self._pending: List[Tuple[str, Callable[["MetricScope"], None]]] = []

    # ------------------------------------------------------------- adoption
    def defer(self, prefix: str, register: Callable[["MetricScope"], None]) -> None:
        """Queue ``register(scope(prefix))`` until the registry is next used.

        Pending entries run in the order they were queued, before any read
        and before any direct :meth:`bind`, so the key sequence — and with
        it every ``#2``/``#3`` duplicate suffix — is exactly the one eager
        registration would have produced.
        """
        self._pending.append((prefix, register))

    @property
    def _metrics(self) -> Dict[str, object]:
        """Every adopted metric by name; adopts what is pending first."""
        pending = self._pending
        if pending:
            # Detach first: the callbacks bind through this same property.
            self._pending = []
            for prefix, register in pending:
                register(MetricScope(self, prefix))
        return self._adopted

    # ------------------------------------------------------------- creation
    def scope(self, prefix: str) -> "MetricScope":
        return MetricScope(self, prefix)

    def bind(self, name: str, fn: Callable[[], Any], volatile: bool = False) -> BoundMetric:
        """Register a view that reads ``fn()`` at dump time under ``name``.

        Duplicate names get a deterministic ``#2``, ``#3`` ... suffix: two
        anonymous components may legitimately share a name, and observability
        must never abort a simulation.
        """
        metrics = self._metrics
        key = name
        n = 2
        while key in metrics:
            key = f"{name}#{n}"
            n += 1
        metric = metrics[key] = BoundMetric(fn)
        self._volatile[key] = volatile
        return metric

    # --------------------------------------------------------------- access
    def get(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, prefix: Optional[str] = None) -> List[str]:
        metrics = self._metrics
        if prefix is None:
            return list(metrics)
        pfx = prefix.rstrip(SEP) + SEP
        return [n for n in metrics if n.startswith(pfx) or n == prefix]

    def value(self, name: str, default=0):
        m = self._metrics.get(name)
        return default if m is None else m.dump_value()

    # ----------------------------------------------------------------- dump
    def dump(
        self, prefix: Optional[str] = None, stable_only: bool = False
    ) -> Dict[str, Any]:
        """Flat ``{path: value}`` snapshot, JSON-serialisable.

        ``stable_only`` drops volatile metrics (skip accounting, wall-clock
        data), leaving exactly the set the differential harness proves
        bit-identical between naive and compiled runs.
        """
        out: Dict[str, Any] = {}
        metrics = self._metrics
        for name in self.names(prefix):
            if stable_only and self._volatile.get(name):
                continue
            out[name] = metrics[name].dump_value()
        return out

    def to_json(self) -> str:
        return json.dumps(self.dump(), indent=2, sort_keys=True)

    def render_report(self, prefix: Optional[str] = None) -> str:
        """Human-readable flat metrics report, one ``path = value`` per line."""
        lines = [f"{'metric':<58} value"]
        for name, value in sorted(self.dump(prefix).items()):
            if isinstance(value, dict):  # histogram
                shown = f"count={value['count']} total={value['total']}"
                tails = " ".join(
                    f"{k}={value[k]:.0f}"
                    for k in sorted(value, key=len)
                    if k.startswith("p") and k[1:].isdigit()
                )
                if tails:
                    shown += f" {tails}"
            elif isinstance(value, float):
                shown = f"{value:.4f}"
            else:
                shown = str(value)
            lines.append(f"{name:<58} {shown}")
        return "\n".join(lines)


class MetricScope:
    """A registry view that prefixes every name with a namespace path."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: MetricRegistry, prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix.strip(SEP)

    def _name(self, name: str) -> str:
        return f"{self.prefix}{SEP}{name}" if self.prefix else name

    def scope(self, prefix: str) -> "MetricScope":
        return MetricScope(self.registry, self._name(prefix))

    def bind(self, name: str, fn: Callable[[], Any], volatile: bool = False) -> BoundMetric:
        return self.registry.bind(self._name(name), fn, volatile=volatile)

