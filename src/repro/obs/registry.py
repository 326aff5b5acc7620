"""The metric registry: one namespace for every statistic the models keep.

Before this layer existed each model grew its own ad-hoc stat fields
(``ChannelQueue.total_pushed``, ``DramController.stats``, the runtime
server's lock-wait samples, ...) and every analysis reached into model
internals to read them.  The registry replaces that with a single
hierarchically-namespaced (``system/core/port``) collection of *typed*
metrics:

* :class:`Counter` — monotonically increasing event count.  Counters behave
  like numbers in comparisons (``ctr == 4``) so model code and tests keep
  reading naturally, and support ``+=`` so hot paths stay one line.
* :class:`Gauge` — a point-in-time value (``set``/``add``).
* :class:`Histogram` — fixed upper-bound buckets plus count/total, cheap
  enough for per-command latency samples.
* bound views (:meth:`MetricScope.bind`) — zero-overhead adapters over an
  existing plain field, read lazily at dump time.  The simulation kernel's
  hottest counters (per-cycle channel occupancy accumulation) use these so
  instrumentation stays on by default without slowing the kernel.

Metrics are *owned by the components* and adopted into the registry after
the component is registered with a :class:`~repro.sim.Simulator` —
construction signatures stay unchanged and a primitive used standalone
(outside any simulator) simply keeps private metrics.  Adoption is deferred
(:meth:`MetricRegistry.defer`): the simulator leaves one pending entry per
component/channel and the registry runs them, in registration order, the
first time anything reads or writes it, so a design that is elaborated only
for its floorplan never builds the views.

Volatile metrics (skip accounting, wall-clock profiles) are flagged so the
compiled-vs-naive differential harness can compare ``dump(stable_only=
True)`` bit-for-bit.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

SEP = "/"

#: Default histogram buckets: powers of two up to 64Ki, good for cycle counts.
DEFAULT_BUCKETS = tuple(1 << i for i in range(17))

#: Default percentiles reported by histogram dumps.  p999 rides along because
#: the serving-SLO reports (ROADMAP item 3) gate on tail latency.
DEFAULT_PERCENTILES = (0.5, 0.9, 0.99, 0.999)


def _percentile_key(q: float) -> str:
    """``0.999 -> "p999"``, ``0.5 -> "p50"`` — stable dump/report keys."""
    return "p" + f"{q * 100:g}".replace(".", "")


class Counter:
    """A monotonically increasing event counter that compares like an int."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    # Number-like behaviour so existing call sites (``ctr == 4``,
    # ``ctr += 1``, ``ctr / cycles``) keep working after the field swap.
    def __iadd__(self, n: int) -> "Counter":
        self.value += n
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Counter, Gauge)):
            return self.value == other.value
        return self.value == other

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other) -> bool:
        return self.value < _num(other)

    def __le__(self, other) -> bool:
        return self.value <= _num(other)

    def __gt__(self, other) -> bool:
        return self.value > _num(other)

    def __ge__(self, other) -> bool:
        return self.value >= _num(other)

    def __hash__(self) -> int:
        return hash(self.value)

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __add__(self, other):
        return self.value + _num(other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.value - _num(other)

    def __rsub__(self, other):
        return _num(other) - self.value

    def __mul__(self, other):
        return self.value * _num(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.value / _num(other)

    def __rtruediv__(self, other):
        return _num(other) / self.value

    def __index__(self) -> int:
        return int(self.value)

    def __repr__(self) -> str:
        return f"Counter({self.value})"

    def dump_value(self):
        return self.value


def _num(x):
    return x.value if isinstance(x, (Counter, Gauge)) else x


class Gauge(Counter):
    """A point-in-time value; same number-like surface as :class:`Counter`."""

    __slots__ = ()

    def set(self, value) -> None:
        self.value = value

    def add(self, n) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


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

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.2f})"


class BoundMetric:
    """A lazy view over an existing value: read through ``fn`` at dump time.

    This is the zero-overhead binding for hot-path fields that must stay
    plain Python ints (channel statistics): the owning object mutates its
    field directly and the registry reads it only when asked.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn

    @property
    def value(self):
        return self.fn()

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
        self._owned: Tuple[int, List[Tuple[str, object]]] = (0, [])

    # ------------------------------------------------------------- adoption
    def defer(self, prefix: str, register: Callable[["MetricScope"], None]) -> None:
        """Queue ``register(scope(prefix))`` until the registry is next used.

        Pending entries run in the order they were queued, before any read
        and before any direct :meth:`attach`, so the key sequence — and with
        it every ``#2``/``#3`` duplicate suffix — is exactly the one eager
        registration would have produced.
        """
        self._pending.append((prefix, register))

    @property
    def _metrics(self) -> Dict[str, object]:
        """Every adopted metric by name; adopts what is pending first."""
        pending = self._pending
        if pending:
            # Detach first: the callbacks attach through this same property.
            self._pending = []
            for prefix, register in pending:
                register(MetricScope(self, prefix))
        return self._adopted

    def owned(self) -> List[Tuple[str, object]]:
        """``(name, metric)`` of every metric that holds a value of its own
        (counters, gauges, histograms — not :class:`BoundMetric` views), in
        adoption order.  Metrics are only ever added, so the list is cached
        against the adopted count."""
        metrics = self._metrics
        if self._owned[0] != len(metrics):
            self._owned = (
                len(metrics),
                [(n, m) for n, m in metrics.items() if isinstance(m, (Counter, Histogram))],
            )
        return self._owned[1]

    # ------------------------------------------------------------- creation
    def scope(self, prefix: str) -> "MetricScope":
        return MetricScope(self, prefix)

    def counter(self, name: str) -> Counter:
        return self.attach(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self.attach(name, Gauge())

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    ) -> Histogram:
        return self.attach(name, Histogram(buckets, percentiles))

    def attach(self, name: str, metric, volatile: bool = False):
        """Adopt an existing metric object under ``name``.

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
        metrics[key] = metric
        self._volatile[key] = volatile
        return metric

    def bind(self, name: str, fn: Callable[[], Any], volatile: bool = False) -> BoundMetric:
        return self.attach(name, BoundMetric(fn), volatile=volatile)

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

    def to_json(self, prefix: Optional[str] = None, indent: int = 2) -> str:
        return json.dumps(self.dump(prefix), indent=indent, sort_keys=True)

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

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self._name(name))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    ) -> Histogram:
        return self.registry.histogram(self._name(name), buckets, percentiles)

    def attach(self, name: str, metric, volatile: bool = False):
        return self.registry.attach(self._name(name), metric, volatile=volatile)

    def bind(self, name: str, fn: Callable[[], Any], volatile: bool = False) -> BoundMetric:
        return self.registry.bind(self._name(name), fn, volatile=volatile)


def attach_all(scope: MetricScope, metrics: Iterable) -> None:
    """Attach ``(name, metric)`` pairs under ``scope`` in one call."""
    for name, metric in metrics:
        scope.attach(name, metric)
