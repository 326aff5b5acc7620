"""Unit tests for the metric registry (repro.obs.registry)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    attach_all,
)


def test_counter_behaves_like_int():
    c = Counter()
    c += 3
    c.inc()
    assert c == 4
    assert c != 5
    assert c < 5 and c <= 4 and c > 3 and c >= 4
    assert c + 1 == 5 and 1 + c == 5
    assert c - 1 == 3 and 10 - c == 6
    assert c * 2 == 8 and c / 2 == 2.0 and 8 / c == 2.0
    assert int(c) == 4 and float(c) == 4.0 and bool(c)
    assert list(range(10))[c] == 4  # __index__
    assert not Counter()


def test_counter_gauge_cross_comparison():
    assert Counter(3) == Gauge(3)
    assert Counter(3) < Gauge(5)
    g = Gauge()
    g.set(7)
    g.add(-2)
    assert g == 5


def test_histogram_buckets_and_mean():
    h = Histogram(buckets=(1, 4, 16))
    for v in (1, 3, 10, 100):
        h.observe(v)
    assert h.count == 4
    assert h.mean == pytest.approx(114 / 4)
    dump = h.dump_value()
    assert dump["count"] == 4
    assert dump["total"] == 114
    assert dump["buckets"] == {"1": 1, "4": 1, "16": 1}
    assert dump["overflow"] == 1


def _linear_bin(buckets, value) -> int:
    """The bin ``observe`` used to find by walking the bounds in order."""
    for i, bound in enumerate(buckets):
        if value <= bound:
            return i
    return len(buckets)  # overflow


_BOUNDS = st.lists(st.integers(-50, 50), min_size=1, max_size=12)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_BOUNDS, st.data())
def test_histogram_bins_like_the_linear_walk(bounds, data):
    """On a bound, between two, below the first, past the last (overflow),
    with duplicate bounds and int or float values."""
    h = Histogram(buckets=bounds)
    edges = sorted(bounds)
    on_or_near = st.sampled_from(edges).flatmap(
        lambda b: st.sampled_from((b, b - 0.5, b + 0.5, b - 1, b + 1))
    )
    beyond = st.sampled_from((edges[0] - 10**6, edges[-1] + 10**6, edges[-1] + 0.001))
    values = data.draw(st.lists(
        st.one_of(on_or_near, beyond, st.floats(-100, 100), st.integers(-100, 100)),
        max_size=40,
    ))
    want = [0] * (len(edges) + 1)
    for v in values:
        h.observe(v)
        want[_linear_bin(edges, v)] += 1
    assert h.counts == want
    assert h.count == len(values)


def test_histogram_rejects_empty_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=())


def test_registry_namespaces_and_dump():
    reg = MetricRegistry()
    scope = reg.scope("dram/mc")
    scope.counter("row_hits").inc(9)
    scope.scope("bank0").counter("activations").inc(2)
    reg.bind("sim/cycles_total", lambda: 123)
    assert "dram/mc/row_hits" in reg
    assert reg.value("dram/mc/bank0/activations") == 2
    assert reg.value("nonexistent", default=None) is None
    assert reg.names("dram") == ["dram/mc/row_hits", "dram/mc/bank0/activations"]
    assert reg.dump("dram/mc") == {
        "dram/mc/row_hits": 9,
        "dram/mc/bank0/activations": 2,
    }
    assert len(reg) == 3


def test_registry_duplicate_names_get_suffix():
    reg = MetricRegistry()
    a = reg.counter("noc/node/forwarded")
    b = reg.counter("noc/node/forwarded")
    a.inc(1)
    b.inc(2)
    assert reg.value("noc/node/forwarded") == 1
    assert reg.value("noc/node/forwarded#2") == 2


def test_registry_stable_only_drops_volatile():
    reg = MetricRegistry()
    reg.counter("sim/cycles_total").inc(10)
    reg.bind("sim/cycles_skipped", lambda: 7, volatile=True)
    full = reg.dump()
    stable = reg.dump(stable_only=True)
    assert "sim/cycles_skipped" in full
    assert stable == {"sim/cycles_total": 10}


def test_registry_to_json_and_report():
    reg = MetricRegistry()
    reg.counter("a/count").inc(2)
    reg.histogram("a/lat", buckets=(8,)).observe(3)
    loaded = json.loads(reg.to_json())
    assert loaded["a/count"] == 2
    assert loaded["a/lat"]["count"] == 1
    report = reg.render_report()
    assert "a/count" in report and "count=1" in report


def test_attach_all():
    reg = MetricRegistry()
    c, g = Counter(5), Gauge(6)
    attach_all(reg.scope("x"), [("c", c), ("g", g)])
    assert reg.get("x/c") is c
    assert reg.value("x/g") == 6
