"""Unit tests for the metric registry (repro.obs.registry)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import Histogram, MetricRegistry


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
    stats = {"row_hits": 0, "activations": 0}
    scope.bind("row_hits", lambda: stats["row_hits"])
    scope.scope("bank0").bind("activations", lambda: stats["activations"])
    reg.bind("sim/cycles_total", lambda: 123)
    stats["row_hits"] += 9
    stats["activations"] += 2
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
    reg.bind("noc/node/forwarded", lambda: 1)
    reg.bind("noc/node/forwarded", lambda: 2)
    assert reg.names() == ["noc/node/forwarded", "noc/node/forwarded#2"]
    assert reg.value("noc/node/forwarded") == 1
    assert reg.value("noc/node/forwarded#2") == 2


def test_registry_stable_only_drops_volatile():
    reg = MetricRegistry()
    reg.bind("sim/cycles_total", lambda: 10)
    reg.bind("sim/cycles_skipped", lambda: 7, volatile=True)
    full = reg.dump()
    stable = reg.dump(stable_only=True)
    assert "sim/cycles_skipped" in full
    assert stable == {"sim/cycles_total": 10}


def test_registry_to_json_and_report():
    reg = MetricRegistry()
    hist = Histogram(buckets=(8,))
    reg.bind("a/count", lambda: 2)
    reg.bind("a/lat", lambda: hist.dump_value())
    hist.observe(3)
    loaded = json.loads(reg.to_json())
    assert loaded["a/count"] == 2
    assert loaded["a/lat"]["count"] == 1
    report = reg.render_report()
    assert "a/count" in report and "count=1" in report


def test_histogram_state_round_trips_and_refuses_other_shapes():
    from repro.snapshot import SnapshotError

    h = Histogram(buckets=(1, 4, 4, 16))  # a duplicate bound is still sorted
    for v in (1, 3, 10, 100):
        h.observe(v)
    state = h.snapshot_state(None)
    Histogram.check_state(state)
    other = Histogram(buckets=(1, 4, 4, 16))
    other.observe(2)
    other.restore_state(state, None)
    assert other.dump_value() == h.dump_value()
    buckets, counts, count, total = state
    for bad in (
        None,
        state[:3],
        ((), (0,), 0, 0),  # no bound
        ((4, 1, 16, 16), counts, count, total),  # unsorted bounds
        (buckets, counts[:-1], count, total),  # no overflow bin
        (buckets, (-1, *counts[1:]), count - counts[0] - 1, total),  # a negative count
        (buckets, counts, count + 1, total),  # count is not their sum
        (buckets, counts, count, "114"),
        (buckets, tuple(map(float, counts)), count, total),
    ):
        with pytest.raises(SnapshotError, match="malformed snapshot: a histogram"):
            Histogram.check_state(bad)
    with pytest.raises(SnapshotError, match="bucket bounds .* not the same design"):
        Histogram(buckets=(2, 4, 4, 16)).restore_state(state, None)
