"""Farm execution, cache behaviour, and observability.

A fingerprint change invalidates only the affected cache entries, job
errors become data, and a cache file is data: anything that does not decode
as a value the farm wrote is a miss, and the file is deleted.
"""

import json
import math
import os
from dataclasses import dataclass

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.dse import DesignPoint
from repro.farm import (
    Farm,
    FarmJobError,
    Job,
    ResultCache,
    canonical,
    job_fingerprint,
)
from repro.kernels.machsuite.fig6 import Fig6Row
from repro.obs.export import validate_chrome_trace


# --------------------------------------------------------------- job bodies
def _square(x):
    return x * x


def _cube(x):
    return x ** 3


def _raise(msg):
    raise ValueError(msg)


# ----------------------------------------------------------- fingerprinting
def test_fingerprint_is_deterministic_and_content_sensitive():
    fp1 = job_fingerprint(_square, (3,), {})
    assert fp1 == job_fingerprint(_square, (3,), {})
    assert fp1 != job_fingerprint(_square, (4,), {})
    assert fp1 != job_fingerprint(_cube, (3,), {})
    # kwargs order must not matter.
    a = job_fingerprint(_square, (), {"a": 1, "b": 2})
    b = job_fingerprint(_square, (), {"b": 2, "a": 1})
    assert a == b


def test_fingerprint_sees_lambda_bodies():
    fp_double = job_fingerprint(_square, (lambda n: 2 * n,), {})
    fp_triple = job_fingerprint(_square, (lambda n: 3 * n,), {})
    assert fp_double != fp_triple


def _compiled(source: str):
    namespace: dict = {}
    exec(compile(source, "<job>", "exec"), namespace)
    return namespace["f"]


def test_fingerprint_of_nested_code_is_its_body_not_its_address():
    """A comprehension is a code object inside the function's constants;
    two functions compiled from the same text hold two such objects at two
    addresses, and must still share a fingerprint (a repr of the constants
    would not: it names the address, so the key changed every process)."""
    source = "def f(x):\n    return [i * {k} for i in range(x)]\n"
    first, second = _compiled(source.format(k=2)), _compiled(source.format(k=2))
    assert repr(first.__code__.co_consts) != repr(second.__code__.co_consts)  # two addresses
    key = job_fingerprint(first, (3,), {}, salt="s")
    assert key == job_fingerprint(second, (3,), {}, salt="s")
    assert key != job_fingerprint(_compiled(source.format(k=3)), (3,), {}, salt="s")


def test_fingerprint_salt_env_changes_keys(monkeypatch):
    before = job_fingerprint(_square, (3,), {})
    monkeypatch.setenv("REPRO_FARM_SALT", "release-2")
    after = job_fingerprint(_square, (3,), {})
    assert before != after


def test_canonical_handles_dataclasses_and_containers():
    from repro.platforms import AWSF1Platform

    p1 = canonical(AWSF1Platform())
    p2 = canonical(AWSF1Platform())
    assert p1 == p2
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


def test_builtins_fingerprint_by_their_module_name():
    """A builtin's ``__self__`` is its module, whose namespace reaches
    itself: the module reduces to its name."""
    assert canonical(abs) == {"__callable__": "builtins.abs", "self": {"__module__": "builtins"}}
    assert Job(abs, (1,)).fingerprint != Job(abs, (2,)).fingerprint
    assert Job(math.sqrt, (4,)).fingerprint == Job(math.sqrt, (4,)).fingerprint
    assert Job(math.sqrt, (4,)).fingerprint != Job(math.floor, (4,)).fingerprint


class _SelfReferring:
    def __init__(self):
        self.me = self

    def run(self):
        return 1


def test_a_self_referring_object_is_a_typed_error():
    with pytest.raises(TypeError, match=r"_SelfReferring that refers to itself.*'module:attr'"):
        Job(_SelfReferring().run, ()).fingerprint
    # A reference shared by two fields is no cycle.
    shared = [1, 2]
    assert canonical((shared, shared)) == canonical(([1, 2], [1, 2]))


# ------------------------------------------------------------------- cache
def test_cache_roundtrip_and_corruption(tmp_path):
    cache = ResultCache(str(tmp_path))
    fp = "ab" + "0" * 62
    assert cache.get(fp) == (False, None, {})
    cache.put(fp, {"x": 1}, meta={"wall_seconds": 2.5})
    hit, value, meta = cache.get(fp)
    assert hit and value == {"x": 1} and meta["wall_seconds"] == 2.5
    assert list(cache.entries()) == [fp]
    # Corrupt the entry on disk: next lookup is a miss and the file is gone.
    with open(cache.path_for(fp), "wb") as f:
        f.write(b"not json")
    assert cache.get(fp)[0] is False
    assert fp not in cache


def _stored(tmp_path, value=(1, 2.5)):
    """A cache holding one good entry; returns (cache, fingerprint)."""
    cache = ResultCache(str(tmp_path))
    fp = job_fingerprint(_square, (value,), {})
    cache.put(fp, value, meta={"wall_seconds": 0.5})
    assert cache.get(fp)[0]
    return cache, fp


def _is_dropped(cache, fp):
    return cache.get(fp) == (False, None, {}) and not os.path.exists(cache.path_for(fp))


def test_truncated_entry_is_a_miss_and_deleted(tmp_path):
    cache, fp = _stored(tmp_path)
    path = cache.path_for(fp)
    with open(path, "rb") as f:
        body = f.read()
    with open(path, "wb") as f:
        f.write(body[: len(body) // 2])
    assert _is_dropped(cache, fp)


def test_entry_under_the_wrong_fingerprint_is_a_miss_and_deleted(tmp_path):
    cache, fp = _stored(tmp_path)
    other = job_fingerprint(_square, (7,), {})
    os.makedirs(os.path.dirname(cache.path_for(other)), exist_ok=True)
    os.replace(cache.path_for(fp), cache.path_for(other))
    assert _is_dropped(cache, other)


def _write_value(cache, fp, value, meta=None):
    with open(cache.path_for(fp), "w") as f:
        json.dump({"fingerprint": fp, "value": value, "meta": meta or {}}, f)


def test_malformed_meta_is_a_miss_and_deleted(tmp_path):
    cache, fp = _stored(tmp_path)
    _write_value(cache, fp, 1, meta={"wall_seconds": "soon"})
    assert _is_dropped(cache, fp)


@dataclass
class _Foreign:
    command: str


@pytest.mark.parametrize("ref", ["os:system", f"{__name__}:_Foreign"])
def test_dataclass_tag_outside_repro_is_a_miss_and_deleted(tmp_path, ref):
    cache, fp = _stored(tmp_path)
    marker = tmp_path / "ran"
    _write_value(cache, fp, {"__dataclass__": ref, "fields": {"command": f"touch {marker}"}})
    assert _is_dropped(cache, fp)
    assert not marker.exists()


def test_dataclass_tag_naming_a_repro_non_dataclass_is_a_miss_and_deleted(tmp_path):
    cache, fp = _stored(tmp_path)
    target = tmp_path / "made-by-decode"
    _write_value(cache, fp, {"__dataclass__": "repro.farm.cache:ResultCache",
                             "fields": {"root": str(target)}})
    assert _is_dropped(cache, fp)
    assert not target.exists()


def test_put_refuses_values_it_cannot_decode(tmp_path):
    from dataclasses import make_dataclass

    cache = ResultCache(str(tmp_path))
    local = make_dataclass("Local", [("x", int)])
    for value in ({1: "int key"}, {3}, b"bytes", local(1)):
        with pytest.raises(TypeError):
            cache.put("ab" + "0" * 62, value)
    assert len(cache) == 0


_floats = st.floats() | st.sampled_from([float("inf"), float("-inf"), -0.0])
_keys = st.text(max_size=8) | st.sampled_from(["__tuple__", "__dict__", "__dataclass__", "fields"])
_leaves = (
    st.none() | st.booleans() | st.integers() | _floats | st.text(max_size=8)
    | st.builds(DesignPoint, worst_util=_floats, total_lut=_floats, build_seconds=_floats)
    | st.builds(Fig6Row, hls_ops=_floats)
)
_values = st.recursive(
    _leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=12,
)


@seed(20261017)
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(value=_values)
@example(value=[float("inf"), -0.0, (float("-inf"), {"__tuple__": 0.1})])
def test_cache_round_trips_values_exactly(tmp_path_factory, value):
    cache = ResultCache(str(tmp_path_factory.getbasetemp() / "round-trip"))
    fp = "cd" + "0" * 62
    cache.put(fp, value)
    hit, back, _meta = cache.get(fp)
    # repr tells -0.0 from 0.0 and a tuple from a list, and shows dict order.
    assert hit and repr(back) == repr(value)


def test_fingerprint_change_invalidates_only_affected_entries(tmp_path):
    farm = Farm(cache_dir=str(tmp_path))
    job_a, job_b = Job(_square, (2,)), Job(_square, (3,))
    farm.run([job_a, job_b])
    assert len(farm.cache) == 2

    # Change one job's parameters: only that entry misses; the sibling's
    # entry is untouched and still serves.
    farm2 = Farm(cache_dir=str(tmp_path))
    changed = Job(_square, (4,))
    res = farm2.run([changed, Job(_square, (3,))])
    assert [r.cache_hit for r in res] == [False, True]
    assert len(farm2.cache) == 3  # old entry for (2,) still present
    assert changed.fingerprint != job_a.fingerprint


def test_second_run_served_from_cache(tmp_path):
    jobs = lambda: [Job(_square, (i,)) for i in range(8)]  # noqa: E731
    first = Farm(cache_dir=str(tmp_path)).run(jobs())
    assert all(not r.cache_hit for r in first)
    again = Farm(cache_dir=str(tmp_path))
    second = again.run(jobs())
    assert all(r.cache_hit and r.worker == "cache" for r in second)
    assert [r.value for r in second] == [r.value for r in first]
    assert again.stats()["cache_hit_rate"] == 1.0


def test_cache_opt_out_per_job(tmp_path):
    farm = Farm(cache_dir=str(tmp_path))
    farm.run([Job(_square, (5,), cache=False)])
    assert len(farm.cache) == 0


# ------------------------------------------------------------ execution
def test_exceptions_fail_fast_and_propagate_via_map():
    farm = Farm(cache=False)
    res = farm.run([Job(_raise, ("bad point",)), Job(_square, (6,))])
    assert not res[0].ok and "ValueError: bad point" in res[0].error
    assert res[1].ok
    with pytest.raises(FarmJobError) as err:
        farm.map([Job(_raise, ("bad point",))])
    assert "bad point" in str(err.value)


def test_farm_runs_in_process_only():
    assert Farm(n_workers=1, cache=False).run([Job(_square, (3,))])[0].worker == "serial"
    for n in (0, 2, 4, None):
        with pytest.raises(ValueError):
            Farm(n_workers=n, cache=False)


# ----------------------------------------------------------- observability
def test_metrics_and_spans_registered_under_farm_namespace(tmp_path):
    farm = Farm(cache_dir=str(tmp_path))
    farm.run([Job(_square, (i,)) for i in range(3)])
    dump = farm.metrics()
    assert dump["farm/jobs_submitted"] == 3
    assert dump["farm/cache/misses"] == 3
    assert dump["farm/job_wall_seconds"]["count"] == 3
    # One span per job, exportable through the shared Perfetto exporter.
    spans = farm.tracer.closed_spans()
    assert len(spans) == 3
    assert all(s.track.startswith("farm/") for s in spans)
    assert validate_chrome_trace(farm.chrome_trace()) == []
    # Cache-served reruns appear as hit-marked spans.
    farm.run([Job(_square, (0,))])
    hit_spans = [s for s in farm.tracer.closed_spans() if s.args.get("cache_hit")]
    assert len(hit_spans) == 1


def test_artifact_exports(tmp_path):
    farm = Farm(cache_dir=str(tmp_path / "cache"))
    farm.run([Job(_square, (1,))])
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    farm.export_metrics(str(metrics_path))
    farm.export_chrome_trace(str(trace_path))
    assert metrics_path.exists() and trace_path.exists()
    stats = farm.stats()
    assert stats["cache"]["entries"] == 1
    assert stats["jobs_completed"] == 1
