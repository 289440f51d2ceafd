"""Self-tests of the e2e benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
tier-1's ``testpaths``).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import threading

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402
import trace as tracing  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _spanned(tracer, clock, name, seconds, *children):
    """A callable that takes ``seconds`` itself, then runs ``children``."""
    def body():
        clock.now += seconds
        for child in children:
            child()
    return tracer.span(name, body)


# ------------------------------------------------------------ span arithmetic

def test_self_time_of_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    leaf = _spanned(tracer, clock, "storage.cache", 2.0)
    first = _spanned(tracer, clock, "lsm.get", 3.0, leaf)       # 3 + 2
    second = _spanned(tracer, clock, "filters.point", 4.0)
    root = _spanned(tracer, clock, "system.get", 1.0, first, second)
    root()
    tracer.end_phase("pass")
    totals = tracer.aggregates()
    assert totals["system.get"] == {"calls": 1, "total_s": 10.0, "self_s": 1.0}
    assert totals["lsm.get"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert totals["filters.point"]["self_s"] == 4.0
    assert totals["storage.cache"]["self_s"] == 2.0
    # Self times partition the root span: nothing is counted twice or lost.
    assert sum(t["self_s"] for t in totals.values()) == 10.0
    assert tracer.root_seconds({threading.current_thread().name}) == 10.0


def test_nested_spans_of_one_name_count_inclusive_time_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    inner = _spanned(tracer, clock, "system.get", 2.0)
    middle = _spanned(tracer, clock, "system.get", 1.0, inner)
    outer = _spanned(tracer, clock, "system.get", 1.0, middle)
    outer()
    tracer.end_phase("pass")
    assert tracer.aggregates()["system.get"] == {
        "calls": 3, "total_s": 4.0, "self_s": 4.0}


def test_phases_keep_setup_apart_from_the_pass():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    build = _spanned(tracer, clock, "filters.build", 5.0)
    probe = _spanned(tracer, clock, "filters.point", 1.0)
    build()
    tracer.end_phase("setup")
    probe()
    tracer.end_phase("pass")
    build()  # teardown noise: filed under no phase anyone reads
    assert set(tracer.aggregates("setup")) == {"filters.build"}
    assert set(tracer.aggregates("pass")) == {"filters.point"}


def test_union_of_intervals_is_clipped_and_not_double_counted():
    assert tracing._union_seconds([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)],
                                  0.0, 10.0) == pytest.approx(6.0)


def test_work_on_a_thread_started_inside_a_span_is_its_child():
    tracer = tracing.Tracer()
    gate = threading.Event()

    def remote_work():
        gate.wait(5.0)

    child = tracer.span("server.client", remote_work)

    def fan_out():
        thread = threading.Thread(target=child)
        thread.start()
        gate.set()
        thread.join(5.0)
        assert not thread.is_alive()

    with tracing.installed(tracer):
        tracer.span("core.shard", fan_out)()
    tracer.end_phase("pass")
    totals = tracer.aggregates()
    shard = totals["core.shard"]
    # Nearly all of the parent's interval is covered by the child thread.
    assert totals["server.client"]["calls"] == 1
    assert shard["self_s"] < shard["total_s"]
    assert shard["self_s"] == pytest.approx(
        shard["total_s"] - totals["server.client"]["total_s"], abs=5e-3)


def test_one_in_n_requests_keep_their_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(sample_every=3, clock=clock)
    leaf = _spanned(tracer, clock, "lsm.get", 1.0)

    def body():
        clock.now += 1.0
        leaf()

    request = tracer.span("system.get", body, request=True)
    for _ in range(7):
        request()
    assert [tree["request"].rsplit("#", 1)[1] for tree in tracer.trees] == [
        "3", "6"]
    spans = tracer.trees[0]["spans"]
    assert [(s["name"], s["parent"]) for s in spans] == [
        ("system.get", -1), ("lsm.get", 0)]
    assert spans[1]["end_us"] - spans[1]["start_us"] == pytest.approx(1e6)


# ------------------------------------------------------------------- patching

def _tiny_service():
    from repro.lsm.db import LSMTree
    from repro.system.service import KVService

    db = LSMTree()
    service = KVService(db)
    service.put(1, b"key-a", b"value")
    return db, service


def test_closures_returned_by_getter_are_spanned():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        db, service = _tiny_service()
        get_one = service.getter(1)
        tracer.end_phase("setup")
        assert get_one(b"key-a").value == b"value"
        assert get_one(b"key-b").value is None
        tracer.end_phase("pass")
        db.close()
    totals = tracer.aggregates()
    # The closure calls themselves are spans, at both layers, and the
    # service closure is the parent of the store closure.
    assert totals["system.get"]["calls"] == 2
    assert totals["lsm.get"]["calls"] == 2
    assert totals["system.get"]["total_s"] >= totals["lsm.get"]["total_s"]
    assert totals["lsm.charge"]["calls"] >= 2


def test_every_patch_is_removed_even_when_the_workload_raises():
    from repro.lsm.db import LSMTree
    from repro.server import protocol

    before = {"getter": LSMTree.__dict__["getter"],
              "reopen": LSMTree.__dict__["reopen"],
              "encode_frame": protocol.encode_frame,
              "start": threading.Thread.__dict__["start"]}
    applied = []
    with pytest.raises(RuntimeError, match="workload blew up"):
        with tracing.installed(tracing.Tracer()) as patches:
            applied = list(patches.applied)
            assert LSMTree.__dict__["getter"] is not before["getter"]
            assert isinstance(LSMTree.__dict__["reopen"], classmethod)
            raise RuntimeError("workload blew up")
    assert len(applied) > 100
    for owner, attribute, original in applied:
        assert vars(owner)[attribute] is original, (owner, attribute)
    assert LSMTree.__dict__["getter"] is before["getter"]
    assert LSMTree.__dict__["reopen"] is before["reopen"]
    assert protocol.encode_frame is before["encode_frame"]
    assert threading.Thread.__dict__["start"] is before["start"]


def test_a_patch_target_that_is_gone_stops_the_traced_run():
    from repro.lsm.db import LSMTree

    patches = tracing._Patches(tracing.Tracer())
    try:
        with pytest.raises(tracing.PatchTargetMissing, match="no_such_call"):
            patches.method(LSMTree, "no_such_call", "lsm.get")
        with pytest.raises(tracing.PatchTargetMissing, match="core.learn"):
            patches.function(lambda: None, "core.learn")
        # A method inherited but not defined by the class itself would be
        # patched on the wrong owner: that is refused too.
        with pytest.raises(tracing.PatchTargetMissing):
            patches.methods((type("Derived", (LSMTree,), {}),), ("get",),
                            "lsm.get")
    finally:
        patches.restore()


def test_every_span_a_workload_expects_is_installed_and_silence_fails():
    import workloads

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    for workload in workloads.WORKLOADS.values():
        assert workload.expected_spans
        assert set(workload.expected_spans) <= tracer.span_names, workload
    aggregates = {"lsm.get": {"calls": 3}, "lsm.flush": {"calls": 0}}
    assert tracing.silent_spans(
        aggregates, ("lsm.get", "lsm.flush", "lsm.compact")) == [
            "lsm.compact", "lsm.flush"]


def test_compaction_counters_come_from_the_compactor_in_use():
    import workloads
    from repro.lsm.db import LSMTree
    from repro.lsm.options import LSMOptions

    for background in (False, True):
        db = LSMTree(LSMOptions(background_compaction=background))
        try:
            assert workloads._compaction_counters(db) == (0, 0)
            assert workloads.raw_counts(db)["compactions"] == 0
        finally:
            db.close()
    # No fallback: a tree without the attribute read stops the benchmark.
    stub = type("Renamed", (), {"options": LSMOptions()})()
    with pytest.raises(AttributeError):
        workloads._compaction_counters(stub)


# ---------------------------------------------------------------- statistics

def test_percentile_refuses_without_ten_samples_beyond_it():
    samples = list(range(1, 1000))
    with pytest.raises(ValueError, match="samples beyond"):
        stats.percentile(samples, 99)          # 999 samples leave 9.99
    assert stats.percentile(samples + [1000], 99) == 990
    assert stats.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile_or_none([1.0] * 50, 99) is None


def test_spread_matches_statistics_quantiles():
    values = [4.21, 4.4, 4.6, 5.0, 5.48]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_stall_fraction_is_wall_spent_in_requests_over_twenty_medians():
    latencies = {"put": [10.0] * 99 + [10_000.0], "get": [5.0] * 10,
                 "delete": []}
    assert stats.stall_fraction(latencies, 40_000.0) == pytest.approx(0.25)


# ------------------------------------------------------------------- compare

def _entry(values):
    return dict(stats.summarize(values), value=stats.quartiles(values)[1])


def test_compare_verdicts():
    steady = _entry([100.0, 101.0, 99.0])
    assert compare.verdict(steady, _entry([100.5, 101.0, 99.5]),
                           "higher", 0.10, False) == "same"
    assert compare.verdict(steady, _entry([80.0, 81.0, 79.0]),
                           "higher", 0.10, False) == "worse"
    assert compare.verdict(steady, _entry([80.0, 81.0, 79.0]),
                           "lower", 0.10, False) == "better"
    noisy = _entry([70.0, 100.0, 130.0])
    assert compare.verdict(noisy, _entry([60.0, 85.0, 120.0]),
                           "higher", 0.10, False) == "unresolved"
    # Absolute bounds: stall_frac may rise by 0.05, fail_frac not at all.
    assert compare.verdict({"value": 0.10}, {"value": 0.14},
                           "lower", 0.05, True) == "same"
    assert compare.verdict({"value": 0.0}, {"value": 1e-6},
                           "lower", 0.0, True) == "worse"


# -------------------------------------------------------------- the contract

def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["run_seconds"] == metrics.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        metrics.WORKLOAD_WHY)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=str(cwd), capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,table", [("0", metrics.END_TO_END),
                                         ("1", metrics.PER_LAYER)])
def test_last_line_is_the_contract_object(tmp_path, trace, table):
    done = _run("--workload", "ingest", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [row[0] for row in table]
    assert all(sorted(m) == ["unit", "value"]
               for m in result["metrics"].values())


def test_without_the_program_the_benchmark_fails_and_prints_no_result(
        tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
