"""Tests of the benchmark harness itself (not of the ``repro`` package).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import service_load
import tracer as tracing
from unit import WORKLOADS

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# The p90 rule: at least ten samples beyond it
# ---------------------------------------------------------------------------

def test_samples_beyond_is_exact():
    # 0.9 * 100 in floating point is 90.00000000000001; the rule must
    # still see exactly ten samples above p90.
    assert service_load.samples_beyond(100, 90) == 10
    assert service_load.samples_beyond(99, 90) == 9
    assert service_load.samples_beyond(1000, 99) == 10


def _load(succeeded, failed=0):
    sim = [{"cls": "ideal12", "status": 200, "method": "statevector",
            "counts": {"3": 8}, "shots": 8, "repeat_of": None}] * succeeded
    sim += [{"cls": "ideal12", "status": 500, "method": None,
             "counts": None, "shots": None, "repeat_of": None}] * failed
    return service_load.LoadResult(sim=sim)


@pytest.mark.parametrize("succeeded, failed, expected_failed", [
    (100, 0, 0),   # exactly ten latencies above p90
    (99, 0, 1),    # nine: the run's p90 fails too
    (99, 1, 2),    # one failed request leaves too few for p90
])
def test_check_needs_ten_latencies_beyond_p90(succeeded, failed, expected_failed):
    plan = {"requests": [None] * (succeeded + failed),
            "p90_min_beyond": service_load.P90_MIN_BEYOND}
    attempted, got_failed, _doc = service_load.check(plan, _load(succeeded, failed))
    assert attempted == succeeded + failed + 1
    assert got_failed == expected_failed


def test_full_plan_leaves_ten_latencies_beyond_p90():
    plan = service_load.make_plan(5, smoke=False)
    assert plan["p90_min_beyond"] == service_load.P90_MIN_BEYOND
    assert service_load.samples_beyond(len(plan["requests"]), 90) >= 10


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_kernel_builds():
    """KernelCache.get inside FusedTrajectoryScheduler.run, as in qfa16_traj."""
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def kernel_build():
        clock.tick(2.0)

    def scheduler_run():
        clock.tick(1.0)
        t.call("kernel", "KernelCache.get", kernel_build)
        clock.tick(0.5)
        t.call("kernel", "KernelCache.get", kernel_build)
        clock.tick(0.25)

    t.call("evolve", "FusedTrajectoryScheduler.run", scheduler_run)
    clock.tick(3.0)  # untraced remainder
    layers = tracing.summarize(t.spans)
    assert layers["evolve"]["busy_s"] == pytest.approx(1.75)
    assert layers["evolve"]["total_s"] == pytest.approx(5.75)
    assert layers["kernel"] == {"calls": 2, "busy_s": pytest.approx(4.0),
                                "total_s": pytest.approx(4.0)}
    wall = clock.now
    covered = tracing.coverage(t.spans, 0.0, wall)
    busy = sum(row["busy_s"] for row in layers.values())
    assert covered == pytest.approx(5.75)
    assert busy + (wall - covered) == pytest.approx(wall)
    assert tracing.thread_coverage(t.spans) == pytest.approx(busy)


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_length([]) == 0


def test_exception_still_closes_span():
    t = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.call("compile", "compile_circuit", boom)
    assert len(t.spans) == 1 and t._stack() == []


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")


def test_benchmark_json_matches_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _w, _g in run.PER_LAYER
    ]


def test_every_layer_metric_maps_to_a_workload():
    for name, _unit, _better, workloads, _getter in run.PER_LAYER:
        assert workloads and set(workloads) <= set(WORKLOADS), name


# ---------------------------------------------------------------------------
# The service request plan
# ---------------------------------------------------------------------------

def test_service_plan_is_seeded_and_fixed_in_shape():
    plan = service_load.make_plan(5, smoke=False)
    assert plan == service_load.make_plan(5, smoke=False)
    assert plan != service_load.make_plan(6, smoke=False)
    reqs = plan["requests"]
    assert len(reqs) == sum(service_load.MIX.values()) >= 100
    counts = {}
    for r in reqs:
        counts[r["cls"]] = counts.get(r["cls"], 0) + 1
    assert counts == {k: v for k, v in service_load.MIX.items() if v}
    for i, r in enumerate(reqs):
        if r["repeat_of"] is not None:
            src = reqs[r["repeat_of"]]
            assert r["repeat_of"] < i and src["cls"] in service_load._REPEATABLE
            assert src["body"] == r["body"]
    assert all(r["body"]["method"] == "auto" for r in reqs)
    # p90 must fall inside the slow (8-qubit density) class, away from
    # its boundary: more than 10% of requests are slow.
    slow = service_load.MIX["add44"] + service_load.MIX["mul22"]
    assert slow >= 0.1 * len(reqs) + 3


# ---------------------------------------------------------------------------
# End to end, at smoke size
# ---------------------------------------------------------------------------

def _bench(tmp_path, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1",
         "--out-dir", str(tmp_path), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload(tmp_path, workload, trace):
    proc = _bench(tmp_path, "--workload", workload, "--seed", "3", "--trace", trace,
                  "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else {
        name: unit for name, unit, *_ in run.PER_LAYER
    }
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in last["metrics"].values())
    else:
        metrics = {k: v["value"] for k, v in last["metrics"].items()}
        assert metrics["trace.attributed_frac"] > 0.5
    record = json.loads(
        (tmp_path / f"result-{workload}-3-trace{trace}.json").read_text()
    )
    if trace == "1" and workload != "service_mixed":
        # One thread: nested self times add up to the covered time.
        assert abs(record["units"][1]["trace"]["nesting_err_s"]) < 1e-6
    env = record["environment"]
    for key in ("nproc", "revision", "python", "numpy", "scipy", "blas_threads", "seed"):
        assert key in env


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "qfa16_cut", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
