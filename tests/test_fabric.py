"""Distributed sweep fabric: wire protocol, units, coordinator, parity.

The integration tests run real ``ServerThread`` workers (in-process
executors, as in the service tests) and drive them through
``run_sweep(fabric=...)``.  The load-bearing assertions are *byte
parity*: a distributed sweep — including runs with injected worker
kills, partitions, stragglers, reassignments and resumes — serialises
byte-identically to a clean single-host run (``elapsed_seconds``
zeroed, the one wall-clock field).
"""

import asyncio
import dataclasses
import http.client
import json
import math

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.results import sweep_from_dict, sweep_to_dict
from repro.experiments.runner import build_compiled_program, run_unit
from repro.experiments.serialize import (
    cell_from_json,
    cell_to_json,
    config_from_dict,
    config_to_dict,
    instances_from_json,
    instances_to_json,
)
from repro.experiments.sweep import SweepResult, run_sweep, sweep_fingerprint
from repro.fabric import (
    FabricCoordinator,
    NoWorkersError,
    WorkerRegistry,
    build_work_request,
    parse_work_request,
    parse_workers,
    partition_units,
)
from repro.fabric.transport import request_json
from repro.fabric.units import unit_id_for
from repro.fabric.wire import WireError
from repro.runtime import (
    CheckpointJournal,
    FabricFaultPlan,
    RetryPolicy,
    WorkerFaultSpec,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.service.server import ServerThread


def _config(**over) -> SweepConfig:
    base = dict(
        operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
        error_rates=(0.0, 0.05), depths=(2, None), instances=2,
        shots=32, trajectories=4, seed=1234,
    )
    base.update(over)
    return SweepConfig(**base)


def _instances(config):
    from repro.experiments.instances import generate_instances

    return generate_instances(
        config.operation, config.n, config.m, config.orders,
        config.instances, config.seed,
    )


def _dump(result) -> str:
    doc = sweep_to_dict(result)
    doc["elapsed_seconds"] = 0.0
    return json.dumps(doc, sort_keys=True)


def _addr(server: ServerThread) -> str:
    return f"{server.address[0]}:{server.address[1]}"


def _fusion_of(config, instances):
    programs = {
        (rate, depth): build_compiled_program(
            config.operation, config.n, config.m, depth,
            config.error_axis, rate, config.convention,
        )
        for rate in config.error_rates
        for depth in config.depths
    }
    return lambda key: programs[key].fusion_key


#: A value for every SweepConfig field that differs from ``_config()``'s.
_NON_DEFAULT = dict(
    operation="mul", n=2, m=2, orders=(2, 1), error_axis="1q",
    error_rates=(0.0, 0.01), depths=(None, 2), instances=3, shots=17,
    trajectories=5, seed=99, method="density", convention="pauli",
    label="every-field", backend="numpy32", batching="group", dedup=False,
    adaptive=True, adaptive_rounds=3, adaptive_delta=0.25, batch_rows=8,
    max_fragment_qubits=6,
)


def _every_field_config() -> SweepConfig:
    """A config whose every field is set away from its default."""
    base = _config()
    kwargs = {}
    for f in dataclasses.fields(SweepConfig):
        assert f.name in _NON_DEFAULT, f"no non-default value for {f.name}"
        assert _NON_DEFAULT[f.name] != getattr(base, f.name), f.name
        kwargs[f.name] = _NON_DEFAULT[f.name]
    return SweepConfig(**kwargs)


@pytest.fixture(scope="module")
def reference():
    """One clean local run every parity test compares against."""
    return run_sweep(_config(), workers=1)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWire:
    def test_config_round_trip(self):
        config = _config(batching="group", adaptive=True)
        assert config_from_dict(config_to_dict(config)) == config

    def test_instances_round_trip(self):
        config = _config()
        instances = _instances(config)
        rebuilt = instances_from_json(
            config, instances_to_json(instances)
        )
        assert instances_to_json(rebuilt) == instances_to_json(instances)

    def test_cell_round_trip_full_depth_sentinel(self):
        for key in [(0.05, 2), (0.0, None)]:
            assert cell_from_json(cell_to_json(key)) == key
        assert cell_to_json((0.0, None))[1] == "full"

    def test_every_config_field_survives_the_results_file(self):
        config = _every_field_config()
        result = SweepResult(config, {}, _instances(config))
        doc = json.loads(json.dumps(sweep_to_dict(result)))
        assert sweep_from_dict(doc).config == config

    def test_every_config_field_survives_the_wire(self):
        config = _every_field_config()
        instances = _instances(config)
        body = build_work_request(
            sweep_fingerprint(config, instances), "u-all", 1, config,
            instances, [(0.01, 2)],
        )
        parsed = parse_work_request(json.loads(json.dumps(body)))
        assert parsed["config"] == config

    def test_request_round_trip_with_faults(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        cells = [(0.05, 2), (0.0, None)]
        specs = [FaultSpec("nan", attempts=2), None]
        body = build_work_request(fp, "u-abc", 3, config, instances, cells, specs)
        parsed = parse_work_request(json.loads(json.dumps(body)))
        assert parsed["unit_id"] == "u-abc"
        assert parsed["attempt"] == 3
        assert parsed["cells"] == cells
        assert parsed["faults"][0] == specs[0]
        assert parsed["faults"][1] is None
        assert parsed["config"] == config

    def test_fingerprint_skew_rejected(self):
        config = _config()
        instances = _instances(config)
        body = build_work_request(
            "deadbeef", "u-abc", 1, config, instances, [(0.0, 2)]
        )
        with pytest.raises(WireError, match="fingerprint mismatch"):
            parse_work_request(body)

    def test_missing_fields_rejected(self):
        with pytest.raises(WireError, match="missing fields"):
            parse_work_request({"unit_id": "u-abc"})
        with pytest.raises(WireError, match="JSON object"):
            parse_work_request([1, 2, 3])
        with pytest.raises(WireError, match="bad sweep unit payload"):
            parse_work_request({
                "fingerprint": "f", "unit_id": "u", "attempt": 1,
                "config": {"n": 3}, "instances": [], "cells": [[0.0, 2]],
            })


# ----------------------------------------------------------------------
# Unit partitioning
# ----------------------------------------------------------------------
class TestUnits:
    def test_partition_bounds_and_covers(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        keys = [(r, d) for r in config.error_rates for d in config.depths]
        units = partition_units(
            keys, _fusion_of(config, instances), fp, max_cells=2
        )
        covered = [c for u in units for c in u.cells]
        order = lambda k: (k[0], -1 if k[1] is None else k[1])  # noqa: E731
        assert sorted(covered, key=order) == sorted(keys, key=order)
        assert all(len(u.cells) <= 2 for u in units)

    def test_unit_ids_deterministic_and_fingerprint_scoped(self):
        cells = [(0.0, 2), (0.05, 2)]
        assert unit_id_for("fp1", cells) == unit_id_for("fp1", cells)
        assert unit_id_for("fp1", cells) != unit_id_for("fp2", cells)
        assert unit_id_for("fp1", cells).startswith("u-")

    def test_restart_rederives_same_ids_for_remaining_work(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        fusion = _fusion_of(config, instances)
        keys = [(r, d) for r in config.error_rates for d in config.depths]
        first = {
            u.unit_id: u.cells
            for u in partition_units(keys, fusion, fp, max_cells=1)
        }
        # A restart with half the cells already journalled partitions
        # the remainder into a subset of the original unit ids.
        remaining = keys[2:]
        second = {
            u.unit_id: u.cells
            for u in partition_units(remaining, fusion, fp, max_cells=1)
        }
        assert set(second) <= set(first)
        for uid, cells in second.items():
            assert first[uid] == cells


# ----------------------------------------------------------------------
# Worker registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_load_dedup_comments(self, tmp_path):
        reg = WorkerRegistry(tmp_path / "fleet.txt")
        reg.register("127.0.0.1", 9001)
        reg.register("127.0.0.1", 9002)
        reg.register("127.0.0.1", 9001)  # duplicate collapses on load
        with (tmp_path / "fleet.txt").open("a") as fh:
            fh.write("# a comment\n\n")
        assert reg.load() == ["127.0.0.1:9001", "127.0.0.1:9002"]

    def test_parse_workers_forms(self, tmp_path):
        assert parse_workers("127.0.0.1:1,127.0.0.1:2") == [
            "127.0.0.1:1", "127.0.0.1:2",
        ]
        assert parse_workers(["127.0.0.1:3"]) == ["127.0.0.1:3"]
        reg = tmp_path / "fleet.txt"
        reg.write_text("127.0.0.1:4\n")
        assert parse_workers(reg) == ["127.0.0.1:4"]
        assert parse_workers(str(reg)) == ["127.0.0.1:4"]

    def test_malformed_address_rejected(self, tmp_path):
        reg = WorkerRegistry(tmp_path / "fleet.txt")
        with pytest.raises(ValueError):
            reg.register("", 80)
        (tmp_path / "fleet.txt").write_text("nonsense\n")
        with pytest.raises(ValueError):
            reg.load()


# ----------------------------------------------------------------------
# The /v1/work endpoint
# ----------------------------------------------------------------------
def _post_work(server, body):
    host, port = server.address
    return asyncio.run(
        request_json(host, port, "POST", "/v1/work", body, timeout=120.0)
    )


class TestWorkEndpoint:
    def test_executes_unit_bit_identically(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        cells = [(0.05, 2), (0.0, None)]
        with ServerThread() as srv:
            status, doc = _post_work(
                srv,
                build_work_request(fp, "u-x", 1, config, instances, cells),
            )
        assert status == 200
        assert doc["unit_id"] == "u-x"
        from repro.experiments.serialize import point_from_dict, point_to_dict

        local = run_unit(config, instances, cells)
        got = {
            cell_from_json(c): point_from_dict(p) for c, p in doc["points"]
        }
        assert set(got) == set(cells)
        for key in cells:
            assert point_to_dict(got[key]) == point_to_dict(local[key])

    def test_fingerprint_skew_is_400(self):
        config = _config()
        instances = _instances(config)
        body = build_work_request(
            "deadbeef", "u-x", 1, config, instances, [(0.0, 2)]
        )
        with ServerThread() as srv:
            status, doc = _post_work(srv, body)
        assert status == 400
        assert "fingerprint mismatch" in doc["error"]
        assert srv.service.work.units_rejected == 1

    def test_injected_cell_fault_is_500(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        body = build_work_request(
            fp, "u-x", 1, config, instances, [(0.05, 2)],
            [FaultSpec("raise", attempts=-1)],
        )
        with ServerThread() as srv:
            status, doc = _post_work(srv, body)
        assert status == 500
        assert "InjectedFault" in doc["error"]

    def test_nan_member_answers_200_with_non_finite_point(self):
        # Numerical health is judged by the receiving sweep, not the
        # worker: the unit succeeds and ships the poisoned point home.
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        cells = [(0.05, 2), (0.0, 2)]
        body = build_work_request(
            fp, "u-x", 1, config, instances, cells,
            [FaultSpec("nan", attempts=-1), None],
        )
        with ServerThread() as srv:
            status, doc = _post_work(srv, body)
        assert status == 200
        from repro.experiments.serialize import point_from_dict

        got = {
            cell_from_json(c): point_from_dict(p) for c, p in doc["points"]
        }
        assert math.isnan(got[(0.05, 2)].summary.sigma)
        assert math.isfinite(got[(0.0, 2)].summary.sigma)

    def test_draining_is_503(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        body = build_work_request(
            fp, "u-x", 1, config, instances, [(0.0, 2)]
        )
        with ServerThread() as srv:
            srv.service.draining = True
            status, doc = _post_work(srv, body)
            srv.service.draining = False
        assert status == 503

    def test_work_stats_surface_in_stats_endpoint(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        with ServerThread() as srv:
            _post_work(
                srv,
                build_work_request(fp, "u-x", 1, config, instances, [(0.0, 2)]),
            )
            host, port = srv.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request("GET", "/stats")
            doc = json.loads(conn.getresponse().read())
        assert doc["work"]["units_completed"] == 1
        assert doc["work"]["cells_completed"] == 1


# ----------------------------------------------------------------------
# Distributed sweeps: parity under faults
# ----------------------------------------------------------------------
class TestFabricSweep:
    def test_clean_distributed_run_byte_identical(self, reference):
        with ServerThread() as s1, ServerThread() as s2:
            res = run_sweep(
                _config(), workers=1, fabric=[_addr(s1), _addr(s2)]
            )
        assert res.complete
        assert _dump(res) == _dump(reference)

    @pytest.mark.parametrize("batching", ["off", "cell", "group"])
    def test_nan_cell_fails_alone(self, batching):
        # The three rates of one depth share a fabric unit; the poisoned
        # member fails alone as a non-retryable health error, and the
        # worker that returned it is not retired.
        config = _config(
            error_rates=(0.001, 0.002, 0.003), depths=(2,), batching=batching
        )
        plan = FaultPlan({(0.002, 2): FaultSpec("nan", attempts=-1)})
        notes = []
        with ServerThread() as srv:
            # Compared against a clean run over the same fleet: batch
            # geometry fields follow the unit layout, which differs from
            # a local batching="cell" run.
            clean = run_sweep(config, workers=1, fabric=[_addr(srv)])
            res = run_sweep(
                config, workers=1, fabric=[_addr(srv)], fault_plan=plan,
                progress=notes.append,
            )
        (f,) = res.failures
        assert f.key == (0.002, 2)
        assert f.error_type == "NumericalHealthError"
        assert f.attempts == 1
        assert f.retryable is False
        assert set(res.points) == {(0.001, 2), (0.003, 2)}
        for key, point in res.points.items():
            assert point == clean.points[key]
        assert not any("retiring" in n or "locally" in n for n in notes)

    def test_every_config_field_reaches_workers(self):
        # A worker that drops a config field derives another
        # fingerprint and rejects every unit as WorkRejected.
        config = _config(backend="numpy32")
        local = run_sweep(config, workers=1)
        with ServerThread() as srv:
            res = run_sweep(config, workers=1, fabric=[_addr(srv)])
        assert not res.failures
        assert _dump(res) == _dump(local)

    def test_worker_kill_reassigns_and_stays_identical(self, reference):
        with ServerThread() as s1, ServerThread() as s2:
            a1, a2 = _addr(s1), _addr(s2)
            plan = FabricFaultPlan(
                {a1: WorkerFaultSpec("kill", after_units=2)}
            )
            notes = []
            res = run_sweep(
                _config(), workers=1, fabric=[a1, a2],
                fabric_fault_plan=plan,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
                progress=notes.append,
            )
        assert res.complete
        assert _dump(res) == _dump(reference)
        # The injected kill always surfaces as a loss; whether the
        # worker also reaches full retirement depends on how fast the
        # survivor drains the queue.
        assert any("lost on" in n or "retiring worker" in n for n in notes)

    def test_partition_heals_and_stays_identical(self, reference):
        with ServerThread() as s1, ServerThread() as s2:
            a1, a2 = _addr(s1), _addr(s2)
            plan = FabricFaultPlan(
                {a1: WorkerFaultSpec("partition", after_units=1, duration=1)}
            )
            res = run_sweep(
                _config(), workers=1, fabric=[a1, a2],
                fabric_fault_plan=plan,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            )
        assert res.complete
        assert _dump(res) == _dump(reference)

    def test_slow_worker_lease_expiry_and_parity(self, reference):
        with ServerThread() as s1, ServerThread() as s2:
            a1, a2 = _addr(s1), _addr(s2)
            plan = FabricFaultPlan(
                {a1: WorkerFaultSpec("slow", after_units=1, slow_seconds=5.0)}
            )
            res = run_sweep(
                _config(), workers=1, fabric=[a1, a2],
                fabric_fault_plan=plan,
                lease_timeout=0.25,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            )
        assert res.complete
        assert _dump(res) == _dump(reference)

    def test_zero_workers_degrades_to_local(self, reference, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        notes = []
        res = run_sweep(
            _config(), workers=1, fabric=["127.0.0.1:1"],
            checkpoint=journal_path, progress=notes.append,
        )
        assert res.complete
        assert _dump(res) == _dump(reference)
        assert any("degrading to local execution" in n for n in notes)
        config = _config()
        instances = _instances(config)
        journal = CheckpointJournal(
            journal_path, sweep_fingerprint(config, instances)
        )
        downgrades = journal.load_events(["downgrade"])
        assert len(downgrades) == 1
        assert "0/1" in downgrades[0]["reason"]

    def test_whole_fleet_killed_finishes_locally(self, reference):
        with ServerThread() as s1:
            a1 = _addr(s1)
            plan = FabricFaultPlan(
                {a1: WorkerFaultSpec("kill", after_units=2)}
            )
            notes = []
            res = run_sweep(
                _config(), workers=1, fabric=[a1],
                fabric_fault_plan=plan,
                retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
                progress=notes.append,
            )
        assert res.complete
        assert _dump(res) == _dump(reference)
        assert any("finishing" in n and "locally" in n for n in notes)


# ----------------------------------------------------------------------
# Journal: events, resume, re-dispatch scope
# ----------------------------------------------------------------------
class TestJournalIntegration:
    def test_lease_and_ack_events_journalled(self, tmp_path, reference):
        journal_path = tmp_path / "sweep.jsonl"
        config = _config()
        with ServerThread() as s1:
            res = run_sweep(
                config, workers=1, fabric=[_addr(s1)],
                checkpoint=journal_path,
            )
        assert _dump(res) == _dump(reference)
        instances = _instances(config)
        journal = CheckpointJournal(
            journal_path, sweep_fingerprint(config, instances)
        )
        leases = journal.load_events(["lease"])
        acks = journal.load_events(["ack"])
        assert len(acks) == len({e["unit"] for e in leases})
        assert all(e["worker"] == _addr(s1) for e in acks)
        # Cell records stay v1 — fabric events never change cell schema.
        restored = journal.load()
        assert len(restored) == len(res.points)

    def test_resume_redispatches_only_incomplete_units(
        self, tmp_path, reference
    ):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        journal_path = tmp_path / "sweep.jsonl"
        journal = CheckpointJournal(journal_path, fp)
        # Pre-journal half the cells from the clean reference run — as
        # if a previous coordinator died after two acks.
        from repro.experiments.serialize import point_to_dict

        done = list(reference.points)[:2]
        for key in done:
            journal.record(cell_to_json(key), point_to_dict(reference.points[key]))
        with ServerThread() as s1:
            res = run_sweep(
                config, workers=1, fabric=[_addr(s1)],
                checkpoint=journal_path,
            )
            dispatched_cells = s1.service.work.cells_completed
        assert res.complete
        assert _dump(res) == _dump(reference)
        # Only the two incomplete cells crossed the wire.
        assert dispatched_cells == len(reference.points) - 2
        leased = {
            tuple(map(tuple, e["cells"]))
            for e in journal.load_events(["lease"])
        }
        for cells in leased:
            for cell in cells:
                assert cell_from_json(list(cell)) not in done


# ----------------------------------------------------------------------
# Coordinator unit behaviour against dead fleets
# ----------------------------------------------------------------------
class TestCoordinator:
    def test_no_workers_raises(self):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        with pytest.raises(NoWorkersError):
            FabricCoordinator(config, instances, [], fp)
        coord = FabricCoordinator(
            config, instances, ["127.0.0.1:1"], fp, probe_timeout=0.5
        )
        with pytest.raises(NoWorkersError, match="0/1"):
            coord.run([(0.0, 2)], lambda _k: "f")

    def test_nan_member_does_not_retire_worker(self):
        config = _config(error_rates=(0.001, 0.002, 0.003), depths=(2,))
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        plan = FaultPlan({(0.002, 2): FaultSpec("nan", attempts=-1)})
        points = {}
        with ServerThread() as s1:
            coord = FabricCoordinator(
                config, instances, [_addr(s1)], fp, cell_fault_plan=plan,
                on_result=lambda key, point, _a: points.update({key: point}),
            )
            failures, leftover = coord.run(
                [(0.001, 2), (0.002, 2), (0.003, 2)],
                _fusion_of(config, instances),
            )
        assert not failures and not leftover
        assert math.isnan(points[(0.002, 2)].summary.sigma)
        assert coord.report.workers_retired == []
        assert coord.report.units_failed == 0

    def test_report_counts(self, reference):
        config = _config()
        instances = _instances(config)
        fp = sweep_fingerprint(config, instances)
        points = {}
        with ServerThread() as s1:
            coord = FabricCoordinator(
                config, instances, [_addr(s1)], fp,
                on_result=lambda key, point, _a: points.update({key: point}),
            )
            pending = list(reference.points)
            failures, leftover = coord.run(
                pending, _fusion_of(config, instances)
            )
        assert not failures and not leftover
        assert set(points) == set(pending)
        assert coord.report.units_completed == coord.report.units_total
        assert coord.report.dispatches >= coord.report.units_total
        assert coord.report.workers_healthy == 1
