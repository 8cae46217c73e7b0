"""Tests for the batched trajectory scheduler (repro.sim.batch).

The load-bearing claims, each pinned here:

* **Bitwise invariance** — fusion, dedup and chunk geometry change how
  much simulation work runs, never its results: for identical task RNG
  streams, every knob combination yields identical ``Counts``.
* **Sweep integration** — ``batching="cell"`` and ``batching="group"``
  produce bit-identical sweeps; ``batching="off"`` reproduces the
  legacy per-cell path exactly (it *is* that path).
* **Adaptive allocation** — with the exact ``|D| > remaining`` rule
  (delta=0), early-decided tasks keep the same verdict the full budget
  would give, and spend records decrease.
* **Efficiency metadata** — dedup ratios / occupancy / spend flow into
  :class:`~repro.experiments.runner.PointResult`, survive JSON
  round-trips, and feed the process-wide ``scheduler_stats()``.
"""

import numpy as np
import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.results import sweep_from_dict, sweep_to_dict
from repro.experiments.runner import (
    build_compiled_program,
    run_cells_fused,
    run_point,
)
from repro.experiments.sweep import run_sweep
from repro.metrics.success import evaluate_instance
from repro.runtime.counters import COUNTERS
from repro.sim.batch import (
    FusedTrajectoryScheduler,
    TrajectoryTask,
    scheduler_stats,
)
from repro.sim.engines import simulate_counts
from repro.sim.trajectories import TrajectoryEngine


def _program(rate=0.002, depth=None, n=4, m=3):
    return build_compiled_program("add", n, m, depth, "1q", rate, "qiskit")


def _tasks(program, count=3, shots=512, trajectories=16, seed=99,
           correct=None):
    return [
        TrajectoryTask(
            key=i,
            program=program,
            shots=shots,
            trajectories=trajectories,
            rng=np.random.default_rng((seed, i)),
            correct=correct,
        )
        for i in range(count)
    ]


def _counts_maps(results):
    return {k: dict(r.counts.items()) for k, r in results.items()}


class TestBitwiseInvariance:
    @pytest.mark.parametrize(
        "fuse,dedup,max_rows",
        [
            (False, False, None),
            (False, True, None),
            (True, False, None),
            (True, True, None),
            (True, True, 2),
            (True, True, 1),
        ],
    )
    def test_knobs_do_not_change_counts(self, fuse, dedup, max_rows):
        program = _program()
        baseline = FusedTrajectoryScheduler(fuse=False, dedup=False).run(
            _tasks(program)
        )
        got = FusedTrajectoryScheduler(
            fuse=fuse, dedup=dedup, max_batch_rows=max_rows
        ).run(_tasks(program))
        assert _counts_maps(got) == _counts_maps(baseline)

    def test_fusion_across_rates_is_invisible(self):
        """Tasks of different error rates fused into one batch produce
        exactly what each produces alone."""
        progs = [_program(rate=r) for r in (0.001, 0.004, 0.008)]
        assert len({p.fusion_key for p in progs}) == 1
        solo = {}
        for j, p in enumerate(progs):
            t = TrajectoryTask(
                key=j, program=p, shots=400, trajectories=12,
                rng=np.random.default_rng((5, j)),
            )
            solo[j] = FusedTrajectoryScheduler(fuse=False).run([t])[j]
        mixed = FusedTrajectoryScheduler(fuse=True).run(
            [
                TrajectoryTask(
                    key=j, program=p, shots=400, trajectories=12,
                    rng=np.random.default_rng((5, j)),
                )
                for j, p in enumerate(progs)
            ]
        )
        for j in range(len(progs)):
            assert dict(mixed[j].counts.items()) == dict(
                solo[j].counts.items()
            )

    def test_different_axes_do_not_fuse(self):
        p1 = build_compiled_program("add", 4, 3, None, "1q", 0.002, "qiskit")
        p2 = build_compiled_program("add", 4, 3, None, "2q", 0.002, "qiskit")
        assert p1.fusion_key != p2.fusion_key

    def test_dedup_counts_match_statistics(self):
        """Dedup'd sampling stays faithful to the trajectory ensemble."""
        program = _program(rate=0.003)
        shots = 20000
        eng_counts = TrajectoryEngine(
            trajectories=64, rng=np.random.default_rng(21)
        ).run(program, shots=shots)
        task = TrajectoryTask(
            key=0, program=program, shots=shots, trajectories=64,
            rng=np.random.default_rng(22),
        )
        sch_counts = FusedTrajectoryScheduler().run([task])[0].counts
        pa = {k: v / shots for k, v in eng_counts.items()}
        pb = {k: v / shots for k, v in sch_counts.items()}
        tv = 0.5 * sum(
            abs(pa.get(k, 0) - pb.get(k, 0)) for k in set(pa) | set(pb)
        )
        assert tv < 0.05

    def test_non_pauli_program_rejected(self):
        from repro.circuits.circuit import QuantumCircuit
        from repro.noise.channels import thermal_relaxation_error
        from repro.noise.model import NoiseModel
        from repro.sim.program import compile_circuit

        circ = QuantumCircuit(2)
        circ.h(0)
        circ.cx(0, 1)
        noise = NoiseModel()
        noise.add_all_qubit_quantum_error(
            thermal_relaxation_error(50e3, 70e3, 35.0), ["h"]
        )
        program = compile_circuit(circ, noise)
        assert not program.pauli_only
        with pytest.raises(ValueError, match="Pauli-only"):
            TrajectoryTask(
                key=0, program=program, shots=10, trajectories=4,
                rng=np.random.default_rng(0),
            )


class TestEngineAndSimulateCounts:
    def test_trajectory_engine_dedup_flag(self):
        program = _program()
        a = TrajectoryEngine(
            trajectories=16, rng=np.random.default_rng(3), dedup=True
        ).run(program, shots=256)
        # Same stream through the public simulate_counts entry point.
        b = simulate_counts(
            program, shots=256, method="trajectory", trajectories=16,
            rng=np.random.default_rng(3), dedup=True,
        )
        assert dict(a.items()) == dict(b.items())
        assert a.shots == 256

    def test_dedup_default_off_preserves_legacy_stream(self):
        program = _program()
        legacy = TrajectoryEngine(
            trajectories=16, rng=np.random.default_rng(3)
        ).run(program, shots=256)
        default = simulate_counts(
            program, shots=256, method="trajectory", trajectories=16,
            rng=np.random.default_rng(3),
        )
        assert dict(legacy.items()) == dict(default.items())


class TestAdaptive:
    def test_verdict_matches_full_budget(self):
        """Exact-rule early stopping never flips the success verdict."""
        program = _program(rate=0.004)
        from repro.experiments.instances import generate_instances

        insts = generate_instances("add", 4, 3, (4, 4), 4, seed=11)
        for i, inst in enumerate(insts):
            correct = inst.correct_outcomes()
            full = FusedTrajectoryScheduler(adaptive=False).run(
                [
                    TrajectoryTask(
                        key=0, program=program, shots=1024,
                        trajectories=16,
                        rng=np.random.default_rng((7, i)),
                        initial_state=inst.initial_statevector(),
                        correct=correct,
                    )
                ]
            )[0]
            adap = FusedTrajectoryScheduler(
                adaptive=True, rounds=4, delta=0.0
            ).run(
                [
                    TrajectoryTask(
                        key=0, program=program, shots=1024,
                        trajectories=16,
                        rng=np.random.default_rng((7, i)),
                        initial_state=inst.initial_statevector(),
                        correct=correct,
                    )
                ]
            )[0]
            v_full = evaluate_instance(full.counts, correct).success
            v_adap = evaluate_instance(adap.counts, correct).success
            assert v_full == v_adap
            assert adap.shots_spent <= full.shots_spent
            if adap.decided_early:
                assert adap.shots_spent < full.shots_spent
                assert adap.rounds_run < 4

    def test_single_round_is_nonadaptive(self):
        program = _program()
        a = FusedTrajectoryScheduler(adaptive=False).run(_tasks(program))
        b = FusedTrajectoryScheduler(adaptive=True, rounds=1).run(
            _tasks(program)
        )
        assert _counts_maps(a) == _counts_maps(b)

    def test_spend_accounting(self):
        program = _program(rate=0.002)
        res = FusedTrajectoryScheduler(adaptive=True, rounds=4).run(
            _tasks(program, correct=frozenset({0}))
        )
        for r in res.values():
            assert r.shots_spent <= 512
            assert r.rounds_run <= 4
            assert r.counts.shots == r.shots_spent

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="rounds"):
            FusedTrajectoryScheduler(rounds=0, adaptive=True)
        with pytest.raises(ValueError, match="delta"):
            FusedTrajectoryScheduler(delta=1.5)
        with pytest.raises(ValueError, match="max_batch_rows"):
            FusedTrajectoryScheduler(max_batch_rows=0)


class TestSweepIntegration:
    CFG = dict(
        operation="add", n=4, m=3, orders=(4, 4), error_axis="1q",
        error_rates=(0.0, 0.001, 0.003), depths=(3, None),
        instances=3, shots=128, trajectories=8, seed=42,
    )

    def test_cell_equals_group(self):
        cfg = SweepConfig(**self.CFG)
        cell = run_sweep(cfg.with_overrides(batching="cell"), workers=1)
        grp = run_sweep(cfg.with_overrides(batching="group"), workers=1)
        assert set(cell.points) == set(grp.points)
        for k in cell.points:
            a, b = cell.points[k], grp.points[k]
            assert [(o.success, o.min_diff, o.shots) for o in a.outcomes] \
                == [(o.success, o.min_diff, o.shots) for o in b.outcomes]
            assert a.dedup_ratio == b.dedup_ratio
            assert a.trajectories_spent == b.trajectories_spent

    def test_off_is_legacy_run_point(self):
        cfg = SweepConfig(**self.CFG)
        from repro.experiments.instances import generate_instances

        insts = generate_instances("add", 4, 3, (4, 4), 3, seed=42)
        swept = run_sweep(cfg, workers=1, instances=insts)
        for (rate, depth), pr in swept.points.items():
            direct = run_point(cfg, insts, rate, depth)
            assert [(o.success, o.min_diff) for o in pr.outcomes] == [
                (o.success, o.min_diff) for o in direct.outcomes
            ]
            # Legacy path reports neutral efficiency metadata.
            assert pr.dedup_ratio == 1.0
            assert pr.trajectories_spent == 0

    def test_fused_metadata_round_trips(self):
        cfg = SweepConfig(**self.CFG).with_overrides(batching="group")
        res = run_sweep(cfg, workers=1)
        noisy = [
            p for p in res.points.values() if p.error_rate > 0
        ]
        assert noisy and all(p.trajectories_spent > 0 for p in noisy)
        assert all(p.dedup_ratio >= 1.0 for p in noisy)
        assert all(p.batch_occupancy > 0 for p in noisy)
        back = sweep_from_dict(sweep_to_dict(res))
        assert back.config.batching == "group"
        for k, p in res.points.items():
            q = back.points[k]
            assert q.dedup_ratio == pytest.approx(p.dedup_ratio)
            assert q.batch_occupancy == pytest.approx(p.batch_occupancy)
            assert q.trajectories_spent == p.trajectories_spent

    def test_run_cells_fused_ideal_fallback(self):
        cfg = SweepConfig(**self.CFG)
        from repro.experiments.instances import generate_instances

        insts = generate_instances("add", 4, 3, (4, 4), 2, seed=42)
        res = run_cells_fused(cfg, insts, [(0.0, None)])
        pr = res[(0.0, None)]
        assert pr.summary.num_instances == 2
        assert pr.dedup_ratio == 1.0  # fell back to run_point

    def test_adaptive_sweep_spends_less(self):
        cfg = SweepConfig(**self.CFG).with_overrides(batching="group")
        base = run_sweep(cfg, workers=1)
        adap = run_sweep(
            cfg.with_overrides(adaptive=True, adaptive_rounds=4),
            workers=1,
        )
        spend = lambda r: sum(  # noqa: E731
            p.trajectories_spent for p in r.points.values()
        )
        assert spend(adap) <= spend(base)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batching"):
            SweepConfig(**self.CFG).with_overrides(batching="sideways")
        with pytest.raises(ValueError, match="adaptive_rounds"):
            SweepConfig(**self.CFG).with_overrides(adaptive_rounds=0)
        with pytest.raises(ValueError, match="adaptive_delta"):
            SweepConfig(**self.CFG).with_overrides(adaptive_delta=1.0)
        with pytest.raises(ValueError, match="batch_rows"):
            SweepConfig(**self.CFG).with_overrides(batch_rows=-1)


class TestSchedulerStats:
    def test_counters_accumulate(self):
        COUNTERS.reset("scheduler")
        program = _program()
        FusedTrajectoryScheduler().run(_tasks(program, count=2))
        stats = scheduler_stats()
        assert stats["tasks"] == 2
        assert stats["trajectories_sampled"] > 0
        assert stats["rows_simulated"] > 0
        assert stats["dedup_ratio"] >= 1.0
        assert stats["batch_occupancy"] > 0
        COUNTERS.reset("scheduler")
        assert scheduler_stats()["tasks"] == 0

    def test_service_gauges_exposed(self):
        from repro.service.server import ArithmeticService

        service = ArithmeticService()
        text = service.metrics_text()
        assert "trajectory_dedup_ratio" in text
        assert "trajectory_batch_occupancy" in text
        assert "trajectories_spent_total" in text
        service.executor.shutdown(wait=False)
