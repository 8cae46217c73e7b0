"""Chaos tests: injected crashes, hangs and NaNs through real sweeps.

Everything here is deterministic — the fault plan keys on (cell,
attempt) — so each recovery path is exercised reproducibly.  Marked
``faults`` because these tests deliberately kill worker processes and
recycle pools.
"""

import pytest

from repro.experiments import SweepConfig, run_sweep
from repro.experiments.results import sweep_from_dict, sweep_to_dict
from repro.runtime import FaultPlan, FaultSpec, InjectedFault, RetryPolicy, inject


def _cfg(**over):
    base = dict(
        operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
        error_rates=(0.0, 0.05), depths=(2, None), instances=2,
        shots=64, trajectories=4, seed=7,
    )
    base.update(over)
    return SweepConfig(**base)


def _fast_retry(**over):
    base = dict(max_attempts=3, backoff_base=0.02)
    base.update(over)
    return RetryPolicy(**base)


@pytest.fixture(scope="module")
def baseline():
    return run_sweep(_cfg(), workers=1)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode")

    def test_attempt_windows(self):
        assert FaultSpec("raise", attempts=1).active(1)
        assert not FaultSpec("raise", attempts=1).active(2)
        assert FaultSpec("raise", attempts=-1).active(99)

    def test_inject_none_is_noop(self):
        assert inject(None, ("k",), 1) is False

    def test_inject_raise(self):
        with pytest.raises(InjectedFault, match="attempt 1"):
            inject(FaultSpec("raise"), ("k",), 1)

    def test_crash_softens_to_raise_in_main_process(self):
        with pytest.raises(InjectedFault, match="main process"):
            inject(FaultSpec("crash"), ("k",), 1)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan({("k",): FaultSpec("raise")})


@pytest.mark.faults
class TestInjectedRecovery:
    def test_transient_raise_retries_to_identical_result(self, baseline):
        plan = FaultPlan({(0.05, 2): FaultSpec("raise", attempts=1)})
        res = run_sweep(
            _cfg(), workers=1, retry=_fast_retry(), fault_plan=plan
        )
        assert res.failures == []
        for key, pr in baseline.points.items():
            assert res.points[key].outcomes == pr.outcomes

    def test_worker_crash_recovers_bit_for_bit(self, baseline):
        plan = FaultPlan({(0.05, None): FaultSpec("crash", attempts=1)})
        res = run_sweep(
            _cfg(), workers=2, retry=_fast_retry(), fault_plan=plan
        )
        assert res.failures == []
        assert res.complete
        for key, pr in baseline.points.items():
            assert res.points[key].outcomes == pr.outcomes

    def test_hang_times_out_then_recovers(self, baseline):
        plan = FaultPlan(
            {(0.0, 2): FaultSpec("hang", attempts=1, hang_seconds=60)}
        )
        res = run_sweep(
            _cfg(),
            workers=2,
            retry=_fast_retry(timeout=2.0),
            fault_plan=plan,
        )
        assert res.failures == []
        for key, pr in baseline.points.items():
            assert res.points[key].outcomes == pr.outcomes

    def test_permanent_failure_yields_partial_result(self, baseline):
        plan = FaultPlan({(0.05, None): FaultSpec("raise", attempts=-1)})
        res = run_sweep(
            _cfg(),
            workers=1,
            retry=_fast_retry(max_attempts=2),
            fault_plan=plan,
        )
        assert len(res.points) == 3
        (f,) = res.failures
        assert (f.error_rate, f.depth) == (0.05, None)
        assert f.error_type == "InjectedFault"
        assert f.attempts == 2
        assert not res.complete
        assert res.failed_keys == {(0.05, None)}
        # Surviving cells are still bit-for-bit correct.
        for key, pr in res.points.items():
            assert pr.outcomes == baseline.points[key].outcomes

    @pytest.mark.parametrize("batching", ["off", "cell", "group"])
    def test_nan_fault_is_non_retryable_health_error(self, batching):
        # One depth row of three noisy rates: with batching="group" the
        # three cells share one work unit, and only the poisoned member
        # may fail.
        cfg = _cfg(
            error_rates=(0.01, 0.02, 0.05), depths=(2,), batching=batching
        )
        clean = run_sweep(cfg, workers=1)
        plan = FaultPlan({(0.02, 2): FaultSpec("nan", attempts=-1)})
        res = run_sweep(
            cfg,
            workers=1,
            retry=_fast_retry(max_attempts=5),
            fault_plan=plan,
        )
        (f,) = res.failures
        assert f.key == (0.02, 2)
        assert f.error_type == "NumericalHealthError"
        assert f.attempts == 1  # never retried
        assert not f.retryable
        # One depth name throughout: the raw AQFT depth, not its label.
        assert "cell (rate=0.02, depth=2)" in f.message
        assert str(f).startswith("rate=0.0200 depth=2: ")
        assert set(res.points) == {(0.01, 2), (0.05, 2)}
        for key, point in res.points.items():
            assert point == clean.points[key]

    def test_failed_sweep_renders_and_serialises(self):
        plan = FaultPlan({(0.05, 2): FaultSpec("raise", attempts=-1)})
        res = run_sweep(
            _cfg(),
            workers=1,
            retry=_fast_retry(max_attempts=2),
            fault_plan=plan,
        )
        from repro.experiments import render_panel

        text = render_panel(res)
        assert "FAILED" in text
        assert "InjectedFault" in text

        round_tripped = sweep_from_dict(sweep_to_dict(res))
        (f,) = round_tripped.failures
        assert f.error_type == "InjectedFault"
        assert (f.error_rate, f.depth) == (0.05, 2)
        assert f.attempts == 2


@pytest.mark.faults
class TestCheckpointResume:
    def test_interrupted_run_resumes_identically(self, baseline, tmp_path):
        journal = tmp_path / "panel.jsonl"
        plan = FaultPlan({(0.05, None): FaultSpec("raise", attempts=-1)})
        partial = run_sweep(
            _cfg(),
            workers=1,
            checkpoint=journal,
            retry=_fast_retry(max_attempts=2),
            fault_plan=plan,
        )
        assert len(partial.failures) == 1
        assert journal.exists()

        msgs = []
        resumed = run_sweep(
            _cfg(), workers=1, checkpoint=journal, progress=msgs.append
        )
        assert resumed.complete
        assert any("restored from checkpoint" in m for m in msgs)
        for key, pr in baseline.points.items():
            assert resumed.points[key].outcomes == pr.outcomes

    def test_resume_false_discards_journal(self, tmp_path):
        journal = tmp_path / "panel.jsonl"
        run_sweep(_cfg(), workers=1, checkpoint=journal)
        assert journal.exists()
        msgs = []
        res = run_sweep(
            _cfg(),
            workers=1,
            checkpoint=journal,
            resume=False,
            progress=msgs.append,
        )
        assert res.complete
        assert not any("restored" in m for m in msgs)

    def test_config_change_invalidates_checkpoint(self, tmp_path):
        journal = tmp_path / "panel.jsonl"
        run_sweep(_cfg(), workers=1, checkpoint=journal)
        msgs = []
        res = run_sweep(
            _cfg(seed=8), workers=1, checkpoint=journal, progress=msgs.append
        )
        assert res.complete
        assert not any("restored" in m for m in msgs)

    def test_pooled_run_checkpoints_and_resumes(self, baseline, tmp_path):
        journal = tmp_path / "panel.jsonl"
        run_sweep(_cfg(), workers=2, checkpoint=journal)
        msgs = []
        resumed = run_sweep(
            _cfg(), workers=2, checkpoint=journal, progress=msgs.append
        )
        assert any("restored from checkpoint" in m for m in msgs)
        for key, pr in baseline.points.items():
            assert resumed.points[key].outcomes == pr.outcomes
