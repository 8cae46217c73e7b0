#!/usr/bin/env python
"""Chaos smoke check for the fault-tolerant sweep runtime.

Runs one tiny sweep fault-free, then re-runs it under injected worker
crashes, hangs and transient exceptions — with a checkpoint journal —
and asserts every recovery path lands on the bit-for-bit identical
result.  A final scenario injects a permanent failure and checks the
sweep still completes with a structured ``FailedCell`` record, and a
``nan`` fault checks that a non-finite cell fails alone, never retried,
while the other cells of its work unit survive.

With ``--fabric`` the same discipline is applied to the distributed
sweep fabric: an in-process fleet of real HTTP workers is subjected to
coordinator-side kills, partitions, slow workers and a dead fleet, and
every recovery path must again be bit-identical to the fault-free run;
the non-finite-cell scenario runs there too, across real HTTP workers.

Exit status 0 means all scenarios passed; 1 means at least one failed.

Usage: python scripts/chaos_check.py [--workers N] [--fabric] [--verbose]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import SweepConfig, run_sweep
from repro.runtime import (
    FabricFaultPlan,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    WorkerFaultSpec,
)


def lint_preflight(config: SweepConfig) -> bool:
    """Lint the transpiled circuits this sweep will run; False on errors."""
    from repro.core.adders import qfa_circuit
    from repro.lint import LintContext, lint_circuit
    from repro.transpile.basis import IBM_BASIS
    from repro.transpile.decompose import decompose_to_basis

    context = LintContext(basis=IBM_BASIS)
    ok = True
    for depth in config.depths:
        circuit = qfa_circuit(config.n, config.m, depth=depth)
        report = lint_circuit(decompose_to_basis(circuit, IBM_BASIS), context)
        for diag in report:
            print(f"  lint: {diag.render()}")
        ok = ok and report.ok()
    return ok


def _config() -> SweepConfig:
    return SweepConfig(
        operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
        error_rates=(0.0, 0.05), depths=(2, None), instances=2,
        shots=64, trajectories=4, seed=1234,
    )


def _retry(**over) -> RetryPolicy:
    base = dict(max_attempts=3, backoff_base=0.02)
    base.update(over)
    return RetryPolicy(**base)


def _assert_identical(reference, candidate, label: str) -> None:
    if candidate.failures:
        raise AssertionError(
            f"{label}: unexpected failures {candidate.failures}"
        )
    for key, ref_point in reference.points.items():
        got = candidate.points[key]
        if got.outcomes != ref_point.outcomes:
            raise AssertionError(
                f"{label}: cell {key} diverged from the fault-free run"
            )


def scenario_transient_raise(reference, workers: int) -> None:
    plan = FaultPlan({(0.05, 2): FaultSpec("raise", attempts=1)})
    res = run_sweep(
        _config(), workers=workers, retry=_retry(), fault_plan=plan
    )
    _assert_identical(reference, res, "transient raise")


def scenario_worker_crash(reference, workers: int) -> None:
    plan = FaultPlan({(0.05, None): FaultSpec("crash", attempts=1)})
    res = run_sweep(
        _config(), workers=max(workers, 2), retry=_retry(), fault_plan=plan
    )
    _assert_identical(reference, res, "worker crash")


def scenario_hang_timeout(reference, workers: int) -> None:
    plan = FaultPlan({(0.0, 2): FaultSpec("hang", attempts=1, hang_seconds=60)})
    res = run_sweep(
        _config(),
        workers=max(workers, 2),
        retry=_retry(timeout=2.0),
        fault_plan=plan,
    )
    _assert_identical(reference, res, "hang + timeout")


def scenario_checkpoint_resume(reference, workers: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "panel.jsonl"
        plan = FaultPlan({(0.05, None): FaultSpec("raise", attempts=-1)})
        partial = run_sweep(
            _config(),
            workers=workers,
            checkpoint=journal,
            retry=_retry(max_attempts=2),
            fault_plan=plan,
        )
        if not partial.failures:
            raise AssertionError("checkpoint resume: fault was not injected")
        messages = []
        resumed = run_sweep(
            _config(),
            workers=workers,
            checkpoint=journal,
            progress=messages.append,
        )
        if not any("restored from checkpoint" in m for m in messages):
            raise AssertionError(
                "checkpoint resume: no cells restored from the journal"
            )
        _assert_identical(reference, resumed, "checkpoint resume")


def scenario_permanent_failure(reference, workers: int) -> None:
    plan = FaultPlan({(0.05, 2): FaultSpec("raise", attempts=-1)})
    res = run_sweep(
        _config(),
        workers=workers,
        retry=_retry(max_attempts=2),
        fault_plan=plan,
    )
    if res.complete or len(res.failures) != 1:
        raise AssertionError(
            "permanent failure: expected exactly one FailedCell, got "
            f"{res.failures}"
        )
    failure = res.failures[0]
    if failure.error_type != "InjectedFault" or failure.attempts != 2:
        raise AssertionError(f"permanent failure: bad record {failure}")
    for key, point in res.points.items():
        if point.outcomes != reference.points[key].outcomes:
            raise AssertionError(
                f"permanent failure: surviving cell {key} diverged"
            )


#: The cell the non-finite scenarios poison with a permanent ``nan``.
_NAN_CELL = (0.05, 2)


def _assert_nan_cell_fails_alone(reference, res, label: str) -> None:
    """Exactly the poisoned cell failed, as a non-retryable health
    error on its first attempt; every other cell matches ``reference``."""
    if len(res.failures) != 1:
        raise AssertionError(
            f"{label}: expected exactly one FailedCell, got {res.failures}"
        )
    failure = res.failures[0]
    if (
        failure.key != _NAN_CELL
        or failure.error_type != "NumericalHealthError"
        or failure.attempts != 1
        or failure.retryable
    ):
        raise AssertionError(f"{label}: bad record {failure}")
    expected = set(reference.points) - {_NAN_CELL}
    if set(res.points) != expected:
        raise AssertionError(
            f"{label}: surviving cells {sorted(res.points, key=str)} "
            f"!= {sorted(expected, key=str)}"
        )
    for key, point in res.points.items():
        if point.outcomes != reference.points[key].outcomes:
            raise AssertionError(f"{label}: surviving cell {key} diverged")


def scenario_nan_fails_alone(reference, workers: int) -> None:
    # batching="group" puts fusion-compatible cells (the noisy rates of
    # one depth) into one work unit, so the poisoned cell shares its
    # unit with a healthy sibling.
    config = dataclasses.replace(
        _config(), batching="group", error_rates=(0.0, 0.02, 0.05)
    )
    group_reference = run_sweep(config, workers=1)
    plan = FaultPlan({_NAN_CELL: FaultSpec("nan", attempts=-1)})
    res = run_sweep(
        config, workers=workers, retry=_retry(), fault_plan=plan
    )
    _assert_nan_cell_fails_alone(group_reference, res, "non-finite cell")


SCENARIOS = (
    ("transient raise retried to success", scenario_transient_raise),
    ("worker crash recovered via pool respawn", scenario_worker_crash),
    ("hang detected by timeout and retried", scenario_hang_timeout),
    ("interrupted run resumed from checkpoint", scenario_checkpoint_resume),
    ("permanent failure yields partial result", scenario_permanent_failure),
    ("non-finite cell fails alone", scenario_nan_fails_alone),
)


# ----------------------------------------------------------------------
# Distributed fabric scenarios (--fabric): in-process HTTP worker fleet
# ----------------------------------------------------------------------
def _fleet(count: int = 2):
    """Context manager yielding ``count`` live worker addresses."""
    import contextlib

    from repro.service.server import ServerThread

    @contextlib.contextmanager
    def manager():
        with contextlib.ExitStack() as stack:
            servers = [
                stack.enter_context(ServerThread()) for _ in range(count)
            ]
            yield [f"{s.address[0]}:{s.address[1]}" for s in servers]

    return manager()


def scenario_fabric_clean(reference, workers: int) -> None:
    with _fleet(2) as addresses:
        res = run_sweep(_config(), workers=1, fabric=addresses)
    _assert_identical(reference, res, "fabric clean")


def scenario_fabric_kill(reference, workers: int) -> None:
    with _fleet(2) as addresses:
        plan = FabricFaultPlan(
            {addresses[0]: WorkerFaultSpec("kill", after_units=1)}
        )
        res = run_sweep(
            _config(), workers=1, fabric=addresses,
            fabric_fault_plan=plan, retry=_retry(),
        )
    _assert_identical(reference, res, "fabric worker kill")


def scenario_fabric_partition(reference, workers: int) -> None:
    with _fleet(2) as addresses:
        plan = FabricFaultPlan(
            {addresses[0]: WorkerFaultSpec(
                "partition", after_units=1, duration=1
            )}
        )
        res = run_sweep(
            _config(), workers=1, fabric=addresses,
            fabric_fault_plan=plan, retry=_retry(),
        )
    _assert_identical(reference, res, "fabric partition")


def scenario_fabric_slow(reference, workers: int) -> None:
    with _fleet(2) as addresses:
        plan = FabricFaultPlan(
            {addresses[0]: WorkerFaultSpec(
                "slow", after_units=1, slow_seconds=5.0
            )}
        )
        res = run_sweep(
            _config(), workers=1, fabric=addresses,
            fabric_fault_plan=plan, lease_timeout=0.25, retry=_retry(),
        )
    _assert_identical(reference, res, "fabric slow worker")


def scenario_fabric_dead_fleet(reference, workers: int) -> None:
    messages = []
    res = run_sweep(
        _config(), workers=1, fabric=["127.0.0.1:1"],
        progress=messages.append,
    )
    if not any("degrading to local execution" in m for m in messages):
        raise AssertionError(
            "dead fleet: sweep did not announce the local downgrade"
        )
    _assert_identical(reference, res, "fabric dead fleet")


def scenario_fabric_nan(reference, workers: int) -> None:
    plan = FaultPlan({_NAN_CELL: FaultSpec("nan", attempts=-1)})
    messages = []
    with _fleet(2) as addresses:
        res = run_sweep(
            _config(), workers=1, fabric=addresses, fault_plan=plan,
            retry=_retry(), progress=messages.append,
        )
    _assert_nan_cell_fails_alone(reference, res, "fabric non-finite cell")
    if any("retiring" in m or "locally" in m for m in messages):
        raise AssertionError(
            "fabric non-finite cell: a worker was retired or cells fell "
            "back to local execution"
        )


FABRIC_SCENARIOS = (
    ("clean two-worker fabric run", scenario_fabric_clean),
    ("worker killed mid-sweep, units reassigned", scenario_fabric_kill),
    ("network partition healed within the retry budget",
     scenario_fabric_partition),
    ("slow worker defeated by lease expiry", scenario_fabric_slow),
    ("dead fleet degrades to local execution", scenario_fabric_dead_fleet),
    ("non-finite cell fails alone", scenario_fabric_nan),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the chaos runs (default 2)")
    parser.add_argument("--fabric", action="store_true",
                        help="run the distributed-fabric chaos scenarios "
                        "(in-process HTTP worker fleet) instead of the "
                        "local-pool ones")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-scenario timing")
    args = parser.parse_args(argv)
    scenarios = FABRIC_SCENARIOS if args.fabric else SCENARIOS

    print("chaos_check: lint pre-flight over the sweep circuits ...")
    if not lint_preflight(_config()):
        print("chaos_check: lint pre-flight FAILED")
        return 1

    print("chaos_check: establishing fault-free reference ...")
    reference = run_sweep(_config(), workers=1)

    failed = 0
    for label, scenario in scenarios:
        start = time.perf_counter()
        try:
            scenario(reference, args.workers)
        except AssertionError as exc:
            failed += 1
            print(f"  FAIL  {label}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        suffix = f"  ({elapsed:.1f}s)" if args.verbose else ""
        print(f"  ok    {label}{suffix}")

    if failed:
        print(f"chaos_check: {failed}/{len(scenarios)} scenario(s) FAILED")
        return 1
    print(f"chaos_check: all {len(scenarios)} scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
