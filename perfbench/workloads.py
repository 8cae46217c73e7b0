"""The in-process workloads: inputs from a seed, the run, the output check.

Each workload is three functions.  ``prepare(seed, smoke)`` makes the
inputs (counted in ``setup_s``); ``execute(inputs)`` does the workload's
fixed work through the package's public entry points; ``check(inputs,
output)`` verifies the output and returns the operation counts, a digest
of the result and notes.  Execute and check together are ``wall_s``.

``service_mixed`` lives in :mod:`service_load`, because its work runs in
a server process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

#: Worker processes for the fragment pool of ``qfa16_cut``.
CUT_WORKERS = 2


def digest(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Checked:
    """What ``check`` found: operations attempted and failed, plus notes."""

    attempted: int
    failed: int
    digest: str
    notes: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# paper_fig3: the six Fig. 3 panels through run_figure
# ---------------------------------------------------------------------------

def fig3_prepare(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.experiments.config import SCALES
    from repro.experiments.paper import fig3_configs

    scale = SCALES["smoke" if smoke else "default"]
    row_seeds = np.random.default_rng(seed).integers(0, 2**31, size=3)
    # Panels come row by row, two error axes per row; a row shares its
    # instances across both axes, as in the paper.
    configs = [
        cfg.with_overrides(seed=int(row_seeds[i // 2]))
        for i, cfg in enumerate(fig3_configs(scale))
    ]
    return {"configs": configs}


def fig3_execute(inputs: Dict[str, Any]) -> Any:
    from repro.experiments.paper import run_figure

    # One in-process sweep worker: what default_workers() gives on a
    # 2-CPU host, pinned so the work is the same on every host.
    return run_figure(inputs["configs"], workers=1)


def fig3_check(inputs: Dict[str, Any], results: Any) -> Checked:
    from repro.experiments.runner import build_arithmetic_circuit
    from repro.sim.statevector import StatevectorEngine

    attempted = failed = exact_rows = 0
    rows: List[Any] = []
    for cfg in inputs["configs"]:
        res = results[cfg.label]
        for rate in cfg.error_rates:
            for depth in cfg.depths:
                attempted += 1
                point = res.points.get((rate, depth))
                if point is None or (rate, depth) in res.failed_keys:
                    failed += 1
                    continue
                outcomes = point.outcomes
                bad = len(outcomes) != cfg.instances or any(
                    o.shots != cfg.shots for o in outcomes
                )
                if rate == 0.0 and depth is None:
                    # Ideal full-depth adder: every instance succeeds and
                    # the exact distribution has no mass off the answer.
                    circuit = build_arithmetic_circuit(cfg.operation, cfg.n, cfg.m, None)
                    for inst, o in zip(res.instances, outcomes):
                        probs = StatevectorEngine().distribution(
                            circuit, inst.initial_statevector()
                        ).probs
                        mass = float(sum(probs[i] for i in inst.correct_outcomes()))
                        bad |= not (o.success and o.min_diff > 0 and mass >= 1 - 1e-10)
                    exact_rows += 1
                failed += bad
                rows.append([
                    cfg.label, rate, depth,
                    [[o.success, o.min_diff, o.shots] for o in outcomes],
                ])
    return Checked(attempted, failed, digest(rows), {"exact_rows_checked": exact_rows})


# ---------------------------------------------------------------------------
# qfa16_traj: one 16-qubit QFA cell through the batched trajectory scheduler
# ---------------------------------------------------------------------------

def traj_prepare(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.experiments.config import SweepConfig
    from repro.experiments.instances import generate_instances

    width = 4 if smoke else 8
    cfg = SweepConfig(
        operation="add", n=width, m=width, orders=(1, 1), error_axis="1q",
        error_rates=(0.003,), depths=(None,), instances=1,
        shots=256 if smoke else 2048, trajectories=32 if smoke else 512,
        seed=int(np.random.default_rng(seed).integers(0, 2**31)),
        batching="cell", dedup=True,
    )
    instances = generate_instances("add", width, width, (1, 1), 1, cfg.seed)
    return {"config": cfg, "instances": instances}


def traj_execute(inputs: Dict[str, Any]) -> Any:
    from repro.experiments.sweep import run_sweep

    return run_sweep(inputs["config"], workers=1, instances=inputs["instances"])


#: Least margin (correct minus best incorrect count, over shots) the
#: noisy 16-qubit cell must keep.  At 1q rate 0.003 the correct sum
#: carries about 60% of the shots and no wrong sum comes close, so the
#: margin sits near 0.6; trajectory and shot noise move it by a few
#: hundredths.  A trajectory layer that drew too many errors, or the
#: wrong ones, drops it below this.
TRAJ_MIN_MARGIN = 0.25


def traj_check(inputs: Dict[str, Any], result: Any) -> Checked:
    from repro.experiments.runner import build_arithmetic_circuit
    from repro.sim.statevector import StatevectorEngine

    cfg = inputs["config"]
    key = (cfg.error_rates[0], cfg.depths[0])
    point = result.points.get(key)
    if point is None or not result.complete:
        return Checked(1, 1, "", {"error": "cell failed"})
    summary = point.summary
    # The exact ideal circuit (2**16 amplitudes) must put all its mass
    # on the correct sums.
    circuit = build_arithmetic_circuit(cfg.operation, cfg.n, cfg.m, None)
    ideal_mass = 1.0
    for inst in inputs["instances"]:
        probs = StatevectorEngine().distribution(circuit, inst.initial_statevector()).probs
        ideal_mass = min(ideal_mass, float(sum(probs[i] for i in inst.correct_outcomes())))
    consistent = (
        ideal_mass >= 1 - 1e-10
        and len(point.outcomes) == cfg.instances
        and all(o.shots == cfg.shots for o in point.outcomes)
        # The noisy counts' mode is a correct sum, by a wide margin.
        and all(o.success and o.min_diff >= TRAJ_MIN_MARGIN * o.shots
                for o in point.outcomes)
        and summary.num_success == sum(o.success for o in point.outcomes)
        and 1 <= point.trajectories_spent
        and point.dedup_ratio >= 1.0
    )
    doc = [[o.success, o.min_diff, o.shots] for o in point.outcomes]
    return Checked(
        1, int(not consistent), digest([doc, point.trajectories_spent]),
        {
            "ideal_mass": ideal_mass,
            "margin": min(o.min_diff / o.shots for o in point.outcomes),
            "success_rate": summary.success_rate,
            "dedup_ratio": point.dedup_ratio,
            "batch_occupancy": point.batch_occupancy,
            "trajectories_spent": point.trajectories_spent,
        },
    )


# ---------------------------------------------------------------------------
# qfa16_cut: the same 16-qubit adder evaluated as 8-qubit fragments
# ---------------------------------------------------------------------------

def cut_prepare(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.core.qint import QInteger
    from repro.experiments.instances import ArithmeticInstance
    from repro.experiments.runner import noise_model_for

    width = 4 if smoke else 8
    rng = np.random.default_rng(seed)
    xs = sorted(int(v) for v in rng.choice(2**width, size=4, replace=False))
    y = int(rng.integers(2**width))
    inst = ArithmeticInstance(
        "add", width, width, QInteger.uniform(xs, width), QInteger.basis(y, width)
    )
    return {
        "width": width,
        "x_values": xs,
        "y_value": y,
        "initial_state": inst.initial_statevector(),
        "correct": inst.correct_outcomes(),
        "noise": noise_model_for("2q", 0.01),
        "trajectories": 32 if smoke else 2048,
        "seed": int(rng.integers(0, 2**31)),
    }


def cut_execute(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.cut import CutConfig, cut_distribution
    from repro.cut.parallel import PoolRunner
    from repro.experiments.runner import build_arithmetic_circuit

    width = inputs["width"]
    circuit = build_arithmetic_circuit("add", width, width, None)
    config = CutConfig(max_fragment_qubits=width)
    ideal = cut_distribution(
        circuit, None, config=config, initial_state=inputs["initial_state"], seed=7
    )
    runner = PoolRunner(workers=CUT_WORKERS)
    noisy = cut_distribution(
        circuit, inputs["noise"], config=config,
        initial_state=inputs["initial_state"],
        trajectories=inputs["trajectories"], seed=inputs["seed"], runner=runner,
    )
    return {"ideal": ideal, "noisy": noisy, "worker_pids": runner.worker_pids}


def cut_check(inputs: Dict[str, Any], out: Dict[str, Any]) -> Checked:
    from repro.metrics.success import evaluate_instance

    correct = inputs["correct"]
    ideal_mass = float(sum(out["ideal"].probs[i] for i in correct))
    noisy = out["noisy"]
    probs = np.asarray(noisy.probs, dtype=float)
    noisy_ok = abs(float(probs.sum()) - 1.0) < 1e-6 and float(probs.min()) > -1e-9
    verdict = evaluate_instance(
        noisy.sample(2048, np.random.default_rng(inputs["seed"])), correct
    )
    info = noisy.cut_info
    return Checked(
        2,
        int(ideal_mass < 1 - 1e-10) + int(not noisy_ok),
        digest([np.round(probs, 12).tolist(), verdict.success, verdict.min_diff]),
        {
            "ideal_mass": ideal_mass,
            "noisy_success": verdict.success,
            "variants_evaluated": info.get("variants_evaluated", 0),
            "num_fragments": info.get("num_fragments", 0),
            "worker_pids": len(out["worker_pids"]),
        },
    )


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, bool], Any]
    execute: Callable[[Any], Any]
    check: Callable[[Any, Any], Checked]


IN_PROCESS = {
    "paper_fig3": Workload(fig3_prepare, fig3_execute, fig3_check),
    "qfa16_traj": Workload(traj_prepare, traj_execute, traj_check),
    "qfa16_cut": Workload(cut_prepare, cut_execute, cut_check),
}
