#!/usr/bin/env python
"""Benchmark circuit cutting and write the ``BENCH_cut.json`` baseline.

Evaluates the acceptance cell of the cutting subsystem — a 16-qubit
QFA (n=m=8), wider than the density (13q) and PTM (12q) caps — as
8-qubit register-cut fragments, and times the noisy cell two ways:

* ``serial`` — every fragment job in-process, one after another;
* ``pool``   — the same jobs fanned out over a process pool
  (``PoolRunner``), the in-cell parallelism a fabric fleet scales up.

The x operand is a 4-value superposition so the cell decomposes into
4 independent branch jobs — the same shape ``benchmarks/
test_perf_cut.py`` pins with its >= 2-distinct-PID floor. The committed
``BENCH_cut.json`` at the repo root was produced at ``--scale paper``;
rerun with the same flags to refresh it.

Usage: python scripts/bench_cut.py [--scale smoke|default|paper]
       [--workers N] [--repeats R] [--out BENCH_cut.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.core.qint import QInteger
from repro.cut import CutConfig, cut_distribution, cut_stats
from repro.cut.parallel import PoolRunner, SerialRunner
from repro.experiments.config import SCALES, current_scale
from repro.experiments.instances import ArithmeticInstance
from repro.experiments.runner import build_arithmetic_circuit, noise_model_for
from repro.runtime.counters import COUNTERS

N = M = 8  # 16 qubits total — beyond every dense engine
X_VALUES = (3, 40, 90, 200)  # 4 branches -> 4 independent fragment jobs
Y_VALUE = 41
RATE = 0.01  # the paper's 2q reference rate

#: Noisy trajectories per fragment job, by scale.
_TRAJECTORIES = {"smoke": 16, "default": 256, "paper": 2048}


def _mode_stats(times) -> dict:
    return {
        "runs_s": [round(t, 3) for t in times],
        "p50_s": round(statistics.median(times), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES))
    parser.add_argument(
        "--workers", type=int, default=4, help="process-pool width"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per mode"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_cut.json",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale] if args.scale else current_scale()
    trajectories = _TRAJECTORIES[scale.name]

    circuit = build_arithmetic_circuit("add", N, M, None)
    inst = ArithmeticInstance(
        "add", N, M, QInteger.uniform(list(X_VALUES), N),
        QInteger.basis(Y_VALUE, M),
    )
    init = inst.initial_statevector()
    noise = noise_model_for("2q", RATE, "qiskit")
    config = CutConfig(max_fragment_qubits=M)
    print(
        f"bench_cut: scale={scale.name} n=m={N} ({circuit.num_qubits} "
        f"qubits) branches={len(X_VALUES)} traj={trajectories} "
        f"workers={args.workers}",
        flush=True,
    )

    # The exact lane first: correctness of the thing being timed.
    COUNTERS.reset("cut")
    t0 = time.perf_counter()
    ideal = cut_distribution(
        circuit, None, config=config, initial_state=init, seed=7
    )
    ideal_s = time.perf_counter() - t0
    mass = sum(float(ideal.probs[i]) for i in inst.correct_outcomes())
    if mass < 1.0 - 1e-10:
        print("FAIL: ideal cut cell got the arithmetic wrong", file=sys.stderr)
        return 1
    info = ideal.cut_info
    print(
        f"  ideal: {ideal_s:.2f}s exact "
        f"(fragments={info['num_fragments']} max_width={info['max_width']})",
        flush=True,
    )

    def run_noisy(runner) -> None:
        cut_distribution(
            circuit, noise, config=config, initial_state=init,
            trajectories=trajectories, seed=11, runner=runner,
        )

    run_noisy(SerialRunner())  # warm compile/kernel caches

    timings = {}
    pool_pids: set = set()
    for name in ("serial", "pool"):
        runs = []
        for _ in range(max(1, args.repeats)):
            runner = (
                SerialRunner() if name == "serial"
                else PoolRunner(workers=args.workers)
            )
            start = time.perf_counter()
            run_noisy(runner)
            runs.append(time.perf_counter() - start)
            if name == "pool":
                pool_pids.update(runner.worker_pids)
            print(f"  {name}: {runs[-1]:.2f}s", flush=True)
        timings[name] = _mode_stats(runs)

    stats = cut_stats()
    doc = {
        "benchmark": "qfa_16q_cut_cell",
        "scale": scale.name,
        "config": {
            "operation": "add",
            "n": N,
            "m": M,
            "total_qubits": circuit.num_qubits,
            "max_fragment_qubits": M,
            "x_values": list(X_VALUES),
            "y_value": Y_VALUE,
            "error_axis": "2q",
            "rate": RATE,
            "trajectories": trajectories,
            "workers": args.workers,
        },
        "plan": {
            "kind": info["kind"],
            "num_fragments": info["num_fragments"],
            "max_width": info["max_width"],
        },
        "ideal_exact_s": round(ideal_s, 3),
        "modes": timings,
        "speedup": {
            "pool_vs_serial": round(
                timings["serial"]["p50_s"] / timings["pool"]["p50_s"], 2
            ),
        },
        "parallelism": {
            "branch_jobs": len(X_VALUES),
            "distinct_worker_pids": len(pool_pids),
            # pool_vs_serial only exceeds 1 when cpus > 1; the PID
            # spread above is the host-independent evidence that
            # fragment jobs fan out.
            "cpus": len(os.sched_getaffinity(0)),
        },
        "cut_stats": {
            k: stats[k]
            for k in ("fragments_compiled", "variants_evaluated",
                      "jobs_local", "jobs_pool")
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"wrote {args.out} "
        f"(pool {doc['speedup']['pool_vs_serial']}x over serial on "
        f"{len(pool_pids)} worker processes)",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
