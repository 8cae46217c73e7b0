#!/usr/bin/env python
"""Benchmark service-layer fusion and write ``BENCH_service.json``.

Submits the paper's QFA 1q rate sweep to a live server as concurrent
requests — every ``(rate, seed)`` cell its own ``/v1/simulate`` POST —
twice:

* ``perrequest`` — fusion gate disabled (``window_ms=0``): each request
  executes alone through the scheduler, exactly the pre-fusion service;
* ``fused``      — gate enabled: eligible requests are held for a short
  window and executed as shared micro-batches (one
  ``run_request_tasks`` pass per circuit family, error-configuration
  dedup across tenants).

Records wall-clock, requests/sec, the fused/per-request speedup, and
the gate's hit-rate/occupancy counters.  The committed
``BENCH_service.json`` at the repo root records the acceptance bar
(fused >= 1.5x per-request throughput); rerun with the same flags to
refresh it.

Usage: python scripts/bench_service.py [--scale smoke|default|paper]
       [--seeds N] [--clients C] [--window-ms W] [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# One stream policy for both modes: the fused path always draws through
# the batch scheduler (the error-configuration-dedup stream), so the
# per-request baseline must use the same stream for the bit-identity
# check to be meaningful.  This is the recommended deployment setting
# alongside fusion (see docs/service.md).
os.environ.setdefault("REPRO_SERVICE_DEDUP", "1")

from repro.experiments.config import SCALES, current_scale
from repro.noise.ibm import P1Q_SWEEP
from repro.runtime.counters import COUNTERS
from repro.runtime.supervisor import RetryPolicy
from repro.service import (
    ArithmeticService,
    FusionGate,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimulationExecutor,
    fusion_stats,
)

#: Seeds (= instances) per rate cell, per scale.
_DEFAULT_SEEDS = {"smoke": 4, "default": 6, "paper": 8}


def _requests(scale, seeds: int) -> list:
    rates = [r for r in P1Q_SWEEP if r > 0]
    n = scale.qfa_n
    return [
        dict(
            operation="add", n=n, m=n, x=[1], y=[3],
            shots=scale.shots, seed=seed, error_axis="1q",
            error_rate=rate, trajectories=scale.trajectories,
            method="trajectory", tenant=f"bench-{seed % 4}",
        )
        for rate in rates
        for seed in range(seeds)
    ]


def _drive(server: ServerThread, requests: list, clients: int) -> dict:
    """Submit every request concurrently; return timing + responses."""
    with server as srv:
        client = ServiceClient(*srv.address, timeout=600)
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            responses = list(pool.map(client.simulate, requests))
        elapsed = time.perf_counter() - start
    return {"elapsed_s": elapsed, "responses": responses}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES))
    parser.add_argument(
        "--seeds", type=int, help="seeds per rate cell (default per scale)"
    )
    parser.add_argument(
        "--clients", type=int, default=16, help="concurrent client threads"
    )
    parser.add_argument(
        "--window-ms", type=float, default=25.0, help="fusion hold window"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_service.json",
    )
    args = parser.parse_args(argv)
    scale = SCALES[args.scale] if args.scale else current_scale()
    seeds = args.seeds or _DEFAULT_SEEDS[scale.name]
    requests = _requests(scale, seeds)
    print(
        f"bench_service: scale={scale.name} n={scale.qfa_n} "
        f"shots={scale.shots} traj={scale.trajectories} "
        f"requests={len(requests)} clients={args.clients}",
        flush=True,
    )

    def make_server(window_ms: float) -> ServerThread:
        executor = SimulationExecutor(
            workers=0,
            concurrency=args.clients,
            retry=RetryPolicy(max_attempts=2),
        )
        return ServerThread(
            ArithmeticService(
                executor=executor,
                cache=ResultCache(ttl=0),
                max_queue=max(512, 2 * len(requests)),
                concurrency=args.clients,
                lint_requests=False,
                fusion=FusionGate(
                    executor,
                    window_ms=window_ms,
                    min_batch=max(8, args.clients),
                    max_batch=max(64, len(requests)),
                ),
            )
        )

    # Warm process-wide compile/kernel caches so neither mode pays the
    # first-compile cost (both servers share this process's caches).
    warm = _drive(make_server(0.0), requests[: len(requests) // 4 or 1], 4)
    print(f"  warmup: {warm['elapsed_s']:.2f}s", flush=True)

    modes = {}
    baseline_counts = None
    for name, window_ms in (("perrequest", 0.0), ("fused", args.window_ms)):
        COUNTERS.reset("fusion")
        run = _drive(make_server(window_ms), requests, args.clients)
        counts = [r.counts for r in run["responses"]]
        if baseline_counts is None:
            baseline_counts = counts
        elif counts != baseline_counts:
            print("FAIL: fused responses diverge from per-request", flush=True)
            return 1
        modes[name] = {
            "elapsed_s": round(run["elapsed_s"], 3),
            "requests_per_s": round(len(requests) / run["elapsed_s"], 3),
            "fusion": {
                k: (round(v, 4) if isinstance(v, float) else v)
                for k, v in fusion_stats().items()
                if k != "tenants"
            },
        }
        print(
            f"  {name}: {run['elapsed_s']:.2f}s "
            f"({modes[name]['requests_per_s']:.1f} req/s)",
            flush=True,
        )

    speedup = (
        modes["perrequest"]["elapsed_s"] / modes["fused"]["elapsed_s"]
    )
    doc = {
        "benchmark": "service_qfa_1q_rate_sweep_concurrent",
        "scale": scale.name,
        "config": {
            "n": scale.qfa_n,
            "m": scale.qfa_n,
            "error_axis": "1q",
            "error_rates": [r for r in P1Q_SWEEP if r > 0],
            "seeds_per_rate": seeds,
            "shots": scale.shots,
            "trajectories": scale.trajectories,
            "clients": args.clients,
            "fusion_window_ms": args.window_ms,
        },
        "modes": modes,
        "speedup": {"fused_vs_perrequest": round(speedup, 2)},
        "bit_identical": True,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"wrote {args.out} (fused {speedup:.2f}x per-request, "
        f"hit rate {modes['fused']['fusion']['hit_rate']:.0%})",
        flush=True,
    )
    if speedup < 1.5:
        print(
            f"WARN: fused speedup {speedup:.2f}x below the 1.5x bar",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
