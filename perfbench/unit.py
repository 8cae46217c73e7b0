"""One unit of a workload in a fresh process, so every cache starts cold.

``python perfbench/unit.py --workload W --seed S [--trace] [--setup-only]
[--smoke] [--out-dir DIR]``

The process reports on stdout with lines ``PERFBENCH {json}``:
``{"ready": t}`` once its inputs exist (for ``service_mixed``: once the
server answers ``/healthz``), where ``t`` is ``time.time()`` so the
parent can measure set-up from the moment it spawned this process; then
``{"result": {...}}`` with the unit's wall time, checks, memory and,
with ``--trace``, the per-layer trace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, Optional

import numpy as np

import service_load
import tracer as tracing
import workloads

WORKLOADS = ("paper_fig3", "qfa16_traj", "qfa16_cut", "service_mixed")


def emit(kind: str, payload: Any) -> None:
    print("PERFBENCH " + json.dumps({kind: payload}), flush=True)


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it has reaped (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def write_spans(path: Path, tracer: tracing.Tracer) -> None:
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def trace_report(tracer: tracing.Tracer, t0: float, t1: float) -> Dict[str, Any]:
    """Per-layer self time plus how much of the wall the spans cover."""
    layers = tracing.summarize(tracer.spans)
    covered = tracing.coverage(tracer.spans, t0, t1)
    busy = sum(row["busy_s"] for row in layers.values())
    return {
        "layers": layers,
        "counters": dict(tracer.counters),
        "peaks": dict(tracer.peaks),
        "spans": len(tracer.spans),
        "busy_s": busy,
        "covered_s": covered,
        "remainder_s": (t1 - t0) - covered,
        # Within one thread spans nest, so their self times partition
        # the thread's covered time.  Nonzero means the tracer lost or
        # mis-parented a span.
        "nesting_err_s": busy - tracing.thread_coverage(tracer.spans),
    }


def server_trace_report(trace_out: Path, load: service_load.LoadResult) -> Dict[str, Any]:
    """The server's layers, attributed over the server's own busy time.

    The server's executor spans (one per request or fused batch, on its
    worker threads) are its busy time; the simulator layers nested in
    them are the attributed part, and the executor's own self time is
    the remainder.  The client adds one layer, ``service``: for each
    successful ``/v1/simulate`` request, its latency minus the server's
    ``timings_ms.total``, i.e. the time spent outside the server's
    request handling (HTTP, JSON and the connection).
    """
    if not trace_out.exists():
        raise RuntimeError("the traced server wrote no trace")
    server = json.loads(trace_out.read_text())
    layers = dict(server["layers"])
    ok = [r for r in load.sim if r["status"] == 200]
    layers["service"] = {
        "calls": len(ok),
        "busy_s": sum(r["latency_s"] - r["timings_ms"].get("total", 0.0) / 1000.0 for r in ok),
        "total_s": sum(r["latency_s"] for r in ok),
    }
    executor = layers.get("executor", {"busy_s": 0.0, "total_s": 0.0})
    return {
        "layers": layers,
        "counters": server["counters"],
        "peaks": server["peaks"],
        "spans": server["spans"],
        "busy_s": executor["total_s"],
        "covered_s": executor["total_s"] - executor["busy_s"],
        "remainder_s": executor["busy_s"],
    }


def package_stats() -> Dict[str, Any]:
    from repro.cut import cut_stats
    from repro.sim.batch import scheduler_stats
    from repro.sim.program import compile_cache_stats, kernel_cache_stats

    return {
        "kernel": {k: v for k, v in kernel_cache_stats().items() if k != "by_backend"},
        "compile": compile_cache_stats().as_dict(),
        "scheduler": scheduler_stats(),
        "cut": cut_stats(),
    }


def run_in_process(args: argparse.Namespace) -> Dict[str, Any]:
    # The same imports for every in-process workload, so set-up compares.
    import repro.cut.parallel  # noqa: F401
    import repro.experiments.paper  # noqa: F401
    import repro.experiments.sweep  # noqa: F401
    import repro.sim.statevector  # noqa: F401

    workload = workloads.IN_PROCESS[args.workload]
    inputs = workload.prepare(args.seed, args.smoke)
    emit("ready", time.time())
    if args.setup_only:
        return {}
    tracer: Optional[tracing.Tracer] = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = time.perf_counter()
    output = workload.execute(inputs)
    checked = workload.check(inputs, output)
    t1 = time.perf_counter()
    result = {
        "wall_s": t1 - t0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "digest": checked.digest,
        "notes": checked.notes,
        "peak_rss_mb": peak_rss_mb(),
        "stats": package_stats(),
    }
    if tracer is not None:
        result["trace"] = trace_report(tracer, t0, t1)
        if args.out_dir:
            write_spans(args.out_dir / f"spans-{args.workload}-{args.seed}.jsonl", tracer)
    return result


def _delta(after: Dict[str, Any], before: Dict[str, Any], name: str) -> float:
    def total(doc: Dict[str, Any]) -> float:
        hist = doc.get("metrics", {}).get("latency", {}).get(name, {})
        return float(hist.get("sum_seconds", 0.0))

    return total(after) - total(before)


def service_summary(load: service_load.LoadResult, before: Dict[str, Any],
                    after: Dict[str, Any]) -> Dict[str, Any]:
    """Client-side latencies plus the server's own counters for one run."""
    ok = [r for r in load.sim if r["status"] == 200]
    lat_ms = [r["latency_s"] * 1000.0 for r in ok] or [0.0]
    p90 = float(np.percentile(lat_ms, 90))
    fresh = [r for r in ok if r["cache"] != "hit"]
    tail = [r for r in ok if r["latency_s"] * 1000.0 >= p90]
    by_class: Dict[str, list] = {}
    methods: Dict[str, Dict[str, int]] = {}
    for r in ok:
        by_class.setdefault(r["cls"], []).append(r["latency_s"] * 1000.0)
        per = methods.setdefault(r["cls"], {})
        per[r["method"]] = per.get(r["method"], 0) + 1
    sweeps = load.sweeps
    firsts = [s["first_s"] * 1000.0 for s in sweeps if s["first_s"] is not None]
    cells = sum(s["cells"] for s in sweeps)
    rc = after.get("result_cache", {})
    fusion = after.get("fusion", {}).get("totals", {})
    counters = after.get("metrics", {}).get("counters", {})
    density_tail = [r for r in tail if r["method"] == "density"]
    return {
        "requests": len(load.sim),
        "p90_samples_beyond": service_load.samples_beyond(len(ok), 90),
        "sim_p50_ms": float(np.percentile(lat_ms, 50)),
        "sim_p90_ms": p90,
        "sim_per_s": len(ok) / load.b_wall_s if load.b_wall_s else 0.0,
        "sweeps": len(sweeps),
        "sweep_cells": cells,
        "sweep_cells_per_s": cells / load.a_busy_s if load.a_busy_s else 0.0,
        "sweep_first_ms": median(firsts) if firsts else 0.0,
        "class_p50_ms": {k: median(v) for k, v in sorted(by_class.items())},
        "methods": methods,
        "queue_wait_s": _delta(after, before, "queue_wait"),
        "execute_s": _delta(after, before, "execute"),
        "fusion_wait_s": _delta(after, before, "fusion_window_wait"),
        "fusion_hit_rate": float(fusion.get("hit_rate", 0.0)),
        "batch_occupancy": float(fusion.get("batch_occupancy", 0.0)),
        "cache_hit_ratio": rc.get("hits", 0) / max(1, rc.get("hits", 0) + rc.get("misses", 0)),
        "rejected": int(fusion.get("rejected", 0)) + int(counters.get("http_requests_total{status=429}", 0)),
        "compile_ms": sum(r["timings_ms"].get("compile", 0.0) for r in fresh),
        "simulate_ms": sum(r["timings_ms"].get("simulate", 0.0) for r in fresh),
        "http_overhead_ms": median([
            r["latency_s"] * 1000.0 - r["timings_ms"].get("total", 0.0) for r in ok
        ]) if ok else 0.0,
        # How much of the p90 tail's latency the density engine accounts for.
        "density_p90_share": (
            sum(r["timings_ms"].get("simulate", 0.0) for r in density_tail)
            / max(1e-9, sum(r["latency_s"] * 1000.0 for r in tail))
        ),
        "server_stats": {k: after.get(k) for k in ("kernel_cache", "compile_cache", "ptm_cache")},
        "scheduler_gauges": {
            k: after.get("metrics", {}).get("gauges", {}).get(k)
            for k in ("trajectory_dedup_ratio", "trajectory_batch_occupancy",
                      "trajectories_spent_total")
        },
    }


def run_service(args: argparse.Namespace) -> Dict[str, Any]:
    plan = service_load.make_plan(args.seed, args.smoke)
    trace_out = None
    if args.trace:
        trace_out = (args.out_dir or Path(".")) / f"server-trace-{args.seed}.json"
    server = service_load.Server(dict(os.environ), trace_out)
    try:
        emit("ready", time.time())
        if args.setup_only:
            return {}
        before = service_load.server_stats(server.port)
        load = service_load.run_load(server.port, plan)
        after = service_load.server_stats(server.port)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    attempted, failed, doc = service_load.check(plan, load)
    result = {
        "wall_s": load.b_wall_s,
        "attempted": attempted,
        "failed": failed,
        "digest": workloads.digest(doc),
        "notes": service_summary(load, before, after),
        "peak_rss_mb": peak,
    }
    if args.trace:
        result["trace"] = server_trace_report(trace_out, load)
    return result


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", type=Path)
    args = parser.parse_args(argv)
    # NumPy seeds must be non-negative; every integer maps to one.
    args.seed %= 2**64
    if args.workload == "service_mixed":
        result = run_service(args)
    else:
        result = run_in_process(args)
    if not args.setup_only:
        emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
