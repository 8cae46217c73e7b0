"""The repository benchmark: one command per workload, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repro`` must exist).  Every
unit of work runs in a fresh process (``unit.py``) so caches start cold,
as they do for a user.

``--trace 0`` repeats the workload's unit until ``--seconds`` have
passed (at least one unit), with set-up-only samples taken before and
after the units, and reports the end-to-end metrics as medians over the
run:
``setup_s`` (process start to ready to submit), ``wall_s`` (time to a
verified result) and ``peak_rss_mb``.

``--trace 1`` runs one plain unit and one traced unit and reports the
per-layer metrics: span self times and counts per module, the service's
own counters, tracing overhead and how much of the wall the spans cover.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-unit samples, digests, the per-layer trace) is also
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

import envinfo
import service_load
from unit import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up samples per ``--trace 0`` run (units plus set-up-only probes).
#: The host's speed drifts over seconds, so half of the probes run
#: before the units and the rest after them.
SETUP_SAMPLES = 10
#: Never start another unit past this point, so a run ends within 180 s.
RUN_BUDGET_S = 140.0
#: A unit still running this long after the run began is killed.
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, workloads, getter)
# ---------------------------------------------------------------------------

ALL = WORKLOADS
SVC = ("service_mixed",)
CUT = ("qfa16_cut",)


def _layer(name: str, key: str) -> Callable[[Dict[str, Any]], float]:
    return lambda c: c["layers"].get(name, {}).get(key, 0)


def _note(key: str) -> Callable[[Dict[str, Any]], float]:
    return lambda c: c["notes"].get(key, 0)


def _untraced(key: str) -> Callable[[Dict[str, Any]], float]:
    """A service figure from the plain unit, measured with tracing off."""
    return lambda c: c["plain_notes"].get(key, 0)


def _kernel_ratio(c: Dict[str, Any]) -> float:
    k = c["kernel"]
    return k["hits"] / max(1, k["hits"] + k["misses"])


PER_LAYER: List[Tuple[str, str, str, Tuple[str, ...], Callable[[Dict[str, Any]], float]]] = [
    ("transpile.calls", "count", "lower", ALL, _layer("transpile", "calls")),
    ("transpile.busy_s", "s", "lower", ALL, _layer("transpile", "busy_s")),
    ("compile.calls", "count", "lower", ALL, _layer("compile", "calls")),
    ("compile.busy_s", "s", "lower", ALL, _layer("compile", "busy_s")),
    ("compile.lowerings", "count", "lower", ALL, lambda c: c["compile"]["lowerings"]),
    ("compile.bind_hits", "count", "higher", ALL, lambda c: c["compile"]["bind_hits"]),
    ("kernel.busy_s", "s", "lower", ALL, _layer("kernel", "busy_s")),
    ("kernel.share", "ratio", "lower", ALL, lambda c: c["layers"].get("kernel", {}).get("busy_s", 0) / c["share_base_s"]),
    ("kernel.misses", "count", "lower", ALL, lambda c: c["kernel"]["misses"]),
    ("kernel.hits", "count", "higher", ALL, lambda c: c["kernel"]["hits"]),
    ("kernel.hit_ratio", "ratio", "higher", ALL, _kernel_ratio),
    ("kernel.evictions", "count", "lower", ALL, lambda c: c["kernel"]["evictions"]),
    ("kernel.peak_bytes", "bytes", "lower", ALL, lambda c: c["peaks"].get("kernel.peak_bytes", 0)),
    ("evolve.calls", "count", "lower", ALL, _layer("evolve", "calls")),
    ("evolve.busy_s", "s", "lower", ALL, _layer("evolve", "busy_s")),
    ("batch.rows_simulated", "count", "lower", ("qfa16_traj", "service_mixed"), lambda c: c["batch"]["rows_simulated"]),
    ("batch.trajectories_sampled", "count", "lower", ("qfa16_traj", "service_mixed"), lambda c: c["batch"]["trajectories_sampled"]),
    ("batch.dedup_ratio", "ratio", "higher", ("qfa16_traj", "service_mixed"), lambda c: c["batch"]["dedup_ratio"]),
    ("batch.occupancy", "rows", "higher", ("qfa16_traj", "service_mixed"), lambda c: c["batch"]["batch_occupancy"]),
    ("statevector.calls", "count", "lower", ALL, _layer("statevector", "calls")),
    ("statevector.busy_s", "s", "lower", ALL, _layer("statevector", "busy_s")),
    ("density.calls", "count", "lower", SVC, _layer("density", "calls")),
    ("density.busy_s", "s", "lower", SVC, _layer("density", "busy_s")),
    ("density.p90_share", "ratio", "lower", SVC, _note("density_p90_share")),
    ("ptm.calls", "count", "lower", SVC, _layer("ptm", "calls")),
    ("ptm.busy_s", "s", "lower", SVC, _layer("ptm", "busy_s")),
    ("sample.calls", "count", "lower", ALL, _layer("sample", "calls")),
    ("sample.busy_s", "s", "lower", ALL, _layer("sample", "busy_s")),
    ("success.calls", "count", "lower", ALL, _layer("success", "calls")),
    ("success.busy_s", "s", "lower", ALL, _layer("success", "busy_s")),
    ("dispatch.units", "count", "lower", ("paper_fig3", "qfa16_traj"), lambda c: c["counters"].get("dispatch.units", 0)),
    ("dispatch.retries", "count", "lower", ("paper_fig3", "qfa16_traj"), lambda c: c["counters"].get("dispatch.retries", 0)),
    ("dispatch.overhead_s", "s", "lower", ("paper_fig3", "qfa16_traj"), lambda c: c["counters"].get("dispatch.overhead_s", 0)),
    ("cut.plan_s", "s", "lower", CUT, _layer("cut.plan", "total_s")),
    ("cut.fragments_s", "s", "lower", CUT, _layer("cut.fragments", "total_s")),
    ("cut.reconstruct_s", "s", "lower", CUT, _layer("cut.reconstruct", "total_s")),
    ("cut.variants_evaluated", "count", "lower", CUT, _note("variants_evaluated")),
    ("cut.jobs_pool", "count", "higher", CUT, lambda c: c["cut"].get("jobs_pool", 0)),
    ("cut.worker_pids", "count", "higher", CUT, _note("worker_pids")),
    ("service.queue_wait_s", "s", "lower", SVC, _note("queue_wait_s")),
    ("service.execute_s", "s", "lower", SVC, _note("execute_s")),
    ("service.fusion_wait_s", "s", "lower", SVC, _note("fusion_wait_s")),
    ("service.fusion_hit_rate", "ratio", "higher", SVC, _note("fusion_hit_rate")),
    ("service.batch_occupancy", "requests", "higher", SVC, _note("batch_occupancy")),
    ("service.cache_hit_ratio", "ratio", "higher", SVC, _note("cache_hit_ratio")),
    ("service.rejected", "count", "lower", SVC, _note("rejected")),
    ("service.compile_ms", "ms", "lower", SVC, _note("compile_ms")),
    ("service.simulate_ms", "ms", "lower", SVC, _note("simulate_ms")),
    ("service.http_overhead_ms", "ms", "lower", SVC, _note("http_overhead_ms")),
    ("sim_p50_ms", "ms", "lower", SVC, _untraced("sim_p50_ms")),
    ("sim_p90_ms", "ms", "lower", SVC, _untraced("sim_p90_ms")),
    ("sim_per_s", "req/s", "higher", SVC, _untraced("sim_per_s")),
    ("sweep_cells_per_s", "cells/s", "higher", SVC, _untraced("sweep_cells_per_s")),
    ("sweep_first_ms", "ms", "lower", SVC, _untraced("sweep_first_ms")),
    ("failed_frac", "ratio", "lower", ALL, lambda c: c["failed"] / max(1, c["attempted"])),
    ("trace.wall_s", "s", "lower", ALL, lambda c: c["wall"]),
    ("trace.untraced_wall_s", "s", "lower", ALL, lambda c: c["plain_wall"]),
    ("trace.overhead_frac", "ratio", "lower", ALL, lambda c: c["wall"] / c["plain_wall"] - 1.0),
    ("trace.attributed_frac", "ratio", "higher", ALL, lambda c: c["attributed_frac"]),
    ("trace.remainder_s", "s", "lower", ALL, lambda c: c["remainder_s"]),
    ("trace.balance_err_s", "s", "lower", ("paper_fig3", "qfa16_traj", "qfa16_cut"), lambda c: c["balance_err_s"]),
]


def layer_context(workload: str, plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """Everything the per-layer getters read, from one plain and one traced unit."""
    trace = traced["trace"]
    notes = traced["notes"]
    ctx: Dict[str, Any] = {
        "notes": notes,
        "plain_notes": plain["notes"],
        "layers": trace["layers"],
        "peaks": trace["peaks"],
        "counters": trace["counters"],
        "wall": traced["wall_s"],
        "plain_wall": plain["wall_s"],
        "remainder_s": trace["remainder_s"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }
    if workload == "service_mixed":
        # Simulator layers run in the server process; its own trace and
        # /stats document hold them.  Attribution is over the server's
        # busy time (its executor spans), not the client's wall.
        srv = notes["server_stats"]
        gauges = notes["scheduler_gauges"]
        spent = gauges.get("trajectories_spent_total") or 0
        ratio = gauges.get("trajectory_dedup_ratio") or 1.0
        ctx.update(
            share_base_s=max(trace["busy_s"], 1e-9),
            attributed_frac=trace["covered_s"] / max(trace["busy_s"], 1e-9),
            balance_err_s=0.0,
            kernel=srv["kernel_cache"],
            compile=srv["compile_cache"],
            batch={"rows_simulated": spent / ratio, "trajectories_sampled": spent,
                   "dedup_ratio": ratio,
                   "batch_occupancy": gauges.get("trajectory_batch_occupancy") or 0.0},
            cut={},
        )
    else:
        stats = traced["stats"]
        ctx.update(
            share_base_s=traced["wall_s"],
            attributed_frac=trace["covered_s"] / traced["wall_s"],
            # The traced layers' self times plus the part of the traced
            # wall outside every span, against the untraced unit's wall:
            # how far tracing moved the total it splits up.
            balance_err_s=abs(trace["busy_s"] + trace["remainder_s"] - plain["wall_s"]),
            kernel=stats["kernel"], compile=stats["compile"],
            batch=stats["scheduler"], cut=stats["cut"],
        )
    return ctx


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def run_unit(workload: str, seed: int, env: Dict[str, str], deadline: float, *,
             trace: bool = False,
             setup_only: bool = False, smoke: bool = False,
             out_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Spawn one ``unit.py`` process and collect its report."""
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--smoke"] * smoke
    if out_dir is not None:
        cmd += ["--out-dir", str(out_dir)]
    spawned = time.time()
    # Own session, so a timeout can take down the unit and its server.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\nunit killed at the run's time limit"
    report: Dict[str, Any] = {}
    for line in out.splitlines():
        if line.startswith("PERFBENCH "):
            report.update(json.loads(line[len("PERFBENCH "):]))
    unit: Dict[str, Any] = {"ok": proc.returncode == 0 and "ready" in report}
    if "ready" in report:
        unit["setup_s"] = report["ready"] - spawned
    if not setup_only:
        unit["ok"] = unit["ok"] and "result" in report
        unit.update(report.get("result", {}))
    if not unit["ok"]:
        unit["error"] = err.strip().splitlines()[-5:]
        print(f"perfbench: {workload} unit failed: {unit['error']}", file=sys.stderr)
    return unit


def _totals(units: List[Dict[str, Any]]) -> Tuple[int, int]:
    attempted = sum(u.get("attempted", 1) for u in units)
    failed = sum(u.get("failed", 0) if u["ok"] else u.get("attempted", 1) for u in units)
    return attempted, failed


def probe_setups(args: argparse.Namespace, env: Dict[str, str], start: float,
                 count: int) -> List[float]:
    """Up to ``count`` set-up times from set-up-only processes."""
    setups: List[float] = []
    while len(setups) < count and time.monotonic() - start < RUN_BUDGET_S:
        probe = run_unit(args.workload, args.seed, env, start + RUN_LIMIT_S,
                         setup_only=True, smoke=args.smoke)
        if "setup_s" not in probe:
            break
        setups.append(probe["setup_s"])
    return setups


def measured_run(args: argparse.Namespace, env: Dict[str, str]) -> Dict[str, Any]:
    start = time.monotonic()
    setups = probe_setups(args, env, start, SETUP_SAMPLES // 2)
    units_start = time.monotonic()
    units: List[Dict[str, Any]] = []
    while True:
        t0 = time.monotonic()
        units.append(run_unit(args.workload, args.seed, env, start + RUN_LIMIT_S,
                              smoke=args.smoke))
        now = time.monotonic()
        # Stop when another unit would end further from --seconds than
        # stopping now does, or could overrun the run's time budget.
        if (now - units_start + (now - t0) / 2 >= args.seconds
                or now + (now - t0) - start > RUN_BUDGET_S):
            break
    setups += [u["setup_s"] for u in units if "setup_s" in u]
    setups += probe_setups(args, env, start, SETUP_SAMPLES - len(setups))
    done = [u for u in units if u["ok"]]
    attempted, failed = _totals(units)
    digests = sorted({u["digest"] for u in done})
    metrics = {}
    if done and setups:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median([u["wall_s"] for u in done]),
            "peak_rss_mb": median([u["peak_rss_mb"] for u in done]),
        }
    return {
        # Units of one run share their inputs, so they must agree exactly.
        "correct": bool(done) and failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {
            "setup_s": setups,
            "wall_s": [u["wall_s"] for u in done],
            "peak_rss_mb": [u["peak_rss_mb"] for u in done],
        },
        "digests": digests,
        "units": units,
    }


def traced_run(args: argparse.Namespace, env: Dict[str, str], out_dir: Path) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_unit(args.workload, args.seed, env, deadline, smoke=args.smoke)
    traced = run_unit(args.workload, args.seed, env, deadline, trace=True, smoke=args.smoke,
                      out_dir=out_dir)
    units = [plain, traced]
    attempted, failed = _totals(units)
    metrics = {}
    if plain["ok"] and traced["ok"]:
        ctx = layer_context(args.workload, plain, traced)
        metrics = {name: getter(ctx) for name, _u, _b, _w, getter in PER_LAYER}
    digests = sorted({u["digest"] for u in units if u["ok"]})
    return {
        "correct": plain["ok"] and traced["ok"] and failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": digests,
        "units": units,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    env = envinfo.child_env(ROOT)
    environment = envinfo.capture(ROOT, args.seed)
    if args.workload == "service_mixed":
        environment["workload_env"] = service_load.SERVER_ENV
    if args.trace:
        record = traced_run(args, env, args.out_dir)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        record = measured_run(args, env)
        units = END_TO_END
    record["environment"] = environment
    record["workload"] = args.workload
    (args.out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    for name, value in record["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
