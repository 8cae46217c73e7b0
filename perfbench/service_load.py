"""The ``service_mixed`` workload: a live server under a two-connection load.

The server runs as its own process (``serve.py``, a thin wrapper over
``repro.service.__main__``) with the fusion window on.  The load is a
closed loop driven by one process with two connections:

* connection A streams ``/v1/sweep`` requests back to back (QFA n=6, 1q
  trajectory noise, 32 rates each, a fresh seed per sweep), so its cells
  go through the fusion gate;
* connection B sends a fixed, seeded list of ``/v1/simulate`` requests,
  all ``method="auto"``, one after another (see :data:`MIX`).

``wall_s`` is the time connection B needs for its list; connection A
runs for as long as B does and then finishes the sweep it is in.  After
each sweep A pauses as long as the sweep took, so the server is not
saturated by sweeps alone.

``sim_p90_ms`` is only reported from a run that leaves at least
:data:`P90_MIN_BEYOND` successful latencies above p90; :func:`check`
counts a run with fewer as failed.
"""

from __future__ import annotations

import http.client
import json
import math
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent

#: Fusion hold window for the server (``docs/service.md``: fusion on,
#: with the error-configuration-dedup stream it is documented with).
FUSION_WINDOW_MS = 20.0
SERVER_ENV = {"REPRO_SERVICE_DEDUP": "1"}

#: Connection B's request classes and how many of each one run makes.
#: ``repeat`` requests replay earlier fast requests byte for byte, so
#: they are served by the result cache.
MIX = {
    "ideal12": 32,   # add 6+6, no noise      -> statevector
    "traj12": 28,    # add 6+6, 1q/2q noise   -> trajectory (fusion-eligible)
    "add33": 12,     # add 3+3, 2q noise      -> density (6 qubits)
    "add44": 14,     # add 4+4, 1q noise      -> density (8 qubits)
    "mul22": 1,      # mul 2+2, 1q noise      -> density (8 qubits)
    "repeat": 13,
}
SMOKE_MIX = {"ideal12": 6, "traj12": 5, "add33": 4, "add44": 0, "mul22": 0, "repeat": 5}
SWEEP_RATES = tuple(round(0.0005 + 0.00015 * i, 6) for i in range(32))
SHOTS = 1024
TRAJECTORIES = 32
SWEEP_TRAJECTORIES = 16
#: Connection A's think time between sweeps, as a multiple of the last sweep.
SWEEP_THINK = 1.0
_REPEATABLE = ("ideal12", "traj12", "add33")
#: Successful ``/v1/simulate`` latencies a run must leave above p90.
P90_MIN_BEYOND = 10


def _operands(rng: np.random.Generator, n: int) -> Tuple[List[int], List[int]]:
    return [int(rng.integers(2**n))], [int(rng.integers(2**n))]


def make_plan(seed: int, smoke: bool) -> Dict[str, Any]:
    """Connection B's request list and connection A's sweep template."""
    rng = np.random.default_rng(seed)
    mix = SMOKE_MIX if smoke else MIX
    fresh: List[Tuple[str, Dict[str, Any]]] = []
    for cls, count in mix.items():
        for k in range(count if cls != "repeat" else 0):
            if cls in ("ideal12", "traj12"):
                op, n, m = "add", 6, 6
            elif cls == "mul22":
                op, n, m = "mul", 2, 2
            else:
                op, n = "add", int(cls[3])
                m = n
            x, y = _operands(rng, n)
            body: Dict[str, Any] = dict(
                operation=op, n=n, m=m, x=x, y=y, shots=SHOTS,
                seed=int(rng.integers(2**31)), method="auto",
            )
            if cls == "traj12":
                # A fixed half on each axis: every seed does the same work.
                axis = "1q" if k % 2 else "2q"
                body.update(error_axis=axis, trajectories=TRAJECTORIES,
                            error_rate=0.003 if axis == "1q" else 0.01)
            elif cls == "add33":
                body.update(error_axis="2q", error_rate=0.01)
            elif cls in ("add44", "mul22"):
                body.update(error_axis="1q", error_rate=0.003)
            fresh.append((cls, body))
    order = rng.permutation(len(fresh))
    requests: List[Dict[str, Any]] = [
        {"cls": fresh[i][0], "body": fresh[i][1], "repeat_of": None} for i in order
    ]
    # Insert each repeat after the request it replays.
    for _ in range(mix["repeat"]):
        sources = [i for i, r in enumerate(requests)
                   if r["cls"] in _REPEATABLE and r["repeat_of"] is None]
        src = sources[int(rng.integers(len(sources)))]
        at = int(rng.integers(src + 1, len(requests) + 1))
        requests.insert(at, {"cls": "repeat", "body": dict(requests[src]["body"]),
                             "repeat_of": src})
        for r in requests[at + 1:]:
            if r["repeat_of"] is not None and r["repeat_of"] >= at:
                r["repeat_of"] += 1
    x, y = _operands(rng, 6)
    sweep_base = dict(operation="add", n=6, m=6, x=x, y=y, shots=SHOTS,
                      error_axis="1q", trajectories=SWEEP_TRAJECTORIES, method="auto")
    rates = SWEEP_RATES[:8] if smoke else SWEEP_RATES
    return {"requests": requests, "sweep_base": sweep_base, "rates": list(rates),
            "sweep_seed": int(rng.integers(2**31)),
            # Smoke plans are too short for a p90 with a tail behind it.
            "p90_min_beyond": 0 if smoke else P90_MIN_BEYOND}


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------

class Server:
    """One ``serve.py`` process, booted to ``/healthz`` 200."""

    def __init__(self, env: Dict[str, str], trace_out: Optional[Path] = None) -> None:
        cmd = [sys.executable, str(HERE / "serve.py"), "--port", "0",
               "--fusion-window-ms", str(FUSION_WINDOW_MS)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**env, **SERVER_ENV},
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
            deadline = time.monotonic() + 60
            while request(self.port, "GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.02)
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def request(port: int, method: str, path: str, body: Any = None,
            timeout: float = 120.0) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    except OSError:
        return 0, b""
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------

@dataclass
class LoadResult:
    sim: List[Dict[str, Any]] = field(default_factory=list)
    sweeps: List[Dict[str, Any]] = field(default_factory=list)
    b_wall_s: float = 0.0
    a_busy_s: float = 0.0


def _simulate_loop(port: int, plan: Dict[str, Any], out: LoadResult,
                   done: threading.Event) -> None:
    t0 = time.perf_counter()
    try:
        for req in plan["requests"]:
            start = time.perf_counter()
            status, raw = request(port, "POST", "/v1/simulate", req["body"])
            latency = time.perf_counter() - start
            try:
                doc = json.loads(raw) if status == 200 else {}
            except ValueError:
                status, doc = 0, {}
            out.sim.append({
                "cls": req["cls"], "status": status, "latency_s": latency,
                "method": doc.get("method"), "cache": doc.get("cache"),
                "counts": doc.get("counts"), "shots": doc.get("shots"),
                "timings_ms": doc.get("timings_ms", {}),
                "repeat_of": req["repeat_of"],
            })
    finally:
        out.b_wall_s = time.perf_counter() - t0
        done.set()


def _stream_sweep(port: int, base: Dict[str, Any], rates: List[float]) -> Dict[str, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    start = time.perf_counter()
    rec: Dict[str, Any] = {"status": 0, "first_s": None, "cells": 0, "errors": 0,
                           "bad_counts": 0}
    try:
        conn.request("POST", "/v1/sweep", body=json.dumps({"base": base, "rates": rates}),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        rec["status"] = resp.status
        if resp.status != 200:
            resp.read()
            return rec
        for line in iter(resp.readline, b""):
            doc = json.loads(line)
            if "cell" not in doc:
                continue
            if rec["first_s"] is None:
                rec["first_s"] = time.perf_counter() - start
            if "error" in doc:
                rec["errors"] += 1
                continue
            rec["cells"] += 1
            counts = doc["response"]["counts"]
            rec["bad_counts"] += sum(counts.values()) != base["shots"]
    except (OSError, http.client.HTTPException, ValueError):
        # A dropped or garbled stream: its undelivered cells count as failed.
        rec["errors"] += 1
    finally:
        conn.close()
        rec["wall_s"] = time.perf_counter() - start
    return rec


def _sweep_loop(port: int, plan: Dict[str, Any], out: LoadResult,
                done: threading.Event) -> None:
    seed = plan["sweep_seed"]
    while not done.is_set():
        base = dict(plan["sweep_base"], seed=seed + len(out.sweeps))
        rec = _stream_sweep(port, base, plan["rates"])
        rec["expected"] = len(plan["rates"])
        out.sweeps.append(rec)
        out.a_busy_s += rec["wall_s"]
        # Think time as long as the sweep took: connection A keeps the
        # fusion gate busy half the time instead of saturating the server.
        done.wait(timeout=rec["wall_s"] * SWEEP_THINK)


def run_load(port: int, plan: Dict[str, Any]) -> LoadResult:
    out = LoadResult()
    done = threading.Event()
    threads = [
        threading.Thread(target=_sweep_loop, args=(port, plan, out, done)),
        threading.Thread(target=_simulate_loop, args=(port, plan, out, done)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def samples_beyond(n: int, percentile: int) -> int:
    """How many of ``n`` sorted samples lie above the ``percentile`` rank.

    Exact rational arithmetic: 10% of 100 samples is 10, never 9.99...
    """
    return n - math.ceil(Fraction(percentile) * n / 100)


def check(plan: Dict[str, Any], load: LoadResult) -> Tuple[int, int, List[Any]]:
    """(attempted, failed, digest document) over every operation of a run.

    The operations are connection B's requests, connection A's sweep
    cells and one more: the run's p90, which fails when fewer than
    ``plan["p90_min_beyond"]`` successful latencies lie above it.
    """
    # A request connection B never got to send counts as failed.
    failed = len(plan["requests"]) - len(load.sim)
    doc = []
    succeeded = 0
    for rec in load.sim:
        counts = rec["counts"] or {}
        ok = rec["status"] == 200 and sum(counts.values()) == rec["shots"]
        if ok and rec["repeat_of"] is not None:
            # A repeat must return exactly the counts of the request it replays.
            src = load.sim[rec["repeat_of"]]
            ok = src["counts"] == counts
        failed += not ok
        succeeded += ok
        doc.append([rec["cls"], rec["method"], rec["counts"]])
    failed += samples_beyond(succeeded, 90) < plan["p90_min_beyond"]
    attempted = len(plan["requests"]) + 1
    for sweep in load.sweeps:
        attempted += sweep["expected"]
        failed += (sweep["expected"] - sweep["cells"]) + sweep["bad_counts"]
    return attempted, failed, doc


def server_stats(port: int) -> Dict[str, Any]:
    status, raw = request(port, "GET", "/stats")
    return json.loads(raw) if status == 200 else {}

