#!/usr/bin/env python
"""CI smoke for the distributed sweep fabric, with *real* worker processes.

Launches a two-worker fleet as genuine subprocesses — one of them armed
to ``os._exit`` mid-unit via ``--kill-after-units`` — lets both
self-register through the shared registry file, then drives a sweep
through the coordinator and asserts:

* the sweep completes despite the real process crash (reassignment);
* the distributed result is bit-identical to a local single-process run;
* the killed worker exited with the chaos crash code;
* the surviving worker drains gracefully on SIGTERM (exit 0, final
  stats line printed).

Exits non-zero on any violated expectation — this is the
``fabric-smoke`` CI lane.

Usage: python scripts/fabric_smoke.py [--verbose]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def fail(message: str) -> "None":
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _config():
    from repro.experiments import SweepConfig

    return SweepConfig(
        operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
        error_rates=(0.0, 0.02, 0.05), depths=(2, None), instances=2,
        shots=64, trajectories=4, seed=1234,
        # The default tier, named so the fleet must decode a non-empty
        # value of this field to pass the worker's fingerprint check.
        backend="numpy64",
    )


def _dump(result) -> str:
    from repro.experiments.results import sweep_to_dict

    doc = sweep_to_dict(result)
    doc["elapsed_seconds"] = 0.0
    return json.dumps(doc, sort_keys=True)


def _spawn_worker(registry: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.fabric.worker",
         "--registry", str(registry), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )


def _wait_registered(registry: Path, count: int, timeout: float = 60.0):
    from repro.fabric import WorkerRegistry

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = WorkerRegistry(registry).load() if registry.exists() else []
        if len(workers) >= count:
            return workers
        time.sleep(0.1)
    fail(f"fleet did not register {count} worker(s) within {timeout}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="echo coordinator progress notes")
    args = parser.parse_args(argv)

    from repro.experiments import run_sweep
    from repro.runtime.faults import CRASH_EXIT_CODE

    config = _config()
    print("[smoke] establishing local single-process reference ...")
    reference = run_sweep(config, workers=1)

    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "fleet.txt"
        survivor = _spawn_worker(registry)
        # The second worker hard-kills itself (os._exit) on its second
        # received unit — a real dead process, not a simulated fault.
        victim = _spawn_worker(registry, "--kill-after-units", "2")
        try:
            fleet = _wait_registered(registry, 2)
            print(f"[smoke] fleet registered: {fleet}")

            notes: list = []
            progress = notes.append
            if args.verbose:
                def progress(message):  # noqa: ANN001
                    notes.append(message)
                    print(f"    {message}")

            distributed = run_sweep(
                config, fabric=registry, lease_timeout=15.0,
                progress=progress,
            )
            if distributed.failures:
                fail(f"distributed sweep failed cells: {distributed.failures}")
            if _dump(distributed) != _dump(reference):
                fail("distributed result diverged from the local reference")
            print("[smoke] distributed sweep bit-identical to local run")

            victim.wait(timeout=30)
            if victim.returncode != CRASH_EXIT_CODE:
                fail(
                    "victim worker should have crashed with code "
                    f"{CRASH_EXIT_CODE}, exited {victim.returncode}"
                )
            print(
                f"[smoke] victim crashed for real (exit {victim.returncode}) "
                "and the sweep still completed"
            )
            if not any("[fabric]" in n for n in notes):
                fail("coordinator emitted no fabric progress notes")

            survivor.send_signal(signal.SIGTERM)
            out, _ = survivor.communicate(timeout=60)
            if survivor.returncode != 0:
                fail(f"survivor drain exit {survivor.returncode}:\n{out}")
            if "repro-fabric-worker: bye" not in out:
                fail(f"survivor printed no final stats line:\n{out}")
            print("[smoke] survivor drained gracefully on SIGTERM")
        finally:
            for proc in (survivor, victim):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
    print("[smoke] fabric smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
