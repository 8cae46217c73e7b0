"""Render the traced runs of every workload as one markdown report.

    python3 perfbench/report.py [--out-dir .perfbench] [--seed N] > perfbench/TRACED_RUN.md

Reads ``result-<workload>-<seed>-trace1.json`` as written by
``run.py --trace 1`` and prints, per workload, the layer self times and
counts, how much of the traced wall the layer spans cover, and the
tracing overhead against the plain unit of the same run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT
from unit import WORKLOADS

LAYERS = ("transpile", "compile", "kernel", "evolve", "statevector", "density", "ptm",
          "sample", "success", "dispatch", "cut.plan", "cut.fragments",
          "cut.reconstruct", "executor")


def render(records: dict) -> str:
    env = next(iter(records.values()))["environment"]
    lines = [
        "# Traced run",
        "",
        f"Host: {env['nproc']} CPUs, Python {env['python']}, NumPy {env['numpy']}, "
        f"SciPy {env['scipy']}, BLAS threads {env['blas_threads']}; "
        f"source {env['revision']['src_sha256']} (git {env['revision']['git']}).",
        f"Seed {env['seed']}; `REPRO_*` set by the caller and removed: "
        f"{env['repro_vars_unset'] or 'none'}.",
        "",
    ]
    for workload, rec in records.items():
        m = rec["metrics"]
        trace = rec["units"][1]["trace"]
        layers = trace["layers"]
        wall = m["trace.wall_s"]
        lines += [
            f"## {workload}",
            "",
            f"Traced wall {wall:.2f} s against {m['trace.untraced_wall_s']:.2f} s "
            f"untraced (overhead {m['trace.overhead_frac']:+.1%}).",
        ]
        if workload == "service_mixed":
            # Server layers run on its executor threads: their shares are
            # of the server's busy time, the sum of its executor spans.
            base, base_name = trace["busy_s"], "share of server busy"
            service = layers["service"]
            lines += [
                f"The server's executor spans add up to {base:.2f} s of busy time. "
                f"Named layer spans cover {m['trace.attributed_frac']:.1%} of it; the "
                f"executor's own remainder is {m['trace.remainder_s']:.3f} s. Outside "
                f"the server, the `service` layer (client latency minus the server's "
                f"`timings_ms.total`, over {service['calls']} simulate requests) is "
                f"{service['busy_s']:.3f} s, {service['busy_s'] / wall:.1%} of the "
                "client's wall.",
            ]
        else:
            base, base_name = wall, "share of wall"
            lines += [
                f"Layer spans cover {m['trace.attributed_frac']:.1%} of the traced wall; "
                f"untraced remainder {m['trace.remainder_s']:.3f} s. Self times plus "
                f"remainder differ from the untraced wall by "
                f"{m['trace.balance_err_s']:.3f} s.",
            ]
        lines += [
            "",
            f"| layer | calls | self time (s) | {base_name} |",
            "|---|---:|---:|---:|",
        ]
        for name in LAYERS:
            row = layers.get(name)
            if row:
                lines.append(f"| {name} | {row['calls']} | {row['busy_s']:.3f} | "
                             f"{row['busy_s'] / base:.1%} |")
        lines.append("")
        if workload == "service_mixed":
            lines += [
                "Client-side, with tracing off: "
                f"p50 {m['sim_p50_ms']:.1f} ms, p90 {m['sim_p90_ms']:.1f} ms, "
                f"{m['sim_per_s']:.2f} simulate req/s, "
                f"{m['sweep_cells_per_s']:.1f} sweep cells/s, first partial "
                f"{m['sweep_first_ms']:.1f} ms. The density engine accounts for "
                f"{m['density.p90_share']:.1%} of the latency of the requests at or "
                "above p90.",
                "",
            ]
        else:
            lines += [f"Kernel build is {m['kernel.share']:.1%} of the traced wall "
                      f"({m['kernel.misses']} misses, {m['kernel.evictions']} evictions).",
                      ""]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    records = {}
    for workload in WORKLOADS:
        path = args.out_dir / f"result-{workload}-{args.seed}-trace1.json"
        records[workload] = json.loads(path.read_text())
    print(render(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
