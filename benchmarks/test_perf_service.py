"""Service load smoke: sustained concurrency, latency, cache economics.

The acceptance bar from the service subsystem's issue: sustain >= 50
concurrent in-flight requests, with ``/metrics`` reporting queue depth,
cache-hit ratio, and per-stage latency histograms.  This smoke drives a
real server (own event-loop thread, in-process executor) through a
barrier-released burst and records p50/p99 latency plus the cache-hit
ratio as a reviewable artifact.

Two phases:

1. **hold** — ``N_HOLD`` identical requests released together; they
   coalesce onto one slow simulation, proving the server holds >= 50
   requests in flight simultaneously (server-side peak gauge).
2. **mixed burst** — ``N_BURST`` requests over a small set of distinct
   contents: first arrivals execute, repeats coalesce or hit the result
   cache; p50/p99 measured client-side over the whole burst.
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import save_artifact

import repro.service.executor as executor_mod
from repro.runtime.counters import COUNTERS
from repro.service import (
    ArithmeticService,
    FusionGate,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimulationExecutor,
    fusion_stats,
)

N_HOLD = 56  # > the 50-in-flight acceptance bar
N_BURST = 120
DISTINCT = 8  # distinct request contents inside the burst

# Mixed-tenant fusion profile.
N_TENANTS = 4
CELLS_PER_TENANT = 12
N_ONE_OFFS = 8
FAIRNESS_K = 3.0  # no tenant p99 may exceed K x the median tenant p99


def _request(seed=0, shots=96):
    return dict(
        operation="add", n=2, m=3, x=[1, 2], y=[3],
        shots=shots, seed=seed, error_axis="2q", error_rate=0.002,
        trajectories=8, method="trajectory",
    )


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def test_service_load_smoke(artifact_dir, monkeypatch):
    real = executor_mod.simulate_counts
    hold_mode = {"on": True}

    def paced(*args, **kwargs):
        # Phase 1 stretches the single coalesced simulation so every
        # client is provably in flight at once; phase 2 runs at speed.
        if hold_mode["on"]:
            time.sleep(0.5)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "simulate_counts", paced)
    service = ArithmeticService(
        executor=SimulationExecutor(workers=0, concurrency=8),
        cache=ResultCache(ttl=0),
        max_queue=512,
        concurrency=8,
    )
    with ServerThread(service) as srv:
        client = ServiceClient(*srv.address, timeout=120)

        # -- phase 1: hold >= 50 concurrent in-flight requests ----------
        barrier = threading.Barrier(N_HOLD)

        def held(i):
            barrier.wait(timeout=60)
            return client.simulate(_request(seed=777))

        with ThreadPoolExecutor(max_workers=N_HOLD) as pool:
            held_results = list(pool.map(held, range(N_HOLD)))
        peak = service.metrics.peak_inflight
        assert peak >= 50, (
            f"peak in-flight {peak} < 50: server did not sustain the "
            f"acceptance concurrency"
        )
        baseline = held_results[0]
        assert all(r.counts == baseline.counts for r in held_results)
        sources = [r.cache for r in held_results]
        assert sources.count("miss") == 1, sources.count("miss")

        # -- phase 2: mixed burst, client-side latency ------------------
        hold_mode["on"] = False
        latencies = []
        lat_lock = threading.Lock()

        def burst(i):
            req = _request(seed=i % DISTINCT, shots=96)
            t0 = time.perf_counter()
            resp = client.simulate(req)
            dt = time.perf_counter() - t0
            with lat_lock:
                latencies.append(dt)
            return resp

        with ThreadPoolExecutor(max_workers=32) as pool:
            burst_results = list(pool.map(burst, range(N_BURST)))

        by_source = {"miss": 0, "coalesced": 0, "hit": 0}
        for r in burst_results:
            by_source[r.cache] += 1
        # Only the first arrival of each distinct content simulates.
        assert by_source["miss"] == DISTINCT
        dedup_ratio = 1 - by_source["miss"] / N_BURST
        assert dedup_ratio >= 0.9

        latencies.sort()
        p50 = _percentile(latencies, 0.50)
        p99 = _percentile(latencies, 0.99)

        # -- scrape /metrics and cross-check the exported story ---------
        metrics_text = client.metrics_text()
        stats = client.stats()

    assert "repro_queue_depth" in metrics_text
    assert "repro_latency_execute_seconds_bucket" in metrics_text
    assert "repro_latency_queue_wait_seconds_bucket" in metrics_text
    assert "repro_latency_total_seconds_bucket" in metrics_text
    assert f"repro_peak_inflight_requests {peak}" in metrics_text
    rc = stats["result_cache"]
    hit_ratio = rc["hits"] / max(1, rc["hits"] + rc["misses"])

    lines = [
        "service load smoke",
        f"  held in flight     {peak} (bar: >= 50)",
        f"  burst requests     {N_BURST} over {DISTINCT} distinct contents",
        f"  p50 latency        {p50 * 1000:.1f} ms",
        f"  p99 latency        {p99 * 1000:.1f} ms",
        f"  dedup ratio        {dedup_ratio:.2%} "
        f"(miss={by_source['miss']} coalesced={by_source['coalesced']} "
        f"hit={by_source['hit']})",
        f"  result-cache hits  {rc['hits']} / misses {rc['misses']} "
        f"(ratio {hit_ratio:.2%})",
        f"  executed jobs      "
        f"{stats['metrics']['counters'].get('jobs_executed_total', 0)}",
    ]
    save_artifact(artifact_dir, "service_load_smoke.txt", "\n".join(lines))
    save_artifact(
        artifact_dir,
        "service_load_smoke.json",
        json.dumps(
            {
                "peak_inflight": peak,
                "p50_seconds": p50,
                "p99_seconds": p99,
                "dedup_ratio": dedup_ratio,
                "by_source": by_source,
                "result_cache": rc,
            },
            indent=2,
        ),
    )
    # The burst must complete at interactive latency: nearly all of it
    # is coalesced/cache traffic over just DISTINCT real simulations.
    assert p99 < 30.0


def test_service_fusion_mixed_tenants(artifact_dir):
    """Mixed-tenant load through the fusion gate: hit rate + fairness.

    ``N_TENANTS`` tenants sweep the same circuit family at (disjoint)
    error-rate grids while an interactive tenant interleaves one-off
    ideal-noise requests that bypass the gate.  The sweeping tenants'
    requests are all fusion-eligible and arrive in overlapping windows,
    so most of them must execute fused (hit rate >= 0.5), and
    deficit-round-robin must keep per-tenant latency balanced: no
    tenant's p99 beyond ``FAIRNESS_K`` x the median tenant p99.
    """
    COUNTERS.reset("fusion")
    executor = SimulationExecutor(workers=0, concurrency=8)
    service = ArithmeticService(
        executor=executor,
        cache=ResultCache(ttl=0),
        max_queue=512,
        concurrency=8,
        lint_requests=False,
        fusion=FusionGate(executor, window_ms=40, min_batch=N_TENANTS),
    )
    latencies = {}
    lat_lock = threading.Lock()

    def timed(client, tenant, payload):
        t0 = time.perf_counter()
        resp = client.simulate(payload)
        dt = time.perf_counter() - t0
        with lat_lock:
            latencies.setdefault(tenant, []).append(dt)
        return resp

    with ServerThread(service) as srv:
        client = ServiceClient(*srv.address, timeout=120)

        def sweep_tenant(idx):
            tenant = f"team-{idx}"
            for c in range(CELLS_PER_TENANT):
                # Disjoint per-tenant grids: nothing coalesces, every
                # cell is real fusable work.
                rate = 0.001 * (c + 1) + 0.0001 * (idx + 1)
                timed(
                    client,
                    tenant,
                    dict(_request(seed=idx), error_rate=rate, tenant=tenant),
                )

        def interactive():
            for k in range(N_ONE_OFFS):
                # Ideal-noise one-offs are not fusion-eligible: they
                # bypass the gate entirely and must stay interactive.
                timed(
                    client,
                    "interactive",
                    dict(
                        _request(seed=100 + k),
                        error_rate=0.0,
                        tenant="interactive",
                    ),
                )
                time.sleep(0.02)

        threads = [
            threading.Thread(target=sweep_tenant, args=(i,))
            for i in range(N_TENANTS)
        ]
        threads.append(threading.Thread(target=interactive))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = client.stats()

    totals = fusion_stats()
    assert totals["executed"] == N_TENANTS * CELLS_PER_TENANT
    assert totals["hit_rate"] >= 0.5, (
        f"fusion hit rate {totals['hit_rate']:.2f} < 0.5 "
        f"(batches={totals['batches']}, "
        f"occupancy={totals['batch_occupancy']:.1f})"
    )
    # Every sweeping tenant shows up in the DRR accounting.
    for i in range(N_TENANTS):
        assert f"team-{i}" in totals["tenants"]
    assert "interactive" not in totals["tenants"]

    p99 = {
        tenant: _percentile(sorted(values), 0.99)
        for tenant, values in latencies.items()
    }
    sweep_p99 = sorted(p99[f"team-{i}"] for i in range(N_TENANTS))
    median_p99 = sweep_p99[len(sweep_p99) // 2]
    worst_p99 = sweep_p99[-1]
    assert worst_p99 <= FAIRNESS_K * max(median_p99, 1e-3), (
        f"tenant p99 spread {worst_p99:.3f}s vs median {median_p99:.3f}s "
        f"exceeds the {FAIRNESS_K}x fairness bound"
    )

    lines = [
        "service fusion mixed-tenant profile",
        f"  tenants            {N_TENANTS} x {CELLS_PER_TENANT} cells "
        f"+ {N_ONE_OFFS} interactive one-offs",
        f"  fusion hit rate    {totals['hit_rate']:.2%} (bar: >= 50%)",
        f"  batches            {totals['batches']} "
        f"(occupancy {totals['batch_occupancy']:.1f})",
        f"  tenant p99 (s)     "
        + " ".join(
            f"{t}={p99[t] * 1000:.0f}ms" for t in sorted(p99)
        ),
        f"  fairness           worst/median = "
        f"{worst_p99 / max(median_p99, 1e-9):.2f} (bound {FAIRNESS_K}x)",
        f"  window wait p99    "
        f"{stats['metrics']['latency']['fusion_window_wait']['p99_seconds'] * 1000:.1f} ms",
    ]
    save_artifact(artifact_dir, "service_fusion_load.txt", "\n".join(lines))
    save_artifact(
        artifact_dir,
        "service_fusion_load.json",
        json.dumps(
            {
                "totals": totals,
                "tenant_p99_seconds": p99,
                "fairness_ratio": worst_p99 / max(median_p99, 1e-9),
                "fairness_bound": FAIRNESS_K,
            },
            indent=2,
        ),
    )
