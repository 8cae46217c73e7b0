#!/usr/bin/env python
"""CI race smoke: hammer the shared caches under forced thread churn.

``sys.setswitchinterval(1e-6)`` makes the interpreter hand the GIL off
roughly every bytecode burst, turning any torn read-modify-write in the
locked hot paths (kernel-cache LRU, compile caches, service counters)
into a visible inconsistency within a few thousand requests.  The
script boots an in-process server, fires mixed concurrent requests from
a thread pool, then audits every counter surface for arithmetic
consistency: the kernel cache's per-tier ledger adds up to its totals,
and the compile cache recorded one lower and one bind outcome per
call.  Exits non-zero on any violated invariant — this is the
``race-smoke`` CI lane (the dynamic complement of ``repro-arith
audit``'s static RACE rules).
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _requests() -> List[Dict[str, Any]]:
    """A mixed workload: overlapping shapes so cache paths interleave."""
    base = dict(shots=64, seed=20220131, error_axis="2q", trajectories=8)
    reqs: List[Dict[str, Any]] = []
    for rate in (0.0, 0.001, 0.003):
        for n, m in ((2, 2), (2, 3), (3, 2)):
            reqs.append(
                dict(base, operation="add", n=n, m=m,
                     x=[1], y=[min(2, m)], error_rate=rate)
            )
            reqs.append(
                dict(base, operation="add", n=n, m=m, depth=2,
                     x=[0], y=[1], error_rate=rate, method="statevector")
            )
    return reqs


def main() -> int:
    # Force pathological GIL churn *before* any worker threads exist.
    sys.setswitchinterval(1e-6)

    from repro.service import ServerThread, ServiceClient
    from repro.sim.program import compile_cache_stats, kernel_cache_stats

    workload = _requests() * 4  # 72 requests over overlapping shapes
    with ServerThread() as srv:
        address = srv.address

        def one(req: Dict[str, Any]) -> Any:
            client = ServiceClient(*address, timeout=120)
            return client.simulate_with_retry(dict(req))

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(one, workload))

        client = ServiceClient(*srv.address, timeout=120)
        stats = client.stats()
        health = client.health()

    if len(responses) != len(workload):
        fail(f"lost responses: {len(responses)}/{len(workload)}")

    # Determinism through the melee: identical requests must produce
    # bit-identical counts no matter how the scheduler interleaved them.
    by_key: Dict[str, Any] = {}
    for resp in responses:
        prior = by_key.setdefault(resp.content_key, resp.counts)
        if prior != resp.counts:
            fail(f"divergent counts for {resp.content_key}")
    print(f"[race] {len(responses)} responses over {len(by_key)} distinct "
          "requests: all duplicates bit-identical")

    # Kernel cache: byte ledger and entry count must still reconcile.
    kc = kernel_cache_stats()
    if kc["total_bytes"] < 0:
        fail(f"kernel cache byte ledger went negative: {kc}")
    if kc["entries"] == 0 and kc["total_bytes"] != 0:
        fail(f"empty kernel cache holds bytes: {kc}")
    if kc["hits"] + kc["misses"] == 0:
        fail("kernel cache never consulted — workload too small?")
    # The per-tier breakdown must add up to the totals, field by field.
    tiers = kc["by_backend"].values()
    for field, total in (("hits", "hits"), ("misses", "misses"),
                         ("entries", "entries"), ("bytes", "total_bytes")):
        tier_sum = sum(t[field] for t in tiers)
        if tier_sum != kc[total]:
            fail(f"kernel tiers' {field} sum to {tier_sum}, "
                 f"total {total} is {kc[total]}: {kc}")
    print(f"[race] kernel cache consistent: {kc}")

    # Compile caches: counters must be non-negative and reconcile with
    # the fact that every bind either hit or populated the lower cache.
    cs = compile_cache_stats().as_dict()
    if any(v < 0 for v in cs.values()):
        fail(f"compile counters went negative: {cs}")
    if cs["lowerings"] + cs["lower_hits"] == 0:
        fail("compile caches never consulted — workload too small?")
    # Every compile_circuit call records one lower and one bind outcome.
    if cs["lowerings"] + cs["lower_hits"] != cs["binds"] + cs["bind_hits"]:
        fail(f"compile ledger: lower outcomes != bind outcomes: {cs}")
    print(f"[race] compile caches consistent: {cs}")

    # Service-side ledgers survived the stampede: every request was
    # served exactly once as a miss, hit, or coalesced attach.
    counters = stats.get("metrics", {}).get("counters", {})
    served = sum(
        int(v) for k, v in counters.items()
        if k.startswith("requests_served_total")
    )
    if served != len(workload):
        fail(f"served ledger lost work: {served} != {len(workload)}")
    executed = int(counters.get("jobs_executed_total", 0))
    if executed != len(by_key):
        fail(f"executed {executed} jobs for {len(by_key)} distinct requests")
    queue = stats.get("queue", {})
    if queue.get("depth") != 0 or queue.get("running") != 0:
        fail(f"queue did not drain: {queue}")
    if health.get("status") != "ok":
        fail(f"service unhealthy after load: {health}")
    print(f"[race] service ledger consistent: served={served} "
          f"executed={executed}")

    print("[race] PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
