"""The counter registry: atomic updates, namespaced resets, one renderer."""

import re
import sys
import threading

from repro.cut import cut_stats
from repro.runtime.counters import COUNTERS, CounterRegistry
from repro.sim.batch import scheduler_stats


def test_concurrent_increments_give_exact_total():
    registry = CounterRegistry()
    n_threads, per_thread = 8, 2000

    def bump():
        for _ in range(per_thread):
            registry.inc("hits_total", labels={"tier": "a"})
            registry.record("kernel", {"tier": "b"}, hits=1, misses=2)

    threads = [threading.Thread(target=bump) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    total = n_threads * per_thread
    assert registry.counter_total("hits_total") == total
    assert registry.snapshot("kernel") == {
        "hits": {"b": total}, "misses": {"b": 2 * total}
    }


def test_reset_zeroes_only_its_namespace():
    COUNTERS.record("cut", plans=1, jobs_local=2)
    COUNTERS.record("scheduler", tasks=1)
    COUNTERS.reset("cut")
    stats = cut_stats()
    assert set(stats) >= {"plans", "plans_registers", "jobs_local"}
    assert all(v == 0 for v in stats.values())
    assert scheduler_stats()["tasks"] >= 1


def test_reset_drops_labeled_series_and_keeps_declared_names():
    registry = CounterRegistry()
    registry.declare("ns", "plain")
    registry.record("ns", {"tenant": "t"}, cost=3.0)
    registry.record("ns", plain=4)
    registry.reset("ns")
    assert registry.snapshot("ns") == {"plain": 0}


def test_labeled_counter_renders_identically_in_both_shapes():
    registry = CounterRegistry()
    registry.inc("requests_served_total", labels={"cache": "hit"})
    registry.inc("requests_served_total", 2, labels={"cache": "miss"})
    registry.record("kernel", {"tier": "numpy64"}, hits=5)
    registry.inc("plain_total", 7)

    from_stats = registry.stats_dict()["counters"]
    from_text = {}
    for line in registry.render_prometheus().splitlines():
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        match = re.fullmatch(r"repro_(\w+?)(?:\{(.*)\})?", series)
        name, labels = match.group(1), match.group(2)
        if labels:
            labels = ",".join(
                f"{k}={v}" for k, v in re.findall(r'(\w+)="([^"]*)"', labels)
            )
            name = f"{name}{{{labels}}}"
        from_text[name] = float(value)
    assert from_stats == {
        "kernel_hits{tier=numpy64}": 5,
        "plain_total": 7,
        "requests_served_total{cache=hit}": 1,
        "requests_served_total{cache=miss}": 2,
    }
    assert from_text == from_stats


def test_label_values_are_escaped():
    registry = CounterRegistry()
    hostile = 'a"} 1\nrepro_injected 99 #\\'
    registry.inc("requests_total", labels={"tenant": hostile})
    registry.register_gauge("deficit", lambda: {hostile: 1.0}, label="tenant")
    text = registry.render_prometheus()
    assert not any(
        line.startswith("repro_injected") for line in text.splitlines()
    )
    escaped = 'a\\"} 1\\nrepro_injected 99 #\\\\'
    assert f'repro_requests_total{{tenant="{escaped}"}} 1' in text
    assert f'repro_deficit{{tenant="{escaped}"}} 1.0' in text

