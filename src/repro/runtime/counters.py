"""The counter registry: counters, gauges and latency histograms.

:class:`CounterRegistry` stores, locks, snapshots, resets and exports
every counter in the package.  Each server builds one for its request
ledger; :data:`COUNTERS` is the process-wide instance the simulator
layers record into, each under its own namespace (``scheduler``,
``compile``, ``kernel``, ``ptm``, ``cut``, ``fusion``).  Both render
through the same code: a JSON snapshot for ``/stats`` and the
Prometheus text exposition format (0.0.4) for ``/metrics``.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["COUNTERS", "CounterRegistry", "CounterView"]

#: A series' label set, sorted by label name.
Labels = Tuple[Tuple[str, str], ...]

#: Histogram bucket bounds in seconds: sub-millisecond cache hits to
#: multi-second simulations.
BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> Labels:
    return tuple(sorted(labels.items())) if labels else ()


def _escape(value: object) -> str:
    # Exposition format 0.0.4 escapes backslash, double quote and
    # newline in label values; a tenant label is any request string.
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Labels) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in labels) + "}"


def _latency_summary(hist: list) -> Dict[str, float]:
    """One histogram (bucket counts, then the sum) as ``/stats`` shows it.

    A quantile is the upper bound of the bucket that holds it.
    """
    counts, total = hist[:-1], sum(hist[:-1])

    def quantile(q: float) -> float:
        running = 0.0
        for bound, c in zip(BUCKETS + (float("inf"),), counts):
            running += c
            if running >= q * total:
                return bound
        return float("inf")

    return {
        "count": total,
        "sum_seconds": hist[-1],
        "mean_seconds": hist[-1] / total if total else 0.0,
        "p50_seconds": quantile(0.50) if total else 0.0,
        "p99_seconds": quantile(0.99) if total else 0.0,
    }


class CounterRegistry:
    """A lock-guarded registry of counters, gauges and histograms.

    * counters — monotonic totals grouped by ``namespace`` (``""`` is
      the service's own ledger), each with an optional label set.  A
      name is either plain or labeled, never both;
    * gauges — callables sampled at render time, outside the lock (so
      a gauge may read this registry);
    * histograms — per-stage latency, created on first use.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[Tuple[str, Labels], float]] = {}
        #: name -> (label, fn); with a label, fn returns a family
        #: ``{label_value: value}``
        self._gauges: Dict[str, Tuple[Optional[str], Callable[[], Any]]] = {}
        #: stage -> bucket counts (the last one +Inf), then the sum
        self._histograms: Dict[str, list] = {}
        #: peak of the ``inflight_requests`` gauge, maintained by the
        #: server; proves sustained concurrency in the load smoke.
        self.peak_inflight = 0

    # -- counters ---------------------------------------------------------
    def declare(self, namespace: str, *names: str) -> None:
        """Start plain counters at zero, so they show before first use."""
        self.record(namespace, **dict.fromkeys(names, 0))

    def record(
        self,
        namespace: str,
        labels: Optional[Mapping[str, str]] = None,
        **amounts: float,
    ) -> None:
        """Add ``amounts`` (all with ``labels``) as one atomic update."""
        label_key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(namespace, {})
            for name, amount in amounts.items():
                key = (name, label_key)
                series[key] = series.get(key, 0) + amount

    def inc(
        self,
        name: str,
        amount: float = 1,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Add to one counter of the service ledger."""
        self.record("", labels, **{name: amount})

    def counter_total(self, name: str) -> float:
        """Sum of a service-ledger counter across all label sets."""
        with self._lock:
            return sum(
                v for (n, _), v in self._counters.get("", {}).items()
                if n == name
            )

    def snapshot(self, namespace: str) -> Dict[str, Any]:
        """``namespace``'s counters: ``{name: value}`` for a plain one,
        ``{name: {label values joined by ",": value}}`` for a labeled one.
        """
        with self._lock:
            items = list(self._counters.get(namespace, {}).items())
        out: Dict[str, Any] = {}
        for (name, labels), value in items:
            if labels:
                out.setdefault(name, {})[",".join(v for _, v in labels)] = value
            else:
                out[name] = value
        return out

    def reset(self, namespace: str) -> None:
        """Zero ``namespace``'s plain counters and drop its labeled ones."""
        with self._lock:
            series = self._counters.get(namespace, {})
            self._counters[namespace] = {k: 0 for k in series if not k[1]}

    # -- gauges and histograms -------------------------------------------
    def register_gauge(
        self, name: str, fn: Callable[[], Any], label: Optional[str] = None
    ) -> None:
        with self._lock:
            self._gauges[name] = (label, fn)

    def note_inflight(self, current: int) -> None:
        with self._lock:
            self.peak_inflight = max(self.peak_inflight, current)

    def observe(self, stage: str, seconds: float) -> None:
        idx = bisect.bisect_left(BUCKETS, seconds)
        with self._lock:
            hist = self._histograms.setdefault(
                stage, [0] * (len(BUCKETS) + 1) + [0.0]
            )
            hist[idx] += 1
            hist[-1] += seconds

    # -- rendering --------------------------------------------------------
    def _collect(self) -> Tuple[list, dict, dict]:
        """Sorted counters, sampled gauges and histogram copies.

        A namespaced counter is named ``<namespace>_<name>``.
        """
        with self._lock:
            counters = sorted(
                (f"{ns}_{name}" if ns else name, labels, value)
                for ns, series in self._counters.items()
                for (name, labels), value in series.items()
            )
            gauges = dict(self._gauges)
            hists = {k: list(v) for k, v in sorted(self._histograms.items())}
        sampled = {
            name: (label, fn() if label is None else dict(sorted(fn().items())))
            for name, (label, fn) in gauges.items()
        }
        return counters, sampled, hists

    def stats_dict(self) -> Dict[str, Any]:
        counters, gauges, hists = self._collect()
        by_name = {}
        for name, labels, value in counters:
            if labels:
                name += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            by_name[name] = value
        return {
            "counters": by_name,
            "gauges": {
                name: value for name, (label, value) in gauges.items()
                if label is None
            },
            "labeled_gauges": {
                name: value for name, (label, value) in sorted(gauges.items())
                if label is not None
            },
            "latency": {
                stage: _latency_summary(hist) for stage, hist in hists.items()
            },
            "peak_inflight": self.peak_inflight,
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every metric.

        The peak-inflight gauge appears once the registry has seen
        in-flight traffic, like a histogram on its first observation.
        """
        prefix = "repro"
        counters, gauges, hists = self._collect()
        lines: List[str] = []
        seen = set()
        for name, labels, value in counters:
            full = f"{prefix}_{name}"
            if full not in seen:
                seen.add(full)
                lines.append(f"# TYPE {full} counter")
            lines.append(f"{full}{_prom_labels(labels)} {value}")
        for name, (label, value) in gauges.items():
            full = f"{prefix}_{name}"
            lines.append(f"# TYPE {full} gauge")
            if label is None:
                lines.append(f"{full} {value}")
                continue
            for label_value, v in value.items():
                lines.append(f"{full}{_prom_labels(((label, label_value),))} {v}")
        if self.peak_inflight:
            lines.append(f"# TYPE {prefix}_peak_inflight_requests gauge")
            lines.append(f"{prefix}_peak_inflight_requests {self.peak_inflight}")
        for stage, hist in hists.items():
            full = f"{prefix}_latency_{stage}_seconds"
            lines.append(f"# TYPE {full} histogram")
            running = 0
            for bound, c in zip(BUCKETS, hist):
                running += c
                lines.append(f'{full}_bucket{{le="{bound}"}} {running}')
            total = running + hist[-2]
            lines.append(f'{full}_bucket{{le="+Inf"}} {total}')
            lines.append(f"{full}_sum {hist[-1]}")
            lines.append(f"{full}_count {total}")
        return "\n".join(lines) + "\n"


class CounterView:
    """A live read-only view of one namespace: attribute reads and
    :meth:`as_dict` take a fresh snapshot each time."""

    def __init__(self, registry: CounterRegistry, namespace: str) -> None:
        self._registry = registry
        self._namespace = namespace

    def as_dict(self) -> Dict[str, Any]:
        return self._registry.snapshot(self._namespace)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.as_dict()[name]
        except KeyError:
            raise AttributeError(name) from None


#: The process-wide registry every simulator layer records into.
COUNTERS = CounterRegistry()
