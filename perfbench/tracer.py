"""In-memory span tracer that instruments ``repro`` from the outside.

Nothing under ``src/`` knows about this module.  :func:`install` patches
the names callers look up — a module function such as
``compile_circuit``, in every module that imported it, or a class method
such as ``KernelCache.get`` — so each call into a layer records one span:
``(id, parent id, layer, name, thread, start, end)``.  Spans stay in a
list until the run ends; :func:`summarize` then turns them into
per-layer call counts and *self* time (a span's duration minus the part
of it covered by its child spans), which is what the benchmark reports
as ``<layer>.busy_s``.

Parents are tracked per thread, so spans from the service's executor
threads nest correctly and spans of different threads never claim each
other's time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

# (id, parent id or 0, layer, name, thread id, start, end)
Span = Tuple[int, int, str, str, int, float, float]


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, parent, layer, name, threading.get_ident(), start, end)
                )

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.peaks[name]:
                self.peaks[name] = value


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _layer, _name, _tid, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()))
        for sid, _parent, _layer, _name, _tid, start, end in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``busy_s`` (self time) and ``total_s``."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, layer, _name, _tid, start, end in spans:
        row = out.setdefault(layer, {"calls": 0, "busy_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += own[sid]
        row["total_s"] += end - start
    return out


def thread_coverage(spans: Sequence[Span]) -> float:
    """Covered seconds summed over threads (each thread's spans nest)."""
    by_thread: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _parent, _layer, _name, tid, start, end in spans:
        by_thread[tid].append((start, end))
    return sum(union_length(iv) for iv in by_thread.values())


def coverage(spans: Sequence[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by at least one span."""
    return union_length(
        (max(s, start), min(e, end))
        for *_rest, s, e in spans
        if e > start and s < end
    )


# ---------------------------------------------------------------------------
# Instrumentation of the repro package
# ---------------------------------------------------------------------------

def _replace_everywhere(module_name: str, attr: str, new: Any) -> None:
    """Point ``module.attr`` and every loaded alias of it at ``new``."""
    module = sys.modules[module_name]
    old = getattr(module, attr)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name == "repro" or name.startswith("repro."):
            if getattr(mod, attr, None) is old:
                setattr(mod, attr, new)


def _wrap_function(tracer: Tracer, layer: str, module_name: str, attr: str) -> None:
    fn = getattr(sys.modules[module_name], attr)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(layer, attr, fn, *args, **kwargs)

    _replace_everywhere(module_name, attr, traced)


def _wrap_method(tracer: Tracer, layer: str, cls: type, attr: str) -> None:
    fn = getattr(cls, attr)
    name = f"{cls.__name__}.{attr}"

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(layer, name, fn, *args, **kwargs)

    setattr(cls, attr, traced)


def install(tracer: Tracer) -> None:
    """Instrument every layer boundary the benchmark reports on."""
    import repro.cut.engine  # noqa: F401  (binds the cut names)
    import repro.experiments.runner as runner
    import repro.experiments.sweep  # noqa: F401  (binds runner names)
    import repro.service.executor  # noqa: F401
    from repro.cut.parallel import PoolRunner, SerialRunner
    from repro.runtime.supervisor import Supervisor
    from repro.sim.batch import FusedTrajectoryScheduler
    from repro.sim.density import DensityMatrixEngine
    from repro.sim.program import KernelCache
    from repro.sim.ptm import PTMEngine
    from repro.sim.result import Distribution
    from repro.sim.statevector import StatevectorEngine
    from repro.sim.trajectories import TrajectoryEngine

    # Circuit build + transpile: only cache misses of the per-process LRU
    # do work, so trace the wrapped function and keep an LRU in front.
    build = runner.build_arithmetic_circuit
    traced_build = functools.lru_cache(maxsize=64)(
        functools.wraps(build.__wrapped__)(
            lambda *a: tracer.call("transpile", "build_arithmetic_circuit",
                                   build.__wrapped__, *a)
        )
    )
    _replace_everywhere("repro.experiments.runner", "build_arithmetic_circuit",
                        traced_build)
    _wrap_function(tracer, "compile", "repro.sim.program", "compile_circuit")
    for attr in ("evaluate_instance", "summarize"):
        _wrap_function(tracer, "success", "repro.metrics.success", attr)
    _wrap_function(tracer, "cut.plan", "repro.cut.search", "find_cuts")
    for attr in ("assemble_register_terms", "contract_wire_plan"):
        _wrap_function(tracer, "cut.reconstruct", "repro.cut.reconstruct", attr)

    for cls in (TrajectoryEngine, FusedTrajectoryScheduler):
        _wrap_method(tracer, "evolve", cls, "run")
    _wrap_method(tracer, "statevector", StatevectorEngine, "run")
    _wrap_method(tracer, "density", DensityMatrixEngine, "run")
    _wrap_method(tracer, "ptm", PTMEngine, "run")
    _wrap_method(tracer, "sample", Distribution, "sample")
    for cls in (PoolRunner, SerialRunner):
        _wrap_method(tracer, "cut.fragments", cls, "run")
    # The service's executor threads run one of these per request or
    # fused batch: their spans are the server's busy time, and their
    # self time is the part no simulator layer above accounts for.
    for attr in ("_execute_payload", "_execute_fused_batch"):
        _wrap_function(tracer, "executor", "repro.service.executor", attr)

    kernel_get = KernelCache.get

    def traced_get(self: KernelCache, key: tuple, builder: Any, group: str = "shared") -> Any:
        if key in self._entries:  # hit: no kernel build, no span
            return kernel_get(self, key, builder, group)
        value = tracer.call("kernel", "KernelCache.get", kernel_get,
                            self, key, builder, group)
        tracer.peak("kernel.peak_bytes", self.total_bytes)
        return value

    KernelCache.get = traced_get

    supervisor_run = Supervisor.run

    def traced_run(self: Supervisor, cells: Sequence[Tuple[Any, Any]]) -> Any:
        """Count units and retries; time the run minus its unit calls.

        Only in-process runs are timed: a pooled worker must stay
        picklable, so it is left alone.
        """
        user_hook, worker = self.on_result, self.worker
        in_process = self.workers <= 1 or len(cells) <= 1
        work_s = 0.0

        def on_result(key: Any, value: Any, attempts: int) -> None:
            tracer.count("dispatch.retries", attempts - 1)
            if user_hook is not None:
                user_hook(key, value, attempts)

        def timed_worker(payload: Any, attempt: int) -> Any:
            nonlocal work_s
            t0 = tracer.clock()
            try:
                return worker(payload, attempt)
            finally:
                work_s += tracer.clock() - t0

        self.on_result = on_result
        if in_process:
            self.worker = timed_worker
        t0 = tracer.clock()
        try:
            return tracer.call("dispatch", "Supervisor.run", supervisor_run, self, cells)
        finally:
            tracer.count("dispatch.units", len(cells))
            if in_process:
                tracer.count("dispatch.overhead_s", tracer.clock() - t0 - work_s)
            self.on_result, self.worker = user_hook, worker

    Supervisor.run = traced_run
