"""Sweep-aware batched trajectory scheduling: fusion, dedup, adaptivity.

The paper's figures sweep error rates over a *fixed* compiled circuit
skeleton, and at the paper's sparse noise most sampled trajectories are
the clean one or repeat a one-error configuration.  This module turns
both observations into wall-clock:

* **Cross-task fusion** — trajectory rows from every task (sweep cell x
  instance) whose :attr:`~repro.sim.program.CompiledProgram.fusion_key`
  matches are packed into one ``(B, 2**n)`` state buffer, so each
  boundary gate kernel and each kernel-cached monomial gather is paid
  once per *chunk* instead of once per cell.
* **Error-configuration dedup** — each trajectory's full Pauli insertion
  pattern is sampled up front and canonicalised to a tuple of
  ``(site ordinal, label)`` events; only *distinct* configurations are
  simulated, and every trajectory samples its shots from its
  configuration's (shared) output distribution.  This generalises the
  clean/erred split of :class:`~repro.sim.trajectories.TrajectoryEngine`
  to all configurations and is **exact**: identical configurations
  produce bit-identical states, so merging them changes nothing but the
  amount of simulation work.
* **Adaptive shot allocation** — the paper's success criterion (no
  incorrect outcome may out-count any correct one) admits sequential
  early termination.  With the budget split over rounds, a task whose
  count margin ``D = min(correct) - max(incorrect)`` exceeds the
  remaining shot budget ``R`` in absolute value is *decided*: no
  completion of the remaining shots can flip the verdict, so the rule
  ``|D| > R`` stops exactly.  An optional Hoeffding-style rule
  (``delta > 0``) additionally stops once ``|D| >
  sqrt(0.5 * s * ln(1/delta))`` after ``s`` shots — a bounded-error
  shortcut whose flip probability per decided task is at most ``delta``.

Determinism contract (pinned by ``tests/test_batch_scheduler.py``): all
random draws happen per task in a fixed order — configuration sampling
first (clean-shot binomial, first-fire sites, fire matrix, label draws
per site), then outcome sampling (shot spreading, one multinomial per
trajectory row, readout flips) — and per-row state arithmetic never
depends on which other rows share a buffer (firing rows advance through
kernel-cached *partial* monomials split at their own fire positions
only).  Consequently ``fuse``/``dedup`` toggles and chunk geometry are
bit-invisible, and ``adaptive=False`` is literally a single round.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import sanitizer
from ..runtime.counters import COUNTERS
from ..runtime.envutil import env_mb_bytes
from ..runtime.health import check_norms, norm_tolerance
from .backend import get_backend, resolve_complex_dtype
from .ops import (
    BitCache,
    apply_pauli_string_rows,
    apply_readout_flips,
    multinomial_outcomes,
    probabilities,
    sample_rows,
)
from .program import CompiledProgram, _mono_apply_rows
from .result import Counts
from .statevector import zero_state

__all__ = [
    "TrajectoryTask",
    "TaskResult",
    "FusedTrajectoryScheduler",
    "run_request_tasks",
    "scheduler_stats",
]


# ---------------------------------------------------------------------------
# Process-wide counters (the registry's ``scheduler`` namespace)
# ---------------------------------------------------------------------------

COUNTERS.declare(
    "scheduler", "tasks", "trajectories_sampled", "rows_simulated",
    "chunks", "chunk_rows", "decided_early",
)


def scheduler_stats() -> Dict[str, float]:
    """Process-wide scheduler counters plus their derived ratios."""
    stats = COUNTERS.snapshot("scheduler")
    chunk_rows = stats.pop("chunk_rows")
    simulated, chunks = stats["rows_simulated"], stats["chunks"]
    stats["dedup_ratio"] = (
        stats["trajectories_sampled"] / simulated if simulated else 1.0
    )
    stats["batch_occupancy"] = chunk_rows / chunks if chunks else 0.0
    return stats


COUNTERS.register_gauge(
    "trajectory_dedup_ratio", lambda: scheduler_stats()["dedup_ratio"]
)
COUNTERS.register_gauge(
    "trajectory_batch_occupancy", lambda: scheduler_stats()["batch_occupancy"]
)
COUNTERS.register_gauge(
    "trajectories_spent_total",
    lambda: scheduler_stats()["trajectories_sampled"],
)


# ---------------------------------------------------------------------------
# Task / result records
# ---------------------------------------------------------------------------

class TrajectoryTask:
    """One unit of trajectory work: a (program, instance, budget) triple.

    ``rng`` is consumed exclusively by this task, in a fixed draw order,
    so a task's result is independent of which other tasks ride the same
    fused batch.  ``correct`` (a set of correct outcome integers)
    enables adaptive early termination; without it a task always spends
    its full budget.
    """

    __slots__ = (
        "key", "program", "shots", "trajectories", "rng",
        "initial_state", "correct",
    )

    def __init__(
        self,
        key,
        program: CompiledProgram,
        shots: int,
        trajectories: int,
        rng: np.random.Generator,
        initial_state: Optional[np.ndarray] = None,
        correct: Optional[frozenset] = None,
    ) -> None:
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        if trajectories < 1:
            raise ValueError(
                f"trajectories must be >= 1, got {trajectories}"
            )
        if not program.pauli_only:
            raise ValueError(
                "batched scheduling requires a Pauli-only program "
                "(no Kraus channels, no mid-circuit reset)"
            )
        self.key = key
        self.program = program
        self.shots = int(shots)
        self.trajectories = int(trajectories)
        self.rng = rng
        self.initial_state = initial_state
        self.correct = frozenset(correct) if correct is not None else None


class TaskResult:
    """Counts plus the spend/efficiency record of one task."""

    __slots__ = (
        "counts", "shots_spent", "trajectories_sampled",
        "rows_simulated", "batch_occupancy", "decided_early",
        "rounds_run",
    )

    def __init__(
        self,
        counts: Counts,
        shots_spent: int,
        trajectories_sampled: int,
        rows_simulated: int,
        batch_occupancy: float,
        decided_early: bool,
        rounds_run: int,
    ) -> None:
        self.counts = counts
        self.shots_spent = shots_spent
        self.trajectories_sampled = trajectories_sampled
        self.rows_simulated = rows_simulated
        self.batch_occupancy = batch_occupancy
        self.decided_early = decided_early
        self.rounds_run = rounds_run

    @property
    def dedup_ratio(self) -> float:
        """Sampled trajectories per simulated erred row (>= 1.0).

        1.0 means no configuration repeated; higher values are the
        dedup savings factor on state-evolution work.
        """
        if self.rows_simulated <= 0:
            return 1.0
        return self.trajectories_sampled / self.rows_simulated


# ---------------------------------------------------------------------------
# Per-round task state
# ---------------------------------------------------------------------------

class _RoundPlan:
    """One task's sampled configurations for one round."""

    __slots__ = (
        "task", "state", "shots", "n_clean", "n_err", "B",
        "rows", "row_of_traj", "probs",
    )

    def __init__(self, task: TrajectoryTask, state: "_TaskState",
                 shots: int) -> None:
        self.task = task
        self.state = state
        self.shots = shots
        self.n_clean = 0
        self.n_err = 0
        self.B = 0
        #: distinct rows to simulate this round: ``None`` is the clean
        #: row, otherwise a tuple of (ordinal, qubits, label) events.
        self.rows: List[Optional[tuple]] = []
        #: trajectory index -> index into ``rows``.
        self.row_of_traj: List[int] = []
        self.probs: Optional[np.ndarray] = None


class _TaskState:
    """Accumulated outcomes and spend of one task across rounds."""

    __slots__ = (
        "task", "outcomes", "shots_spent", "trajectories_sampled",
        "rows_simulated", "chunk_rows", "chunks", "decided",
        "rounds_run",
    )

    def __init__(self, task: TrajectoryTask) -> None:
        self.task = task
        self.outcomes: List[np.ndarray] = []
        self.shots_spent = 0
        self.trajectories_sampled = 0
        self.rows_simulated = 0
        self.chunk_rows = 0
        self.chunks = 0
        self.decided = False
        self.rounds_run = 0

    def margin(self) -> Optional[int]:
        """``min(correct) - max(incorrect)`` over outcomes so far."""
        correct = self.task.correct
        if not correct or not self.outcomes:
            return None
        vals, cnts = np.unique(
            np.concatenate(self.outcomes), return_counts=True
        )
        table = dict(zip(vals.tolist(), cnts.tolist()))
        min_correct = min(table.get(o, 0) for o in correct)
        max_incorrect = 0
        for outcome, c in table.items():
            if outcome not in correct and c > max_incorrect:
                max_incorrect = c
        return min_correct - max_incorrect

    def result(self, num_qubits: int) -> TaskResult:
        outcomes = (
            np.concatenate(self.outcomes)
            if self.outcomes
            else np.empty(0, dtype=int)
        )
        counts = Counts.from_outcome_list(outcomes, num_qubits)
        return TaskResult(
            counts=counts,
            shots_spent=self.shots_spent,
            trajectories_sampled=self.trajectories_sampled,
            rows_simulated=self.rows_simulated,
            batch_occupancy=(
                self.chunk_rows / self.chunks if self.chunks else 0.0
            ),
            decided_early=self.decided,
            rounds_run=self.rounds_run,
        )


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

class FusedTrajectoryScheduler:
    """Executes :class:`TrajectoryTask`\\ s with fusion/dedup/adaptivity.

    Parameters
    ----------
    fuse:
        Pack rows of fusion-compatible tasks into shared state buffers.
    dedup:
        Simulate each distinct error configuration once per task-round.
    adaptive / rounds / delta:
        Split each task's budget over ``rounds`` sequential rounds and
        stop a task once its verdict is decided (see module docs).
        ``adaptive=False`` forces a single round.  ``delta=0`` uses only
        the exact ``|D| > remaining`` rule; ``delta > 0`` adds the
        Hoeffding rule at confidence ``1 - delta``.
    max_batch_rows:
        Chunk-height ceiling; default derives from the ``REPRO_BATCH_MB``
        byte budget (256 MB) and the state width.
    """

    def __init__(
        self,
        fuse: bool = True,
        dedup: bool = True,
        adaptive: bool = False,
        rounds: int = 4,
        delta: float = 0.0,
        max_batch_rows: Optional[int] = None,
        dtype=None,
    ) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {delta}")
        if max_batch_rows is not None and max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        self.fuse = bool(fuse)
        self.dedup = bool(dedup)
        self.adaptive = bool(adaptive)
        self.rounds = int(rounds) if adaptive else 1
        self.delta = float(delta)
        self.max_batch_rows = max_batch_rows
        self.dtype = resolve_complex_dtype(dtype)
        self._bits = BitCache()
        self._chunks_run = 0
        self._chunk_rows_run = 0

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[TrajectoryTask]) -> Dict[object, TaskResult]:
        """Execute every task; returns ``{task.key: TaskResult}``.

        Tasks are processed in input order within every phase, so
        results are independent of grouping and chunk geometry.
        """
        states = [_TaskState(t) for t in tasks]
        self._chunks_run = 0
        self._chunk_rows_run = 0
        groups = self._group(states)
        for rnd in range(self.rounds):
            for group in groups:
                live = [s for s in group if not s.decided]
                if not live:
                    continue
                plans = [
                    self._sample_configs(s, self._round_shots(s.task, rnd))
                    for s in live
                ]
                plans = [p for p in plans if p.rows]
                self._simulate(plans)
                for p in plans:
                    self._sample_outcomes(p)
                for s in live:
                    s.rounds_run = rnd + 1
                    if self.adaptive and rnd + 1 < self.rounds:
                        self._check_decided(s, rnd)
        results = {s.task.key: s.result(s.task.program.num_qubits)
                   for s in states}
        COUNTERS.record(
            "scheduler",
            tasks=len(states),
            trajectories_sampled=sum(s.trajectories_sampled for s in states),
            rows_simulated=sum(s.rows_simulated for s in states),
            chunks=self._chunks_run,
            chunk_rows=self._chunk_rows_run,
            decided_early=sum(1 for s in states if s.decided),
        )
        return results

    # ------------------------------------------------------------------
    def _group(self, states: List[_TaskState]) -> List[List[_TaskState]]:
        if not self.fuse:
            return [[s] for s in states]
        groups: Dict[tuple, List[_TaskState]] = {}
        for s in states:
            groups.setdefault(s.task.program.fusion_key, []).append(s)
        return list(groups.values())

    def _round_shots(self, task: TrajectoryTask, rnd: int) -> int:
        base, extra = divmod(task.shots, self.rounds)
        return base + (1 if rnd < extra else 0)

    def _round_trajectories(self, task: TrajectoryTask, rnd: int) -> int:
        base, extra = divmod(task.trajectories, self.rounds)
        return max(1, base + (1 if rnd < extra else 0))

    # ------------------------------------------------------------------
    # Phase A: configuration sampling (all of a task's "which errors
    # fire where" randomness, drawn in one fixed order)
    # ------------------------------------------------------------------
    def _sample_configs(
        self, state: _TaskState, shots: int
    ) -> _RoundPlan:
        task = state.task
        rng = task.rng
        plan = _RoundPlan(task, state, shots)
        if shots <= 0:
            return plan
        sites = task.program.pauli_sites()
        es = np.array([op.e for _, op in sites])
        one_minus = 1.0 - es
        prefix_clean = np.ones(es.size)
        if es.size > 1:
            prefix_clean[1:] = np.cumprod(one_minus[:-1])
        p0 = float(np.prod(one_minus)) if es.size else 1.0

        n_clean = int(rng.binomial(shots, p0))
        n_err = shots - n_clean
        traj_cap = self._round_trajectories(task, state.rounds_run)
        B = min(traj_cap, n_err) if n_err else 0
        plan.n_clean, plan.n_err, plan.B = n_clean, n_err, B

        if n_clean:
            plan.rows.append(None)
        if not B:
            return plan

        # First fire per trajectory: P(first = s) ∝ prefix_clean[s]*e_s,
        # then independent fires at every later site — the same exact
        # law as TrajectoryEngine's forking split.
        pfirst = prefix_clean * es
        pfirst = pfirst / pfirst.sum()
        first = rng.choice(es.size, size=B, p=pfirst)
        u = rng.random((B, es.size))
        fires = u < es[None, :]
        site_idx = np.arange(es.size)[None, :]
        fires &= site_idx > first[:, None]
        fires[np.arange(B), first] = True

        # Label draws: one conditioned-choice batch per site, in site
        # order, covering that site's firing trajectories in row order.
        labels_of = [[] for _ in range(B)]
        for s, (_, op) in enumerate(sites):
            rows_f = np.flatnonzero(fires[:, s])
            if rows_f.size == 0:
                continue
            draws = rng.choice(len(op.labels), size=rows_f.size, p=op.cond)
            for b, idx in zip(rows_f, draws):
                labels_of[b].append((s, op.qubits, op.labels[idx]))
        configs = [tuple(ev) for ev in labels_of]

        if self.dedup:
            index: Dict[tuple, int] = {}
            for cfg in configs:
                row = index.get(cfg)
                if row is None:
                    index[cfg] = len(plan.rows)
                    plan.rows.append(cfg)
                    plan.row_of_traj.append(index[cfg])
                else:
                    plan.row_of_traj.append(row)
        else:
            for cfg in configs:
                plan.row_of_traj.append(len(plan.rows))
                plan.rows.append(cfg)
        state.trajectories_sampled += B
        state.rows_simulated += sum(
            1 for r in plan.rows if r is not None
        )
        return plan

    # ------------------------------------------------------------------
    # Phase B: batched simulation of the distinct rows
    # ------------------------------------------------------------------
    def _auto_rows(self, n: int) -> int:
        budget = env_mb_bytes("REPRO_BATCH_MB", 256)
        per_row = (1 << n) * np.dtype(self.dtype).itemsize
        # state + scratch + float64 probabilities live at once
        return max(1, budget // max(1, per_row * 3))

    def _simulate(self, plans: List[_RoundPlan]) -> None:
        if not plans:
            return
        n = plans[0].task.program.num_qubits
        cap = self.max_batch_rows or self._auto_rows(n)
        # Greedy in-order chunking; a plan's rows may span chunks (the
        # per-row arithmetic is chunk-invariant, so this is free).
        pending: List[Tuple[_RoundPlan, int]] = [
            (p, r) for p in plans for r in range(len(p.rows))
        ]
        for p in plans:
            p.probs = np.empty((len(p.rows), 1 << n))
        for lo in range(0, len(pending), cap):
            chunk = pending[lo:lo + cap]
            self._simulate_chunk(chunk, n)
            self._chunks_run += 1
            self._chunk_rows_run += len(chunk)
            # Each task records the *total* height of every chunk its
            # rows rode in — the occupancy it owes to fusion.
            touched = {id(pl.state): pl.state for pl, _ in chunk}
            for st in touched.values():
                st.chunks += 1
                st.chunk_rows += len(chunk)

    def _simulate_chunk(
        self, chunk: List[Tuple[_RoundPlan, int]], n: int
    ) -> None:
        """Evolve one chunk of rows with clean-prefix sharing.

        Every plan's rows in a chunk are contiguous (``pending`` lists
        plans in order), forming a *block*.  Each block carries one
        clean **reference** row — the plan's clean row when it rides
        this chunk, a synthetic extra row otherwise — and every erred
        row stays *dead* until the segment holding its first fire, at
        which point it copies the reference and walks piecewise from
        there.  Because every kernel involved (boundary gate, full/
        partial monomial, Pauli scatter) is row-local, the inherited
        prefix is bit-identical to the row having idled through those
        segments itself — the determinism contract is untouched while
        prefix gate work is paid once per block instead of once per
        row.  Sorting a block's rows by first-fire ordinal keeps the
        live rows a contiguous prefix, so boundary unitaries apply to
        views, never to rows that have not started.
        """
        dim = 1 << n
        # -- carve the chunk into per-plan blocks -----------------------
        blocks: List[Tuple[_RoundPlan, List[int]]] = []
        for plan, r in chunk:
            if blocks and blocks[-1][0] is plan:
                blocks[-1][1].append(r)
            else:
                blocks.append((plan, [r]))
        layouts = []  # (plan, start, ref_plan_row, sorted_event_rows)
        height = 0
        for plan, rows in blocks:
            empty = [r for r in rows if not plan.rows[r]]
            eventful = sorted(
                (r for r in rows if plan.rows[r]),
                key=lambda r: plan.rows[r][0][0],
            )
            ref = empty[0] if empty else None
            layouts.append((plan, height, ref, eventful))
            height += 1 + len(eventful)

        # Chunk allocation goes through the backend so device tiers
        # can swap the buffer without touching the walk below.
        buf = (
            get_backend().empty((height, dim))
            if np.dtype(self.dtype)
            == np.dtype(get_backend().complex_dtype)
            else np.empty((height, dim), dtype=self.dtype)
        )
        events: List[tuple] = [()] * height
        for plan, start, _ref, eventful in layouts:
            init = plan.task.initial_state
            if init is None:
                buf[start] = zero_state(n, 1, self.dtype)[0]
            else:
                vec = np.asarray(init, dtype=self.dtype).reshape(-1)
                if vec.shape[0] != dim:
                    raise ValueError("initial state has wrong dimension")
                buf[start] = vec
            for j, r in enumerate(eventful):
                events[start + 1 + j] = plan.rows[r]
        cursor = [0] * height
        live = [0] * len(layouts)  # activated erred rows per block
        row_scratch = np.empty(dim, dtype=self.dtype)
        stream = chunk[0][0].task.program.exec_stream()
        ordinal_base = 0
        for tag, item in stream:
            if tag == "op":
                # Boundary unitaries (dense gates) apply to each
                # block's live prefix; Pauli-only programs have no
                # other boundaries.  Dead rows inherit the op through
                # their later reference-row copy.
                for b, (_plan, start, _ref, _ev) in enumerate(layouts):
                    item.apply(buf[start:start + 1 + live[b]], n)
                continue
            seg = item
            n_sites = len(seg.sites)
            n_elems = len(seg.elems)
            hi = ordinal_base + n_sites
            # elem position of each ordinal inside this segment
            pos_of = {
                ordinal: elem_pos
                for elem_pos, _op, ordinal in seg.sites
            }
            idle: List[int] = []
            for b, (plan, start, _ref, eventful) in enumerate(layouts):
                k = live[b]
                # Rows whose first fire lands here copy the reference
                # (still at segment start) and join the walk.
                while k < len(eventful) and events[start + 1 + k][0][0] < hi:
                    buf[start + 1 + k] = buf[start]
                    k += 1
                live[b] = k
                idle.append(start)  # the reference row never fires
                for j in range(k):
                    i = start + 1 + j
                    evs = events[i]
                    c = cursor[i]
                    if c >= len(evs) or evs[c][0] >= hi:
                        idle.append(i)
                        continue
                    # Walk this row alone, splitting at its own fires
                    # only: the composed pieces depend on nothing but
                    # the row's configuration, which keeps fusion and
                    # dedup bit-invisible.
                    pos = 0
                    while c < len(evs) and evs[c][0] < hi:
                        ordinal, qubits, label = evs[c]
                        p = pos_of[ordinal]
                        if p > pos:
                            _mono_apply_rows(
                                buf, (i,),
                                seg.partial(n, pos, p, buf.dtype),
                                row_scratch,
                            )
                            pos = p
                        apply_pauli_string_rows(
                            buf, label, qubits, np.array([i]), n,
                            self._bits,
                        )
                        c += 1
                    cursor[i] = c
                    if pos < n_elems:
                        _mono_apply_rows(
                            buf, (i,),
                            seg.partial(n, pos, n_elems, buf.dtype),
                            row_scratch,
                        )
            if n_elems and idle:
                _mono_apply_rows(
                    buf, idle, seg.full(n, buf.dtype), row_scratch
                )
            ordinal_base = hi
        check_norms(
            buf, "batched trajectory scheduler",
            atol=norm_tolerance(self.dtype),
        )
        p = probabilities(buf)
        for plan, start, ref, eventful in layouts:
            if ref is not None:
                plan.probs[ref] = p[start]
            for j, r in enumerate(eventful):
                plan.probs[r] = p[start + 1 + j]
        if sanitizer.enabled():
            # Geometry-tagged (chunk height varies with batching mode
            # and REPRO_BATCH_MB), so this stage is excluded from
            # cross-path comparison; it localises a divergence to the
            # first differing evolution when the portable stages split.
            sanitizer.record(
                "chunk",
                {"height": height, "probs": p},
                key=repr(sorted({repr(pl.task.key) for pl, _ in chunk})),
            )

    # ------------------------------------------------------------------
    # Phase C: outcome sampling (per task, fixed draw order)
    # ------------------------------------------------------------------
    def _sample_outcomes(self, plan: _RoundPlan) -> None:
        task, state = plan.task, plan.state
        rng = task.rng
        outs: List[np.ndarray] = []
        probs = plan.probs
        if plan.n_clean:
            outs.append(multinomial_outcomes(rng, probs[0], plan.n_clean))
        if plan.B:
            # ``row_of_traj`` maps each trajectory to its (possibly
            # shared, with dedup) row, past the clean row when present.
            outs.append(
                sample_rows(rng, probs, plan.n_err, plan.row_of_traj)
            )
            plan.probs = None  # free the round's distributions
        outcomes = (
            np.concatenate(outs) if outs else np.empty(0, dtype=int)
        )
        outcomes = apply_readout_flips(rng, outcomes, task.program.readout)
        if sanitizer.enabled():
            # One portable event per (task, round): the sampled outcome
            # stream plus the RNG state it left behind.  Identical
            # across batching="cell" and "group" by the determinism
            # contract — chunk geometry must never leak into draws.
            sanitizer.record(
                "task",
                {
                    "outcomes": outcomes,
                    "rng": rng.bit_generator.state,
                    "shots": plan.shots,
                },
                key=repr(task.key),
            )
        state.outcomes.append(outcomes)
        state.shots_spent += plan.shots

    # ------------------------------------------------------------------
    # Adaptive termination
    # ------------------------------------------------------------------
    def _check_decided(self, state: _TaskState, rnd: int) -> None:
        margin = state.margin()
        if margin is None:
            return
        remaining = state.task.shots - state.shots_spent
        if remaining <= 0:
            return
        if abs(margin) > remaining:
            # Exact: no completion of the remaining shots can flip the
            # verdict (each shot moves min(correct) - max(incorrect) by
            # at most one in either direction).
            state.decided = True
            return
        if self.delta > 0:
            bound = math.sqrt(
                0.5 * state.shots_spent * math.log(1.0 / self.delta)
            )
            if abs(margin) > bound:
                state.decided = True


# ---------------------------------------------------------------------------
# Service entry: one pass over heterogeneous request-owned tasks
# ---------------------------------------------------------------------------

def run_request_tasks(
    tasks: Sequence[TrajectoryTask],
    *,
    fuse: bool = True,
    dedup: bool = True,
    max_batch_rows: Optional[int] = None,
    dtype=None,
) -> Dict[object, TaskResult]:
    """Execute a micro-batch of *request-owned* tasks in one scheduler pass.

    This is the group-of-groups entry used by the service fusion tier:
    ``tasks`` may mix fusion keys, shot budgets, trajectory counts and
    initial states — the scheduler regroups by exact
    :attr:`~repro.sim.program.CompiledProgram.fusion_key` internally, so
    callers may batch on any coarser proxy (e.g. circuit family) without
    risking cross-key contamination.  Tasks whose keys collide must be
    identical requests; later results overwrite earlier ones, which is
    then a no-op by the determinism contract.

    Adaptivity is deliberately **off**: per-request results must be
    bit-identical whether a request was fused with neighbours or ran
    alone, and a single non-adaptive round is the configuration whose
    draw order matches the per-request ``dedup`` path exactly.
    """
    if not tasks:
        return {}
    scheduler = FusedTrajectoryScheduler(
        fuse=fuse,
        dedup=dedup,
        adaptive=False,
        max_batch_rows=max_batch_rows,
        dtype=dtype,
    )
    return scheduler.run(tasks)
