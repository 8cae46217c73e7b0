"""Compiled execution IR shared by every simulation engine.

:func:`compile_circuit` lowers a transpiled :class:`QuantumCircuit` plus
a :class:`NoiseModel` into a flat :class:`CompiledProgram` — a tuple of
typed ops with everything rate-independent hoisted out of the hot loop:

* :class:`DiagonalOp` — a fused run of adjacent diagonal gates (``rz``,
  ``p``/``cp``/``ccp``, ``z``/``s``/``t``...), executed as one
  precomputed ``2**n`` phase-vector multiply;
* :class:`PermutationOp` — ``x``/``cx``/``ccx``/``swap`` index
  permutations (``ccx`` precomputes its source/destination index pair);
* :class:`DenseOp` — genuinely dense 1q gates (``h``, ``sx``) via a
  broadcast matmul when the target qubit is high enough for the BLAS
  pass to beat the strided four-add kernel;
* :class:`GateOp` — fallback that replays the interpreter kernel of
  :mod:`repro.sim.ops` exactly (bit-for-bit);
* :class:`NoiseOp` — an error-channel site with the resolved
  :class:`QuantumError` and, for Pauli channels, the conditioned
  split-sampling table precomputed;
* :class:`ResetSiteOp` / :class:`MeasureSiteOp` — non-unitary circuit
  instructions, executed by the engines themselves.

Compilation is cached at two levels so a rate-only sweep lowers each
circuit exactly once:

1. **lowering** — keyed by circuit identity (weakly) plus the noise
   model's :meth:`~repro.noise.model.NoiseModel.structure_key` and the
   ``optimize`` flag.  The skeleton fixes the op layout and the *slots*
   of every noise site but not the channel contents.
2. **bind** — keyed by the noise model's full
   :meth:`~repro.noise.model.NoiseModel.fingerprint`; resolves slots to
   channels and the per-qubit readout table.  Binding is cheap (no
   circuit walk of kernels), so recompilation across error rates costs
   microseconds.

Materialised kernels (full ``2**n`` diagonal vectors, ``ccx`` index
pairs) are *not* stored on the ops — ops hold only compact picklable
descriptors, and kernels build lazily into a process-wide content-keyed
LRU (:class:`KernelCache`, budget via ``REPRO_KERNEL_CACHE_MB``).  Two
programs, or two thousand ``rz`` ops with the same angle, share one
vector; shipping a program to a worker process pickles descriptors only.
"""

from __future__ import annotations

import bisect
import cmath
import hashlib
import threading
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits import gates as G
from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import is_diagonal_gate, phase_on_ones
from ..noise.channels import PauliError, QuantumError, ResetError
from ..noise.model import NoiseModel
from ..runtime.counters import COUNTERS, CounterView
from ..runtime.envutil import env_mb_bytes
from .backend import canonical_complex, dtype_tag, kernel_group
from .ops import _GLOBAL_BITS, _apply_phase_on_mask, apply_instruction

__all__ = [
    "CompiledProgram",
    "compile_circuit",
    "as_program",
    "circuit_fingerprint",
    "compile_cache_stats",
    "reset_compile_caches",
    "kernel_cache_stats",
]

# Gate descriptor: (name, qubits, params) — hashable, picklable, enough
# to rebuild the Gate/Instruction via the registry.
Term = Tuple[str, Tuple[int, ...], Tuple[float, ...]]


def _term(instr: Instruction) -> Term:
    return (instr.gate.name, instr.qubits, tuple(instr.gate.params))


@lru_cache(maxsize=4096)
def _term_instruction(name: str, qubits: Tuple[int, ...],
                      params: Tuple[float, ...]) -> Instruction:
    """Rebuild (and share) the Instruction for a gate descriptor."""
    return Instruction(G.make_gate(name, *params), qubits)


# ---------------------------------------------------------------------------
# Lazy kernel materialisation
# ---------------------------------------------------------------------------

class KernelCache:
    """Content-keyed LRU for materialised kernels with a byte budget.

    Keys are pure-value tuples (kind, n, descriptors...), so identical
    gates anywhere — across ops, programs, engines — share one array.
    Dtype-dependent kernels carry their :func:`~repro.sim.backend.
    dtype_tag` in the key, so a float32 kernel can never collide with
    a float64 one; ``group`` attributes each entry to a backend tier
    for the per-backend hit/miss/bytes breakdown ("shared" covers
    dtype-independent kernels such as index permutations).
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is None:
            budget_bytes = env_mb_bytes("REPRO_KERNEL_CACHE_MB", 256)
        self.budget_bytes = budget_bytes
        self._entries: Dict[tuple, object] = {}
        self._nbytes: Dict[tuple, int] = {}
        self._group_of: Dict[tuple, str] = {}
        self._lock = threading.RLock()
        self.total_bytes = 0

    def get(self, key: tuple, builder, group: str = "shared") -> object:
        # The whole read-modify-write (recency refresh, eviction loop,
        # byte accounting) must be atomic: thread-tier executor workers
        # share this instance.  A duplicate builder() run under
        # contention would be wasteful but correct; a torn eviction
        # would corrupt total_bytes forever.
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                COUNTERS.record("kernel", {"tier": group}, hits=1)
                # Refresh recency (dicts preserve insertion order).
                del self._entries[key]
                self._entries[key] = value
                return value
            value = builder()
            nbytes = sum(
                getattr(a, "nbytes", 0)
                for a in (value if isinstance(value, tuple) else (value,))
            )
            evicted = 0
            while (
                self.total_bytes + nbytes > self.budget_bytes
                and self._entries
            ):
                old_key = next(iter(self._entries))
                self.total_bytes -= self._nbytes.pop(old_key)
                del self._entries[old_key]
                del self._group_of[old_key]
                evicted += 1
            self._entries[key] = value
            self._nbytes[key] = nbytes
            self._group_of[key] = group
            self.total_bytes += nbytes
            COUNTERS.record("kernel", {"tier": group}, misses=1)
            if evicted:
                COUNTERS.record("kernel", evictions=evicted)
            return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes.clear()
            self._group_of.clear()
            self.total_bytes = 0


_KERNELS = KernelCache()
COUNTERS.declare("kernel", "evictions", "folds", "prefix_reuse")


def kernel_cache_stats() -> Dict[str, Any]:
    """Hit/miss/byte counters of the process-wide kernel cache.

    ``folds`` counts the compose steps monomial pieces actually ran and
    ``prefix_reuse`` the pieces built by extending a cached prefix
    (:meth:`_MonoSegment.partial`).

    ``by_backend`` breaks hits/misses/entries/bytes down per backend
    tier (``numpy64``/``numpy32``/``shared``) so mixed-tier traffic is
    observable from ``/stats``, ``/metrics`` and ``cache-stats``.
    """
    with _KERNELS._lock:
        counts = COUNTERS.snapshot("kernel")
        hits, misses = counts.get("hits", {}), counts.get("misses", {})
        tiers = set(hits) | set(misses) | set(_KERNELS._group_of.values())
        by_backend = {
            tier: {
                "hits": hits.get(tier, 0),
                "misses": misses.get(tier, 0),
                "entries": 0,
                "bytes": 0,
            }
            for tier in sorted(tiers)
        }
        for key, tier in _KERNELS._group_of.items():
            by_backend[tier]["entries"] += 1
            by_backend[tier]["bytes"] += _KERNELS._nbytes[key]
        return {
            "hits": sum(hits.values()),
            "misses": sum(misses.values()),
            "evictions": counts["evictions"],
            "folds": counts["folds"],
            "prefix_reuse": counts["prefix_reuse"],
            "total_bytes": _KERNELS.total_bytes,
            "entries": len(_KERNELS._entries),
            "by_backend": by_backend,
        }


for _tier in ("numpy64", "numpy32", "shared"):
    for _field in ("hits", "misses", "bytes"):
        COUNTERS.register_gauge(
            f"kernel_cache_{_tier}_{_field}",
            lambda t=_tier, f=_field: float(
                kernel_cache_stats()["by_backend"].get(t, {}).get(f, 0)
            ),
        )


def _build_diag(
    n: int, terms: Tuple[Term, ...], dtype=None
) -> np.ndarray:
    """The full ``2**n`` phase vector of a run of diagonal gates.

    Each term multiplies in exactly the factor the interpreter kernel
    would have applied (``np.where`` for rz, a masked scalar for the
    phase-on-ones family), so a single-term vector reproduces the
    interpreter bit-for-bit.  The vector is always *built* at the
    canonical complex128 and cast once for lower tiers — the float32
    kernel is the rounded exact kernel, not a float32 accumulation.
    """
    diag = np.ones(1 << n, dtype=canonical_complex)
    for name, qubits, params in terms:
        if name == "rz":
            lam = params[0]
            lo, hi = cmath.exp(-0.5j * lam), cmath.exp(0.5j * lam)
            diag *= np.where(_GLOBAL_BITS.mask_bit(n, qubits[0]), hi, lo)
            continue
        gate = _term_instruction(name, qubits, params).gate
        phase = phase_on_ones(gate)
        if phase is not None:
            mask = _GLOBAL_BITS.mask_bit(n, qubits[0]).copy()
            for q in qubits[1:]:
                mask &= _GLOBAL_BITS.mask_bit(n, q)
            diag[mask] *= phase
            continue
        # Generic diagonal gate (crz, rzz, ...): expand its diagonal.
        sub = np.diag(gate.matrix)
        idx = np.zeros(1 << n, dtype=np.intp)
        for pos, t in enumerate(qubits):
            idx |= ((np.arange(1 << n, dtype=np.intp) >> t) & 1) << pos
        diag *= sub[idx]
    if dtype is not None and np.dtype(dtype) != np.dtype(canonical_complex):
        diag = diag.astype(dtype)
    diag.setflags(write=False)
    return diag


def _build_ccx_perm(n: int, c1: int, c2: int, t: int):
    mask = _GLOBAL_BITS.mask_bit(n, c1) & _GLOBAL_BITS.mask_bit(n, c2)
    src = np.flatnonzero(mask & ~_GLOBAL_BITS.mask_bit(n, t))
    dst = src | (1 << t)
    src.setflags(write=False)
    dst.setflags(write=False)
    return src, dst


# ---------------------------------------------------------------------------
# Monomial algebra
# ---------------------------------------------------------------------------
# A monomial operator has exactly one nonzero entry per row:
# ``new[j] = ph[j] * old[src[j]]``.  Diagonal gates (src = identity) and
# the permutation family x/cx/swap/ccx (ph = 1) are both monomial, and
# monomials are closed under composition — so any noise-free run of
# them collapses to a single gather-and-multiply, however long.  The
# pair ``(src, ph)`` uses ``None`` for an identity component.

def _build_perm_indices(
    n: int, name: str, qubits: Tuple[int, ...]
) -> np.ndarray:
    """Index map of one permutation gate: ``new[j] = old[idx[j]]``.

    Every supported permutation is an involution, so the map equals its
    inverse and can be used directly for both directions.
    """
    idx = np.arange(1 << n, dtype=np.int64)
    if name == "x":
        idx ^= 1 << qubits[0]
    elif name == "cx":
        c, t = qubits
        idx ^= ((idx >> c) & 1) << t
    elif name == "swap":
        a, b = qubits
        d = ((idx >> a) ^ (idx >> b)) & 1
        idx ^= (d << a) | (d << b)
    elif name == "ccx":
        c1, c2, t = qubits
        idx ^= ((idx >> c1) & (idx >> c2) & 1) << t
    else:
        raise ValueError(f"not a permutation gate: {name!r}")
    out = idx.astype(np.int32) if n < 31 else idx
    out.setflags(write=False)
    return out


def _perm_indices(n: int, name: str, qubits: Tuple[int, ...]) -> np.ndarray:
    # Index maps are dtype-independent: one entry serves every tier.
    return _KERNELS.get(
        ("perm", n, name, qubits),
        lambda: _build_perm_indices(n, name, qubits),
    )


def _phase_factor(n: int, term: Term, dtype=None) -> Optional[np.ndarray]:
    """A fresh ``2**n`` factor of one ``rz`` or phase-on-ones gate.

    ``np.where(mask, hi, lo)`` with both scalars cast to the tier dtype
    first: the same values :func:`_build_diag` gives a single term
    (its ones-vector start multiplies by exactly one, and it casts
    down once), without the ones-vector.  ``None`` for any other
    diagonal gate.
    """
    name, qubits, params = term
    scalar = np.dtype(canonical_complex if dtype is None else dtype).type
    if name == "rz":
        lam = params[0]
        hi, lo = cmath.exp(0.5j * lam), cmath.exp(-0.5j * lam)
        mask = _GLOBAL_BITS.mask_bit(n, qubits[0])
    else:
        hi = phase_on_ones(_term_instruction(*term).gate)
        if hi is None:
            return None
        lo = 1
        mask = _GLOBAL_BITS.mask_bit(n, qubits[0])
        for q in qubits[1:]:
            mask = mask & _GLOBAL_BITS.mask_bit(n, q)
    return np.where(mask, scalar(hi), scalar(lo))


def _mono_compose(cur, op: "ProgramOp", n: int, dtype=None):
    """Compose ``op`` (applied after) onto the monomial ``cur``.

    Cached kernel arrays are never mutated: every step produces fresh
    arrays (or aliases a read-only cached one for the first factor).
    A single-term ``rz`` or phase-on-ones op folds its fresh factor
    ``w`` into the running phase in place, as ``np.multiply(ph, w,
    out=w)``.  The operand order is part of the bit contract: complex
    multiplication with fused multiply-add rounds ``w * ph`` and
    ``ph * w`` differently, and ``ph * np.where(...)`` lets NumPy
    reuse the temporary and compute the former.
    """
    src, ph = cur
    if isinstance(op, DiagonalOp):
        w = _phase_factor(n, op.terms[0], dtype) if len(op.terms) == 1 else None
        if w is not None:
            return src, (w if ph is None else np.multiply(ph, w, out=w))
        d = op.diag(n, dtype)
        return src, (d if ph is None else ph * d)
    t = _perm_indices(n, op.name, op.qubits)
    return (
        t if src is None else np.take(src, t),
        ph if ph is None else np.take(ph, t),
    )


def _compose_elems(cur, elems, n: int, dtype=None):
    for op in elems:
        cur = _mono_compose(cur, op, n, dtype)
    return cur


def _mono_apply(
    state: np.ndarray, mono, scratch: Optional[np.ndarray] = None
) -> None:
    """Apply a monomial ``(src, ph)`` to a ``(B, 2**n)`` batch in place.

    The gather runs row by row through :func:`np.take` — an order of
    magnitude faster than ``state[:, src]`` column fancy-indexing on a
    C-order batch — into ``scratch`` (allocated when not supplied, so
    hot callers should pass a reusable buffer).
    """
    src, ph = mono
    if src is None:
        if ph is not None:
            state *= ph
        return
    if scratch is None or scratch.shape != state.shape:
        scratch = np.empty_like(state)
    for b in range(state.shape[0]):
        np.take(state[b], src, out=scratch[b])
    if ph is None:
        state[...] = scratch
    else:
        np.multiply(scratch, ph, out=state)


def _mono_apply_rows(
    buf: np.ndarray,
    rows: Iterable[int],
    mono,
    scratch: Optional[np.ndarray] = None,
) -> None:
    """Apply a monomial to selected rows of ``buf`` in place.

    ``rows`` need not be contiguous; each row is gathered independently
    (``buf[r]`` is a view), so this is the cheap path when only a few
    trajectories of a batch need advancing.
    """
    src, ph = mono
    if src is None:
        if ph is not None:
            for r in rows:
                buf[r] *= ph
        return
    if scratch is None:
        scratch = np.empty(buf.shape[1], dtype=buf.dtype)
    for r in rows:
        row = buf[r]
        np.take(row, src, out=scratch)
        if ph is None:
            row[...] = scratch
        else:
            np.multiply(scratch, ph, out=row)


# ---------------------------------------------------------------------------
# Program ops
# ---------------------------------------------------------------------------

class ProgramOp:
    """Base class: a single lowered operation of a compiled program."""

    kind = "unitary"
    __slots__ = ()

    def apply(self, state: np.ndarray, n: int) -> None:
        """In-place application to a ``(B, 2**n)`` batch."""
        raise NotImplementedError

    def term_list(self) -> Tuple[Term, ...]:
        """The gate descriptors this op lowers (for decompilation)."""
        return ()


class DiagonalOp(ProgramOp):
    """A fused run of diagonal gates: one phase-vector multiply.

    Single-term ops (a lone ``rz``/``cp``/... between two noise sites —
    the common case at paper noise, where every gate carries a channel)
    never materialise or cache a ``2**n`` vector of their own: applied
    to a state they replay the interpreter kernel, and composed into a
    monomial an ``rz`` or phase-on-ones term folds its ``np.where``
    factor straight into the running phase (:func:`_mono_compose`).
    Only genuinely fused runs pay for (and amortise) a cached phase
    vector; a single generic diagonal (``crz``) builds an uncached
    one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term]) -> None:
        self.terms = tuple(terms)

    def diag(self, n: int, dtype=None) -> np.ndarray:
        tag = dtype_tag(canonical_complex if dtype is None else dtype)
        if len(self.terms) == 1:
            return _build_diag(n, self.terms, dtype)
        return _KERNELS.get(
            ("diag", n, self.terms, tag),
            lambda: _build_diag(n, self.terms, dtype),
            group=kernel_group(tag),
        )

    def apply(self, state: np.ndarray, n: int) -> None:
        if len(self.terms) == 1:
            name, qubits, params = self.terms[0]
            if name == "rz":
                lam = params[0]
                lo, hi = cmath.exp(-0.5j * lam), cmath.exp(0.5j * lam)
                state *= np.where(
                    _GLOBAL_BITS.mask_bit(n, qubits[0]), hi, lo
                )
                return
            phase = phase_on_ones(_term_instruction(*self.terms[0]).gate)
            if phase is not None:
                _apply_phase_on_mask(state, phase, qubits, n)
                return
        state *= self.diag(n, state.dtype)

    def term_list(self) -> Tuple[Term, ...]:
        return self.terms

    def __repr__(self) -> str:
        return f"DiagonalOp({len(self.terms)} terms)"


class PermutationOp(ProgramOp):
    """``x``/``cx``/``swap``/``ccx`` as pure index permutations."""

    __slots__ = ("name", "qubits")

    def __init__(self, name: str, qubits: Tuple[int, ...]) -> None:
        self.name = name
        self.qubits = qubits

    def apply(self, state: np.ndarray, n: int) -> None:
        q = self.qubits
        if self.name == "x":
            from .ops import _apply_x
            _apply_x(state, q[0], n)
        elif self.name == "cx":
            from .ops import _apply_cx
            _apply_cx(state, q[0], q[1], n)
        elif self.name == "swap":
            from .ops import _apply_swap
            _apply_swap(state, q[0], q[1], n)
        else:  # ccx with a cached index pair
            src, dst = _KERNELS.get(
                ("ccx", n) + q, lambda: _build_ccx_perm(n, *q)
            )
            tmp = state[:, src].copy()
            state[:, src] = state[:, dst]
            state[:, dst] = tmp

    def term_list(self) -> Tuple[Term, ...]:
        return ((self.name, self.qubits, ()),)

    def __repr__(self) -> str:
        return f"PermutationOp({self.name} {list(self.qubits)})"


class DenseOp(ProgramOp):
    """A dense 1q gate applied as a broadcast (2,2) matmul.

    Beats the four-add split kernel once the inner stride ``2**q`` is
    large enough for BLAS to win (measured crossover around ``q = 4``);
    lowering only emits this op above the crossover.
    """

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        self.term = term

    def apply(self, state: np.ndarray, n: int) -> None:
        name, qubits, params = self.term
        U = _term_instruction(name, qubits, params).gate.matrix
        q = qubits[0]
        B = state.shape[0]
        s = state.reshape(B << (n - 1 - q), 2, 1 << q)
        s[...] = np.matmul(U, s)

    def term_list(self) -> Tuple[Term, ...]:
        return (self.term,)

    def __repr__(self) -> str:
        return f"DenseOp({self.term[0]} q{list(self.term[1])})"


class GateOp(ProgramOp):
    """Fallback: replay the interpreter kernel for one gate exactly."""

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        self.term = term

    def apply(self, state: np.ndarray, n: int) -> None:
        instr = _term_instruction(*self.term)
        out = apply_instruction(state, instr, n)
        if out is not state:
            # The general k>=3 dense path returns a fresh array; copy
            # back so slice-aliased callers keep in-place semantics.
            state[...] = out

    def term_list(self) -> Tuple[Term, ...]:
        return (self.term,)

    def __repr__(self) -> str:
        return f"GateOp({self.term[0]} q{list(self.term[1])})"


class RawGateOp(ProgramOp):
    """A gate outside the builder registry: carries its Instruction.

    Rare (custom-matrix gates only); not shareable across processes the
    way descriptor ops are, but still executes through the interpreter
    kernel.
    """

    __slots__ = ("instr",)

    def __init__(self, instr: Instruction) -> None:
        self.instr = instr

    def apply(self, state: np.ndarray, n: int) -> None:
        out = apply_instruction(state, self.instr, n)
        if out is not state:
            state[...] = out

    def term_list(self) -> Tuple[Term, ...]:
        return ()

    def __repr__(self) -> str:
        return f"RawGateOp({self.instr!r})"


class NoiseOp(ProgramOp):
    """An error-channel site with the channel resolved at bind time.

    For Pauli channels the conditioned table used by clean-shot
    splitting is precomputed: ``labels``/``cond`` are the non-identity
    strings and their renormalised probabilities, ``e`` the total
    non-identity weight.
    """

    kind = "noise"
    __slots__ = ("qubits", "error", "labels", "cond", "e")

    def __init__(self, qubits: Tuple[int, ...], error: QuantumError) -> None:
        self.qubits = qubits
        self.error = error
        if isinstance(error, PauliError):
            nontrivial = [
                (p, pr)
                for p, pr in zip(error.paulis, error.probs)
                if set(p) != {"I"} and pr > 0
            ]
            self.e = float(sum(pr for _, pr in nontrivial))
            self.labels = [p for p, _ in nontrivial]
            self.cond = (
                np.array([pr for _, pr in nontrivial]) / self.e
                if self.e > 0
                else np.empty(0)
            )
        else:
            self.labels, self.cond, self.e = None, None, None

    @property
    def is_pauli(self) -> bool:
        return isinstance(self.error, PauliError)

    def __repr__(self) -> str:
        return f"NoiseOp({self.error!r} on q{list(self.qubits)})"


class ResetSiteOp(ProgramOp):
    """A mid-circuit ``reset`` instruction (engines own the semantics)."""

    kind = "reset"
    __slots__ = ("qubit",)

    def __init__(self, qubit: int) -> None:
        self.qubit = qubit

    def __repr__(self) -> str:
        return f"ResetSiteOp(q{self.qubit})"


class MeasureSiteOp(ProgramOp):
    """A ``measure`` instruction; terminal sampling is engine-owned."""

    kind = "measure"
    __slots__ = ("qubits", "clbits")

    def __init__(self, qubits: Tuple[int, ...], clbits: Tuple[int, ...]) -> None:
        self.qubits = qubits
        self.clbits = clbits

    def __repr__(self) -> str:
        return f"MeasureSiteOp(q{list(self.qubits)})"


_MONOMIAL_OP_TYPES = (DiagonalOp, PermutationOp)


class _MonoSegment:
    """A maximal run of monomial ops with its interior noise sites.

    ``elems`` are the run's Diagonal/Permutation ops in order; ``sites``
    are ``(elem_pos, noise_op, site_ordinal)`` markers, where
    ``elem_pos`` is the number of elems preceding the site and
    ``site_ordinal`` indexes :meth:`CompiledProgram.pauli_sites`.  When
    no site fires, the whole run executes as one cached
    gather-and-multiply (:meth:`full`); a firing site only forces the
    walker to materialise the partial product up to that point.
    """

    __slots__ = ("elems", "sites", "key", "_ends")

    def __init__(self, elems, sites, n: int) -> None:
        self.elems = elems
        self.sites = sites
        self.key = ("mono", n) + tuple(
            e.terms if isinstance(e, DiagonalOp) else (e.name, e.qubits)
            for e in elems
        )
        #: ``(start, dtype tag)`` -> sorted ends of the pieces this
        #: segment has put in the kernel cache.  A hint only (the cache
        #: may have evicted them since); read and written only under
        #: the cache lock, because thread-tier workers share segments.
        self._ends: Dict[Tuple[int, str], List[int]] = {}

    def full(self, n: int, dtype=None):
        """The run's composed monomial ``(src, ph)`` (kernel-cached).

        ``dtype`` selects the precision tier of the phase component;
        keys carry the dtype tag so tiers never share (or pollute)
        entries.  Exactly ``partial(n, 0, len(elems), dtype)``.
        """
        return self.partial(n, 0, len(self.elems), dtype)

    def partial(self, n: int, start: int, end: int, dtype=None):
        """The composed monomial of ``elems[start:end]`` (kernel-cached).

        The batched scheduler walks a firing row piecewise between its
        own fire positions; caching each piece by ``(key, start, end)``
        shares the composition across rows, rounds and fused tasks.
        ``partial(n, 0, len(elems))`` is exactly :meth:`full` (same
        cache entry), so event-free spans pay nothing extra.

        A missing piece extends the longest ``[start, k)`` piece of the
        same tier still in the cache, folding only ``elems[k:end]`` onto
        it.  Every piece is thus the left fold of its ops from the
        identity, in circuit order, whichever pieces were asked for
        before — so its bits do not depend on request order or on what
        the cache evicted.  Pieces are never built from a cached
        *suffix*: that would compose in a different order and round
        differently.
        """
        tag = dtype_tag(canonical_complex if dtype is None else dtype)
        return _KERNELS.get(
            self._piece_key(start, end, tag),
            lambda: self._extend(n, start, end, dtype, tag),
            group=kernel_group(tag),
        )

    def _piece_key(self, start: int, end: int, tag: str) -> tuple:
        if start == 0 and end == len(self.elems):
            return self.key + (tag,)
        return (self.key, start, end, tag)

    def _extend(self, n: int, start: int, end: int, dtype, tag: str):
        """Build ``elems[start:end]`` from its longest cached prefix."""
        with _KERNELS._lock:
            ends = self._ends.setdefault((start, tag), [])
            cur, k = (None, None), start
            # Longest prefix first; ends found evicted leave the index.
            # The prefix is read without a recency refresh: refreshing
            # it evicted pieces that are asked for more often, and
            # measured more folds and misses on a 16-qubit adder cell.
            for i in range(bisect.bisect_left(ends, end) - 1, -1, -1):
                prefix = _KERNELS._entries.get(
                    self._piece_key(start, ends[i], tag)
                )
                if prefix is not None:
                    cur, k = prefix, ends[i]
                    break
                del ends[i]
            cur = _compose_elems(cur, self.elems[k:end], n, dtype)
            i = bisect.bisect_left(ends, end)
            if ends[i:i + 1] != [end]:  # a rebuild after eviction
                ends.insert(i, end)
            COUNTERS.record(
                "kernel", folds=end - k, prefix_reuse=int(k > start)
            )
            return cur

    def __repr__(self) -> str:
        return (
            f"_MonoSegment({len(self.elems)} elems, "
            f"{len(self.sites)} sites)"
        )


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------

class CompiledProgram:
    """A lowered, noise-bound, engine-agnostic execution program.

    Attributes
    ----------
    ops:
        The flat op tuple, in circuit order.
    readout:
        ``((qubit, p01, p10), ...)`` resolved readout-error table.
    pauli_only:
        True when every noise site is a Pauli channel and the program
        has no mid-circuit reset — the precondition for the trajectory
        engine's clean-shot split.
    fingerprint:
        Short content hash of (circuit, noise, optimize) — stable across
        processes, suitable for checkpoint payloads.
    """

    #: slots that round-trip through pickle; ``_stream`` is a derived
    #: per-process execution plan and is rebuilt lazily after unpickling.
    _PICKLE_SLOTS = (
        "num_qubits",
        "ops",
        "readout",
        "pauli_only",
        "fingerprint",
        "circuit_fingerprint",
        "noise_fingerprint",
        "optimized",
    )

    __slots__ = _PICKLE_SLOTS + ("_stream", "_fusion_key")

    def __init__(
        self,
        num_qubits: int,
        ops: Tuple[ProgramOp, ...],
        readout: Tuple[Tuple[int, float, float], ...],
        fingerprint: str,
        circuit_fp: str,
        noise_fp: str,
        optimized: bool,
    ) -> None:
        self.num_qubits = num_qubits
        self.ops = ops
        self.readout = readout
        self.fingerprint = fingerprint
        self.circuit_fingerprint = circuit_fp
        self.noise_fingerprint = noise_fp
        self.optimized = optimized
        self.pauli_only = all(
            op.is_pauli for op in ops if op.kind == "noise"
        ) and not any(op.kind == "reset" for op in ops)
        self._stream = None
        self._fusion_key = None

    # -- pickling (slots class) -----------------------------------------
    def __getstate__(self):
        return tuple(getattr(self, s) for s in self._PICKLE_SLOTS)

    def __setstate__(self, state):
        for s, v in zip(self._PICKLE_SLOTS, state):
            object.__setattr__(self, s, v)
        self._stream = None
        self._fusion_key = None

    # -- introspection ---------------------------------------------------
    @property
    def num_noise_sites(self) -> int:
        return sum(1 for op in self.ops if op.kind == "noise")

    @property
    def fusion_key(self) -> tuple:
        """The batching compatibility key of this program.

        Two programs with equal fusion keys lower from the same circuit
        skeleton and share an identical :meth:`exec_stream` layout —
        same segment boundaries, same Pauli-site ordinals — differing
        only in channel weights.  The batched trajectory scheduler may
        therefore pack their rows into one state buffer: every shared
        unitary/monomial kernel applies to all rows at once, while
        per-row Pauli fires are drawn from each task's own channel
        tables.  Rate-only sweeps (the paper's figures) satisfy this by
        construction; a 1q-axis and a 2q-axis program of the same
        circuit do *not* (different sites carry weight).
        """
        key = self._fusion_key
        if key is None:
            layout = tuple(
                (op.qubits, op.is_pauli, bool(op.e))
                for op in self.ops
                if op.kind == "noise"
            )
            key = (
                "fuse",
                self.circuit_fingerprint,
                self.optimized,
                self.num_qubits,
                layout,
                self.pauli_only,
            )
            self._fusion_key = key
        return key

    def pauli_sites(self) -> List[Tuple[int, NoiseOp]]:
        """(op index, NoiseOp) for every Pauli noise site with weight."""
        return [
            (i, op)
            for i, op in enumerate(self.ops)
            if op.kind == "noise" and op.e
        ]

    def exec_stream(self) -> List[tuple]:
        """The segmented execution plan: ``("seg", _MonoSegment)`` runs
        interleaved with ``("op", op)`` boundary ops.

        Monomial runs (diagonal + permutation gates) are grouped with
        their interior noise sites so a trajectory walker can execute a
        fire-free run as one composed gather; dense gates, resets and
        any other non-monomial op are boundaries.  Zero-weight noise
        sites and terminal measure markers are dropped — neither can
        affect the state walk.  Built lazily, cached per process.
        """
        stream = self._stream
        if stream is not None:
            return stream
        items: List[tuple] = []
        elems: List[ProgramOp] = []
        sites: List[tuple] = []
        ordinal = 0

        def flush() -> None:
            nonlocal elems, sites
            if elems or sites:
                items.append(
                    ("seg",
                     _MonoSegment(tuple(elems), tuple(sites),
                                  self.num_qubits))
                )
            elems, sites = [], []

        for op in self.ops:
            if isinstance(op, _MONOMIAL_OP_TYPES):
                elems.append(op)
            elif op.kind == "noise":
                if op.is_pauli:
                    if op.e:
                        sites.append((len(elems), op, ordinal))
                        ordinal += 1
                else:
                    # Non-Pauli channels can't be a segment site (their
                    # action isn't a sparse per-row fire) — keep them in
                    # the stream as explicit boundary ops.
                    flush()
                    items.append(("op", op))
            elif op.kind == "measure":
                continue
            else:
                flush()
                items.append(("op", op))
        flush()
        self._stream = items
        return items

    def decompile(self) -> QuantumCircuit:
        """Rebuild a unitary-only circuit from the lowered gate terms.

        Fused runs expand back into their member gates, so the result is
        directly comparable to the source circuit with
        :func:`repro.lint.check_equivalence` (noise sites, resets and
        measurements are dropped).
        """
        out = QuantumCircuit(self.num_qubits, name="decompiled")
        for op in self.ops:
            if isinstance(op, RawGateOp):
                out._instructions.append(op.instr)
                continue
            for term in op.term_list():
                out._instructions.append(_term_instruction(*term))
        return out

    def __repr__(self) -> str:
        return (
            f"<CompiledProgram {self.num_qubits}q, {len(self.ops)} ops, "
            f"{self.num_noise_sites} noise sites, fp={self.fingerprint}>"
        )


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

@dataclass
class _NoiseSite:
    """A rate-independent noise placeholder in a skeleton."""

    slot: tuple
    qubits: Tuple[int, ...]


class _Skeleton:
    """Rate-independent lowering of one circuit: ops + noise slots."""

    __slots__ = ("num_qubits", "items", "circuit_fp", "optimized", "_bound")

    #: max bound programs retained per skeleton (per structure key the
    #: binds of a sweep's distinct rates; far below this in practice).
    BIND_CAP = 128

    def __init__(self, num_qubits, items, circuit_fp, optimized) -> None:
        self.num_qubits = num_qubits
        self.items = items  # tuple of ProgramOp | _NoiseSite
        self.circuit_fp = circuit_fp
        self.optimized = optimized
        self._bound: Dict[str, CompiledProgram] = {}


COUNTERS.declare("compile", "lowerings", "lower_hits", "binds", "bind_hits")
_LOWER_CACHE: "weakref.WeakKeyDictionary[QuantumCircuit, Dict[tuple, _Skeleton]]" = (
    weakref.WeakKeyDictionary()
)
_FP_CACHE: "weakref.WeakKeyDictionary[QuantumCircuit, str]" = (
    weakref.WeakKeyDictionary()
)
#: Guards the compile caches (_LOWER_CACHE/_FP_CACHE/skeleton binds).
#: Reentrant: compile_circuit -> _lower ->
#: circuit_fingerprint all touch cached state.  Holding it across the
#: lowering serialises compilation, which is deliberate — lowering is
#: rare (cache-keyed per structure) and a duplicate concurrent lowering
#: would waste far more than the lock costs.
_COMPILE_LOCK = threading.RLock()


def compile_cache_stats() -> CounterView:
    """A live view of the process-wide compile-cache counters."""
    return CounterView(COUNTERS, "compile")


def reset_compile_caches() -> None:
    """Drop every cached skeleton/bind/kernel and zero the counters."""
    with _COMPILE_LOCK:
        _LOWER_CACHE.clear()
        _FP_CACHE.clear()
        _KERNELS.clear()
        COUNTERS.reset("compile")


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Short content hash of a circuit's instruction list."""
    fp = _FP_CACHE.get(circuit)
    if fp is None:
        h = hashlib.sha256()
        h.update(str(circuit.num_qubits).encode())
        for instr in circuit:
            h.update(
                f"{instr.gate.name}|{instr.qubits}|{instr.gate.params}"
                f"|{instr.clbits}".encode()
            )
        fp = h.hexdigest()[:16]
        with _COMPILE_LOCK:
            try:
                _FP_CACHE[circuit] = fp
            except TypeError:  # unhashable/non-weakrefable circuit subclass
                pass
    return fp


_DENSE_MATMUL_MIN_QUBIT = 6  # inner stride 64: measured BLAS crossover


def _lower(
    circuit: QuantumCircuit, noise: NoiseModel, optimize: bool
) -> _Skeleton:
    """Lower a circuit against a noise *structure* (rates ignored)."""
    n = circuit.num_qubits
    items: List[object] = []
    pending: List[Term] = []

    def flush() -> None:
        if pending:
            items.append(DiagonalOp(tuple(pending)))
            pending.clear()

    for instr in circuit:
        gate = instr.gate
        name = gate.name
        if name == "barrier":
            continue
        if name == "measure":
            flush()
            items.append(MeasureSiteOp(instr.qubits, instr.clbits))
            continue
        if name == "reset":
            flush()
            items.append(ResetSiteOp(instr.qubits[0]))
            continue

        # Unitary lowering.  ``id`` emits no op (identity) but still
        # carries noise below — the paper's 1q error axis includes it.
        if name != "id":
            if name not in G.GATE_BUILDERS:
                flush()
                items.append(RawGateOp(instr))
            elif gate.is_unitary and is_diagonal_gate(gate):
                pending.append(_term(instr))
                if not optimize:
                    flush()
            elif name in ("x", "cx", "swap", "ccx"):
                flush()
                items.append(PermutationOp(name, instr.qubits))
            elif (
                optimize
                and gate.num_qubits == 1
                and gate.is_unitary
                and instr.qubits[0] >= _DENSE_MATMUL_MIN_QUBIT
            ):
                flush()
                items.append(DenseOp(_term(instr)))
            else:
                flush()
                items.append(GateOp(_term(instr)))

        # Noise sites: expand 1q channels onto each qubit of wider
        # gates here (same order as the interpreting engines) so the
        # bound program needs no arity logic in the hot loop.
        sites = noise.errors_for(name, instr.qubits)
        if sites:
            flush()
            for slot, err in sites:
                if err.num_qubits == 1 and len(instr.qubits) > 1:
                    for q in instr.qubits:
                        items.append(_NoiseSite(slot, (q,)))
                elif err.num_qubits == len(instr.qubits):
                    items.append(_NoiseSite(slot, instr.qubits))
                else:
                    raise ValueError(
                        f"error arity {err.num_qubits} does not match "
                        f"gate {name!r} on {len(instr.qubits)} qubits"
                    )
    flush()
    return _Skeleton(n, tuple(items), circuit_fingerprint(circuit), optimize)


def _bind(skeleton: _Skeleton, noise: NoiseModel) -> CompiledProgram:
    """Resolve a skeleton's noise slots against a concrete model."""
    ops: List[ProgramOp] = []
    for item in skeleton.items:
        if isinstance(item, _NoiseSite):
            ops.append(NoiseOp(item.qubits, noise.error_by_slot(item.slot)))
        else:
            ops.append(item)
    readout = []
    for q in range(skeleton.num_qubits):
        ro = noise.readout_error(q)
        if ro is not None:
            readout.append((q, ro.p01, ro.p10))
    noise_fp = noise.fingerprint()
    fp = hashlib.sha256(
        f"{skeleton.circuit_fp}|{noise_fp}|{skeleton.optimized}".encode()
    ).hexdigest()[:16]
    return CompiledProgram(
        skeleton.num_qubits,
        tuple(ops),
        tuple(readout),
        fp,
        skeleton.circuit_fp,
        noise_fp,
        skeleton.optimized,
    )


def compile_circuit(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    optimize: bool = True,
) -> CompiledProgram:
    """Lower ``circuit`` + ``noise_model`` into a :class:`CompiledProgram`.

    ``optimize=False`` disables diagonal-run fusion and the dense-matmul
    substitution, producing a program whose execution replays the
    interpreter kernels bit-for-bit (used by the parity tests).

    Caching: the expensive lowering is shared by every model with the
    same :meth:`~repro.noise.model.NoiseModel.structure_key`; the cheap
    bind is shared by identical fingerprints.  A rate-only sweep over
    one circuit therefore performs exactly one lowering.
    """
    noise = noise_model or NoiseModel.ideal()
    with _COMPILE_LOCK:
        per_circuit = _LOWER_CACHE.get(circuit)
        if per_circuit is None:
            per_circuit = {}
            try:
                _LOWER_CACHE[circuit] = per_circuit
            except TypeError:
                pass
        key = (noise.structure_key(), bool(optimize))
        skeleton = per_circuit.get(key)
        lower = "lower_hits" if skeleton is not None else "lowerings"
        if skeleton is None:
            skeleton = _lower(circuit, noise, bool(optimize))
            per_circuit[key] = skeleton

        noise_fp = noise.fingerprint()
        program = skeleton._bound.get(noise_fp)
        bind = "bind_hits" if program is not None else "binds"
        if program is None:
            program = _bind(skeleton, noise)
            if len(skeleton._bound) >= _Skeleton.BIND_CAP:
                skeleton._bound.pop(next(iter(skeleton._bound)))
            skeleton._bound[noise_fp] = program
        # Both outcomes in one update, so every snapshot satisfies
        # lowerings + lower_hits == binds + bind_hits.
        COUNTERS.record("compile", **{lower: 1, bind: 1})
        return program


def as_program(
    target: Union[QuantumCircuit, CompiledProgram],
    noise_model: Optional[NoiseModel] = None,
    optimize: bool = True,
) -> CompiledProgram:
    """Internal shim: accept either a circuit or a precompiled program."""
    if isinstance(target, CompiledProgram):
        return target
    return compile_circuit(target, noise_model, optimize=optimize)
