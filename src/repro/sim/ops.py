"""Low-level vectorized state-update kernels.

All engines share these kernels.  A batch of pure states is stored as a
C-contiguous ``(B, 2**n)`` complex array: row ``b`` is trajectory ``b``,
and flat index ``i`` encodes qubit ``q`` as bit ``q`` of ``i``
(little-endian, matching the gate-matrix convention).

Following the HPC guides, nothing here loops over amplitudes in Python:
every kernel is a reshape + slice/einsum over the whole batch, so the
per-gate cost is one or two BLAS/ufunc passes regardless of batch size.
Diagonal gates (the bulk of QFT arithmetic: ``rz``, ``cp``, ``ccp``)
multiply a masked slice in place; ``x``/``cx``/``ccx``/``swap`` are pure
index permutations; only genuinely dense gates (``h``, ``sx``) pay for a
matrix contraction.

The shot-sampling and readout-flip helpers at the end are shared by the
trajectory engine and the batched scheduler, so both consume a
generator in the same order.
"""

from __future__ import annotations

import cmath
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.gates import phase_on_ones

__all__ = [
    "apply_gate_matrix",
    "apply_diagonal",
    "apply_instruction",
    "apply_pauli_rows",
    "apply_pauli_string_rows",
    "apply_readout_flips",
    "multinomial_outcomes",
    "probabilities",
    "sample_rows",
    "BitCache",
]


class BitCache:
    """Per-(n, qubit) index helpers, built lazily and shared.

    ``mask_bit(n, q)`` — boolean array over 2**n flat indices, True where
    bit ``q`` is set.  ``perm_flip(n, q)`` — the permutation ``i ^ 2**q``.
    These back the Pauli fast paths in the trajectory engine.
    """

    def __init__(self) -> None:
        self._masks: Dict[Tuple[int, int], np.ndarray] = {}
        self._perms: Dict[Tuple[int, int], np.ndarray] = {}
        self._signs: Dict[Tuple[int, int], np.ndarray] = {}

    def mask_bit(self, n: int, q: int) -> np.ndarray:
        key = (n, q)
        m = self._masks.get(key)
        if m is None:
            idx = np.arange(1 << n, dtype=np.intp)
            m = ((idx >> q) & 1).astype(bool)
            m.setflags(write=False)
            # repro: allow[RACE001] reason=GIL-atomic memoised insert of an immutable value; duplicate builds are identical and a lock would serialise every gate application
            self._masks[key] = m
        return m

    def perm_flip(self, n: int, q: int) -> np.ndarray:
        key = (n, q)
        p = self._perms.get(key)
        if p is None:
            idx = np.arange(1 << n, dtype=np.intp)
            p = idx ^ (1 << q)
            p.setflags(write=False)
            # repro: allow[RACE001] reason=GIL-atomic memoised insert of an immutable value; see mask_bit
            self._perms[key] = p
        return p

    def sign_z(self, n: int, q: int) -> np.ndarray:
        """(+1/-1) vector: -1 where bit ``q`` is set (Z eigenvalues)."""
        key = (n, q)
        s = self._signs.get(key)
        if s is None:
            s = np.where(self.mask_bit(n, q), -1.0, 1.0)
            s.setflags(write=False)
            # repro: allow[RACE001] reason=GIL-atomic memoised insert of an immutable value; see mask_bit
            self._signs[key] = s
        return s


_GLOBAL_BITS = BitCache()


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------

def _split_1q(state: np.ndarray, q: int, n: int) -> np.ndarray:
    """View ``(B, 2**n)`` as ``(B * outer, 2, inner)`` exposing qubit ``q``.

    ``inner = 2**q`` (bits below q vary fastest), no copy.
    """
    B = state.shape[0]
    inner = 1 << q
    outer = 1 << (n - 1 - q)
    return state.reshape(B * outer, 2, inner)


def _split_2q(state: np.ndarray, hi: int, lo: int, n: int) -> np.ndarray:
    """View exposing two qubits ``hi > lo`` as separate axes.

    Returns shape ``(B*o1, 2, o2, 2, o3)`` with axis 1 = qubit ``hi``,
    axis 3 = qubit ``lo``; no copy.
    """
    B = state.shape[0]
    o3 = 1 << lo
    o2 = 1 << (hi - lo - 1)
    o1 = 1 << (n - 1 - hi)
    return state.reshape(B * o1, 2, o2, 2, o3)


# ---------------------------------------------------------------------------
# Dense application
# ---------------------------------------------------------------------------

def _apply_1q_dense(state: np.ndarray, U: np.ndarray, q: int, n: int) -> None:
    """In-place dense 1-qubit gate on every batch row.

    Split-view formulation with four scaled adds; measured faster than
    a gather-based variant at every qubit position (fancy indexing on
    2**n elements costs more than the strided slice arithmetic).
    """
    s = _split_1q(state, q, n)
    s0 = s[:, 0, :]
    s1 = s[:, 1, :]
    new0 = U[0, 0] * s0 + U[0, 1] * s1
    s[:, 1, :] = U[1, 0] * s0 + U[1, 1] * s1
    s[:, 0, :] = new0


def _apply_2q_dense(
    state: np.ndarray, U: np.ndarray, t0: int, t1: int, n: int
) -> None:
    """In-place dense 2-qubit gate; ``t0`` is the matrix LSB qubit."""
    hi, lo = (t1, t0) if t1 > t0 else (t0, t1)
    # U indices: (r1 r0), little-endian in (t0, t1).  Reorder so the
    # first tensor axis is the *hi* qubit.
    U4 = U.reshape(2, 2, 2, 2)  # [r_t1, r_t0, c_t1, c_t0]
    if t0 > t1:  # t0 is hi: want [r_hi, r_lo, c_hi, c_lo] = [r_t0, r_t1, ...]
        U4 = U4.transpose(1, 0, 3, 2)
    s = _split_2q(state, hi, lo, n)
    out = np.einsum("abcd,zcudv->zaubv", U4, s, optimize=True)
    s[...] = out


def apply_gate_matrix(
    state: np.ndarray, U: np.ndarray, targets: Sequence[int], n: int
) -> np.ndarray:
    """Apply a little-endian k-qubit unitary to ``(B, 2**n)`` ``state``.

    Returns the updated array (same object for the in-place fast paths,
    a new array for the general k>=3 path).
    """
    k = len(targets)
    if k == 1:
        _apply_1q_dense(state, U, targets[0], n)
        return state
    if k == 2:
        _apply_2q_dense(state, U, targets[0], targets[1], n)
        return state
    # General path: bring target axes last (t0 fastest), contract.
    B = state.shape[0]
    s = state.reshape((B,) + (2,) * n)
    # Qubit q lives on tensor axis 1 + (n-1-q).
    src = [1 + (n - 1 - t) for t in reversed(targets)]
    dst = list(range(n + 1 - k, n + 1))
    moved = np.moveaxis(s, src, dst)
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(-1, 1 << k)
    flat = flat @ U.T
    moved2 = flat.reshape(shape)
    out = np.moveaxis(moved2, dst, src)
    return np.ascontiguousarray(out).reshape(B, 1 << n)


# ---------------------------------------------------------------------------
# Diagonal / permutation fast paths
# ---------------------------------------------------------------------------

def apply_diagonal(
    state: np.ndarray, diag: np.ndarray, targets: Sequence[int], n: int
) -> None:
    """In-place k-qubit diagonal gate: ``state[:, i] *= diag[bits(i)]``."""
    idx = np.zeros(1 << n, dtype=np.intp)
    for pos, t in enumerate(targets):
        idx |= ((np.arange(1 << n, dtype=np.intp) >> t) & 1) << pos
    state *= diag[idx]


def _apply_phase_on_mask(
    state: np.ndarray, phase: complex, qubits: Sequence[int], n: int
) -> None:
    """Multiply ``phase`` into entries whose listed bits are all 1."""
    mask = _GLOBAL_BITS.mask_bit(n, qubits[0]).copy()
    for q in qubits[1:]:
        mask &= _GLOBAL_BITS.mask_bit(n, q)
    state[:, mask] *= phase


def _apply_x(state: np.ndarray, q: int, n: int) -> None:
    s = _split_1q(state, q, n)
    tmp = s[:, 0, :].copy()
    s[:, 0, :] = s[:, 1, :]
    s[:, 1, :] = tmp


def _apply_cx(state: np.ndarray, c: int, t: int, n: int) -> None:
    hi, lo = (c, t) if c > t else (t, c)
    s = _split_2q(state, hi, lo, n)
    if c > t:  # control on axis1, target on axis3
        a = s[:, 1, :, 0, :]
        b = s[:, 1, :, 1, :]
    else:  # control on axis3, target on axis1
        a = s[:, 0, :, 1, :]
        b = s[:, 1, :, 1, :]
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def _apply_swap(state: np.ndarray, q1: int, q2: int, n: int) -> None:
    hi, lo = (q1, q2) if q1 > q2 else (q2, q1)
    s = _split_2q(state, hi, lo, n)
    a = s[:, 0, :, 1, :]
    b = s[:, 1, :, 0, :]
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def _apply_ccx(state: np.ndarray, c1: int, c2: int, t: int, n: int) -> None:
    mask = _GLOBAL_BITS.mask_bit(n, c1) & _GLOBAL_BITS.mask_bit(n, c2)
    src = np.flatnonzero(mask & ~_GLOBAL_BITS.mask_bit(n, t))
    dst = src | (1 << t)
    tmp = state[:, src].copy()
    state[:, src] = state[:, dst]
    state[:, dst] = tmp


# ---------------------------------------------------------------------------
# Instruction dispatch
# ---------------------------------------------------------------------------

def apply_instruction(state: np.ndarray, instr, n: int) -> np.ndarray:
    """Apply one circuit instruction to the batch; returns the array.

    Measurement/barrier/reset are *not* handled here — engines own those.
    """
    gate = instr.gate
    name = gate.name
    q = instr.qubits
    if name == "barrier" or name == "id":
        return state
    if name == "rz":
        lam = gate.params[0]
        # One fused broadcast multiply: e^{-i lam/2} where bit 0, e^{+i
        # lam/2} where bit 1 (cheaper than a scalar pass plus a masked
        # pass on large batches).
        lo, hi = cmath.exp(-0.5j * lam), cmath.exp(0.5j * lam)
        phase = np.where(_GLOBAL_BITS.mask_bit(n, q[0]), hi, lo)
        state *= phase
        return state
    phase = phase_on_ones(gate)
    if phase is not None:
        _apply_phase_on_mask(state, phase, q, n)
        return state
    if name == "x":
        _apply_x(state, q[0], n)
        return state
    if name == "cx":
        _apply_cx(state, q[0], q[1], n)
        return state
    if name == "ccx":
        _apply_ccx(state, q[0], q[1], q[2], n)
        return state
    if name == "swap":
        _apply_swap(state, q[0], q[1], n)
        return state
    if gate.is_diagonal:
        apply_diagonal(state, np.diag(gate.matrix).copy(), q, n)
        return state
    return apply_gate_matrix(state, gate.matrix, q, n)


# ---------------------------------------------------------------------------
# Pauli errors on row subsets (trajectory engine)
# ---------------------------------------------------------------------------

def apply_pauli_rows(
    state: np.ndarray,
    pauli: str,
    qubit: int,
    rows: np.ndarray,
    n: int,
    bits: BitCache = _GLOBAL_BITS,
) -> None:
    """Apply a single-qubit Pauli to a subset of batch rows, in place.

    ``pauli`` in {"I","X","Y","Z"}; ``rows`` is an integer index array.
    X is an index permutation, Z a sign flip, Y their product with the
    ±i phase — none require a matrix product.
    """
    if pauli == "I" or rows.size == 0:
        return
    if pauli == "Z":
        state[rows] *= bits.sign_z(n, qubit)
        return
    perm = bits.perm_flip(n, qubit)
    if pauli == "X":
        state[rows] = state[np.ix_(rows, perm)]
        return
    if pauli == "Y":
        # (Y psi)[i] = i * (2 b_q(i) - 1) * psi[i ^ 2**q]
        yfac = 1j * (-bits.sign_z(n, qubit))
        state[rows] = state[np.ix_(rows, perm)] * yfac
        return
    raise ValueError(f"unknown Pauli {pauli!r}")


def apply_pauli_string_rows(
    state: np.ndarray,
    label: str,
    qubits: Sequence[int],
    rows: np.ndarray,
    n: int,
    bits: BitCache = _GLOBAL_BITS,
) -> None:
    """Apply a multi-qubit Pauli string to a subset of batch rows.

    ``label`` is little-endian over ``qubits`` (``label[k]`` acts on
    ``qubits[k]``), matching the channel tables of
    :class:`~repro.noise.channels.PauliError`.  Identity factors are
    skipped; each non-identity factor reuses :func:`apply_pauli_rows`,
    so the result is bit-identical to applying the factors one by one.
    """
    if len(label) != len(qubits):
        raise ValueError(
            f"Pauli string {label!r} does not match {len(qubits)} qubit(s)"
        )
    if rows.size == 0:
        return
    for pos, ch in enumerate(label):
        if ch != "I":
            apply_pauli_rows(state, ch, qubits[pos], rows, n, bits)


def probabilities(state: np.ndarray, clip_tol: float = 1e-6) -> np.ndarray:
    """Measurement probabilities ``|amp|**2`` per batch row, renormalised.

    The returned array is always float64: on the low-precision tier
    (complex64 states) the squared magnitudes are promoted before the
    row sums, then clipped into ``[0, 1 + clip_tol]`` so float32 drift
    can never hand the samplers negative or >1 mass.  On complex128
    input the float64 path is the historical one bit-for-bit (the clip
    is skipped — ``|amp|**2`` is nonnegative by construction and the
    renormalising divide already bounds the mass).
    """
    p = np.abs(state) ** 2
    if p.dtype != np.float64:
        p = p.astype(np.float64)
        np.clip(p, 0.0, 1.0 + clip_tol, out=p)
    norm = p.sum(axis=1, keepdims=True)
    # Guard against drift from long gate sequences.
    np.divide(p, norm, out=p, where=norm > 0)
    return p


def sample_rows(
    rng: np.random.Generator,
    probs: np.ndarray,
    shots: int,
    rows: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """One outcome integer per shot, spreading ``shots`` over trajectories.

    Trajectory ``b`` samples from ``probs[rows[b]]`` (``probs[b]`` when
    ``rows`` is None).  Every trajectory gets ``shots // B`` shots and
    ``shots % B`` of them, drawn without replacement, get one more; then
    one multinomial per trajectory, in trajectory order.  That draw
    order is part of the engines' seed contract.
    """
    B = probs.shape[0] if rows is None else len(rows)
    base, extra = divmod(shots, B)
    per_row = np.full(B, base, dtype=int)
    if extra:
        lucky = rng.choice(B, size=extra, replace=False)
        per_row[lucky] += 1
    outs = [
        multinomial_outcomes(
            rng, probs[b if rows is None else rows[b]], per_row[b]
        )
        for b in range(B)
        if per_row[b]
    ]
    return np.concatenate(outs) if outs else np.empty(0, dtype=int)


def multinomial_outcomes(
    rng: np.random.Generator, pv: np.ndarray, shots: int
) -> np.ndarray:
    """``shots`` outcome integers drawn from one probability row."""
    # float32 states need an exact-sum float64 pvals vector.
    pv = pv.astype(np.float64, copy=True)
    pv /= pv.sum()
    cnt = rng.multinomial(shots, pv)
    nz = np.flatnonzero(cnt)
    return np.repeat(nz, cnt[nz])


def apply_readout_flips(
    rng: np.random.Generator, outcomes: np.ndarray, readout: Sequence
) -> np.ndarray:
    """Flip measured bits per a ``((qubit, p01, p10), ...)`` readout table."""
    if not readout or outcomes.size == 0:
        return outcomes
    out = outcomes.copy()
    for q, p01, p10 in readout:
        bit = (out >> q) & 1
        flip_p = np.where(bit == 1, p10, p01)
        flips = rng.random(out.size) < flip_p
        out[flips] ^= 1 << q
    return out
