"""Tensor reconstruction: fragment results -> full-register distribution.

Two assembly paths, one per plan kind:

* **register plans** deliver weighted terms ``(classical_out, vec_F)``;
  assembly scatters each fragment vector into the output at the
  classical base index — no inter-fragment contraction is needed
  because the classical branch index is sharp.
* **wire plans** deliver per-fragment quasi-tensors
  ``q[(in_labels, out_labels)] -> vec_terminal``; the contraction walks
  fragments in time order keeping a dictionary of *open* cut-edge label
  assignments, multiplying matching tensors (Kronecker join of the
  outcome vectors) and **summing over every edge the moment it closes**
  (the vertical collapse — closed labels never inflate the working
  set).  The identity-channel coefficient ``1/2**cuts`` is applied once
  at the end.

Both paths spread fragment-local outcome axes onto global wire
positions in **blocks** bounded by the ``REPRO_CUT_MB`` memory budget
(default 256 MB); an output register too wide for the budget raises
:class:`~repro.runtime.errors.WidthLimitError` up front instead of
dying in an allocation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..runtime.counters import COUNTERS
from ..runtime.envutil import env_mb_bytes
from ..runtime.errors import WidthLimitError
from .search import CutPlan

__all__ = [
    "kron_join",
    "spread_positions",
    "signed_marginal",
    "fragment_quasi_tensor",
    "contract_wire_plan",
    "assemble_register_terms",
    "output_budget_bytes",
]

#: Env var bounding reconstruction working memory (MiB).
CUT_MB_ENV = "REPRO_CUT_MB"
_DEFAULT_MB = 256

_LABELS = "IXYZ"


def output_budget_bytes() -> int:
    """The configured reconstruction memory budget in bytes."""
    return env_mb_bytes(CUT_MB_ENV, _DEFAULT_MB)


def _check_output_width(num_qubits: int) -> None:
    need = (1 << num_qubits) * 8
    budget = output_budget_bytes()
    if need > budget:
        raise WidthLimitError(
            f"reconstructing a {num_qubits}-qubit distribution needs "
            f"{need >> 20} MiB (> {CUT_MB_ENV}={budget >> 20} MiB) — "
            f"raise {CUT_MB_ENV} or measure a narrower register",
            engine="cut-reconstruction",
            limit=budget,
            requested=need,
        )


def kron_join(
    a: np.ndarray,
    a_pos: Sequence[int],
    b: np.ndarray,
    b_pos: Sequence[int],
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Join two outcome vectors into one over the union of positions.

    Index convention: bit ``t`` of a vector's index is the outcome of
    global wire ``positions[t]``.  ``b`` lands in the low bits of the
    joined vector.
    """
    joined = np.multiply.outer(a, b).ravel()
    return joined, tuple(b_pos) + tuple(a_pos)


def spread_positions(
    vec: np.ndarray,
    positions: Sequence[int],
    out: np.ndarray,
    base_index: int = 0,
) -> None:
    """Scatter-add ``vec`` into ``out`` at its global wire positions.

    Streams in blocks sized by the memory budget so the intermediate
    index map never exceeds it.
    """
    positions = tuple(positions)
    length = vec.shape[0]
    if length != (1 << len(positions)):
        raise ValueError("vector length does not match its positions")
    block = max(1024, output_budget_bytes() // 64)
    for lo in range(0, length, block):
        hi = min(length, lo + block)
        local = np.arange(lo, hi, dtype=np.int64)
        idx = np.full(hi - lo, base_index, dtype=np.int64)
        for t, q in enumerate(positions):
            idx |= ((local >> t) & 1) << q
        np.add.at(out, idx, vec[lo:hi])


def signed_marginal(
    dist: np.ndarray,
    width: int,
    cut_wires: Sequence[int],
    labels: Sequence[str],
    terminal_wires: Sequence[int],
) -> np.ndarray:
    """Fold cut-wire outcomes into signs, marginalise onto the rest.

    ``q_P(o) = sum_cut_bits prod_i sign(label_i, bit_i) * p(o, bits)``
    with ``sign(I, b) = +1`` and ``(-1)**b`` for X/Y/Z — the measured
    eigenvalue of the basis-rotated wire.
    """
    signs = np.ones_like(dist)
    idx = np.arange(dist.shape[0], dtype=np.int64)
    for w, label in zip(cut_wires, labels):
        if label != "I":
            signs = signs * np.where((idx >> w) & 1, -1.0, 1.0)
    weighted = dist * signs
    if not terminal_wires:
        return np.array([float(weighted.sum())])
    shift = np.zeros(dist.shape[0], dtype=np.int64)
    for t, w in enumerate(terminal_wires):
        shift |= ((idx >> w) & 1) << t
    return np.bincount(shift, weights=weighted, minlength=1 << len(terminal_wires))


def fragment_quasi_tensor(
    meta: dict, dists_by_basis: Dict[Tuple[str, ...], np.ndarray], width: int
) -> Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], np.ndarray]:
    """One fragment's quasi-tensor from its evaluated distributions.

    ``dists_by_basis[basis_combo]`` has shape ``(#prep_combos, 2**w)``;
    the result maps ``(in_labels, out_labels)`` to the quasi-marginal
    over the fragment's terminal wires.
    """
    from itertools import product as iproduct

    in_edges: List[int] = meta["in_edges"]
    out_edges: List[int] = meta["out_edges"]
    out_wires: Tuple[int, ...] = meta["out_wires"]
    terminal_local = tuple(
        meta["local"][q] for q in meta["terminal"]
    )
    preps: Tuple[Tuple[int, ...], ...] = meta["preps"]
    tensor: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], np.ndarray] = {}
    for out_labels in iproduct(_LABELS, repeat=len(out_edges)):
        basis = tuple("Z" if l in ("I", "Z") else l for l in out_labels)
        dists = dists_by_basis[basis]
        folded = np.stack(
            [
                signed_marginal(
                    dists[i], width, out_wires, out_labels, terminal_local
                )
                for i in range(len(preps))
            ]
        )
        for in_labels in iproduct(_LABELS, repeat=len(in_edges)):
            acc = np.zeros(folded.shape[1])
            for i, combo in enumerate(preps):
                coeff = 1.0
                for label, prep in zip(in_labels, combo):
                    c = _PREP_COEFFS[label][prep]
                    if c == 0.0:
                        coeff = 0.0
                        break
                    coeff *= c
                if coeff:
                    acc += coeff * folded[i]
            tensor[(in_labels, out_labels)] = acc
    return tensor


# Local copy to keep reconstruct importable without fragments (the
# service worker ships jobs without the evaluation module's numerics).
_PREP_COEFFS = {
    "I": (1.0, 1.0, 0.0, 0.0),
    "X": (-1.0, -1.0, 2.0, 0.0),
    "Y": (-1.0, -1.0, 0.0, 2.0),
    "Z": (1.0, -1.0, 0.0, 0.0),
}


def contract_wire_plan(
    plan: CutPlan,
    frag_meta: List[dict],
    tensors: List[Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], np.ndarray]],
) -> np.ndarray:
    """Contract fragment quasi-tensors into the full distribution.

    The accumulator maps *open-edge label assignments* (edges produced
    but not yet consumed) to partially-joined outcome vectors.  Closing
    an edge sums its four labels into one accumulator entry — the
    vertical collapse that keeps the working set at
    ``4**(open edges)`` instead of ``4**cuts``.
    """
    _check_output_width(plan.num_qubits)
    # Working state: open-label key -> (vec, positions)
    acc: Dict[Tuple[Tuple[int, str], ...], Tuple[np.ndarray, Tuple[int, ...]]]
    acc = {(): (np.ones(1), ())}
    for meta, tensor in zip(frag_meta, tensors):
        in_edges: List[int] = meta["in_edges"]
        out_edges: List[int] = meta["out_edges"]
        terminal: Tuple[int, ...] = meta["terminal"]
        nxt: Dict[
            Tuple[Tuple[int, str], ...],
            Tuple[np.ndarray, Tuple[int, ...]],
        ] = {}
        from itertools import product as iproduct

        for key, (vec, pos) in acc.items():
            open_map = dict(key)
            in_labels = tuple(open_map.pop(e) for e in in_edges)
            for out_labels in iproduct(_LABELS, repeat=len(out_edges)):
                q = tensor[(in_labels, out_labels)]
                joined, jpos = kron_join(vec, pos, q, terminal)
                new_key = tuple(
                    sorted(
                        list(open_map.items())
                        + list(zip(out_edges, out_labels))
                    )
                )
                slot = nxt.get(new_key)
                if slot is None:
                    nxt[new_key] = (joined, jpos)
                else:
                    prev, ppos = slot
                    if ppos != jpos:  # pragma: no cover - invariant
                        raise AssertionError("position mismatch in contraction")
                    nxt[new_key] = (prev + joined, ppos)
        acc = nxt
    if list(acc.keys()) != [()]:
        raise AssertionError(f"unclosed cut edges after contraction: {list(acc)}")
    vec, pos = acc[()]
    vec = vec * (0.5 ** len(plan.edges))
    out = np.zeros(1 << plan.num_qubits)
    spread_positions(vec, pos, out)
    COUNTERS.record("cut", reconstructions=1)
    return out


def assemble_register_terms(
    terms: List[Tuple[int, np.ndarray]],
    classical: Sequence[int],
    fragment: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Scatter register-cut branch terms into the full distribution."""
    _check_output_width(num_qubits)
    out = np.zeros(1 << num_qubits)
    for cls_value, vec in terms:
        base = 0
        for i, q in enumerate(classical):
            base |= ((cls_value >> i) & 1) << q
        spread_positions(np.asarray(vec, dtype=float), fragment, out, base)
    COUNTERS.record("cut", reconstructions=1)
    return out
