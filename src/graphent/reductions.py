"""Subsystem purities and top Schmidt weights of statevectors.

A subsystem is given as a collection of 1-indexed qubit labels. Each
quantity comes from the Gram matrix of the state's amplitudes on the
smaller side of the cut, so no full reduced density matrix is formed.
Graph states need no statevector for their purities: see
graphs.cut_rank_histogram.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from graphent.graphs import check_label
from graphent.states import num_qubits


def _subset(state: np.ndarray, keep: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    n = num_qubits(state)
    keep = tuple(keep)
    for q in keep:
        check_label(q, n, "qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubits in subsystem {keep!r}")
    if not keep:
        raise ValueError("subsystem must contain at least one qubit")
    return n, keep


def _gram(state: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """The Gram matrix on the smaller side of the cut, for the (kept) x
    (traced) split M of the state: M M^dagger = rho_keep, or M^dagger M,
    the transpose of the traced side's reduced state, when that side is
    smaller. Both sides share their nonzero spectrum."""
    t = np.asarray(state, dtype=complex).reshape((2,) * n)
    kept_axes = [q - 1 for q in keep]
    other_axes = [ax for ax in range(n) if ax not in kept_axes]
    m = np.transpose(t, kept_axes + other_axes).reshape(2 ** len(keep), -1)
    if 2 * len(keep) <= n:
        return m @ m.conj().T
    return m.conj().T @ m


def subset_purity(state: np.ndarray, keep: Iterable[int]) -> float:
    """Tr(rho_keep^2) computed without forming the larger Gram matrix:
    both sides of a bipartition have equal purity, so the Gram matrix is
    built on the smaller side."""
    n, keep = _subset(state, keep)
    return _checked(float(np.sum(np.abs(_gram(state, keep, n)) ** 2)))


def top_schmidt_weight(state: np.ndarray, cut: Iterable[int]) -> float:
    """The largest eigenvalue of the reduction onto cut, a proper subset
    of the qubits: for a normalized state, its top Schmidt weight across
    that bipartition. Taken from the Gram matrix on the smaller side."""
    n, keep = _subset(state, cut)
    if len(keep) == n:
        raise ValueError(f"cut must be a proper subset, got {keep!r}")
    return _checked(float(np.linalg.eigvalsh(_gram(state, keep, n))[-1]))


def _checked(value: float) -> float:
    """value, unless it shows the state had non-finite amplitudes or zero
    norm: one comparison per cut, where normalizing would cost a pass."""
    if not math.isfinite(value):
        raise ValueError("statevector amplitudes are not finite")
    if value <= 0.0:
        raise ValueError("statevector has (near-)zero norm")
    return value
