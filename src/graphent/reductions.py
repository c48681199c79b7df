"""Subsystem purities and top Schmidt weights of statevectors.

A subsystem is given as a collection of 1-indexed qubit labels. Each
quantity comes from the Gram matrix of the state's amplitudes on the
smaller side of the cut, so no full reduced density matrix is formed.
Graph states need no statevector for their purities: see
graphs.cut_rank_histogram.
"""

from __future__ import annotations

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


def _split_matrix(state: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """Reshape the state into a (kept) x (traced) matrix M with
    rho_keep = M M^dagger."""
    t = np.asarray(state, dtype=complex).reshape((2,) * n)
    kept_axes = [q - 1 for q in keep]
    other_axes = [ax for ax in range(n) if ax not in kept_axes]
    t = np.transpose(t, kept_axes + other_axes)
    return t.reshape(2 ** len(keep), 2 ** (n - len(keep)))


def subset_purity(state: np.ndarray, keep: Iterable[int]) -> float:
    """Tr(rho_keep^2) computed without forming the larger Gram matrix:
    both sides of a bipartition have equal purity, so the Gram matrix is
    built on the smaller side."""
    n, keep = _subset(state, keep)
    gram = _smaller_gram(_split_matrix(state, keep, n))
    return float(np.sum(np.abs(gram) ** 2))


def top_schmidt_weight(state: np.ndarray, cut: Iterable[int]) -> float:
    """The largest eigenvalue of the reduction onto cut, a proper subset
    of the qubits: for a normalized state, its top Schmidt weight across
    that bipartition. Taken from the Gram matrix on the smaller side."""
    n, keep = _subset(state, cut)
    if len(keep) == n:
        raise ValueError(f"cut must be a proper subset, got {keep!r}")
    return float(np.linalg.eigvalsh(_smaller_gram(_split_matrix(state, keep, n)))[-1])


def _smaller_gram(m: np.ndarray) -> np.ndarray:
    """M M^dagger or M^dagger M, whichever is smaller; both have the same
    nonzero spectrum."""
    if m.shape[0] <= m.shape[1]:
        return m @ m.conj().T
    return m.conj().T @ m
