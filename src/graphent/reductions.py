"""Subsystem purities and top Schmidt weights of statevectors.

A subsystem is given as a collection of 1-indexed qubit labels. Each
quantity comes from the Gram matrix of the state's amplitudes on the
smaller side of the cut, so no full reduced density matrix is formed.
subset_purity alone checks its state, with states.checked_state, once per
call and never per cut; top_schmidt_weight (which still validates its
cut), purity_sum and schmidt_ceiling take a checked, unit-norm state and
its n, and _top_weight caps each weight at 1.0 against rounding. Graph
states need no statevector for their purities: graphs.cut_rank_histogram
gives each cut's, for gem's ceiling, and GCM's sum of them comes from
graphs.stabilizer_weight_counts, not from the histogram.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

import numpy as np

from graphent.graphs import check_label
from graphent.states import checked_state


def _subset(keep: Iterable[int], n: int) -> tuple[int, ...]:
    keep = tuple(keep)
    for q in keep:
        check_label(q, n, "qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate qubits in subsystem {keep!r}")
    if not keep:
        raise ValueError("subsystem must contain at least one qubit")
    return keep


def _gram(s: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """The Gram matrix on the smaller side of the cut, for the (kept) x
    (traced) split M of the complex state s: M M^dagger = rho_keep, or
    M^dagger M, the transpose of the traced side's reduced state, when
    that side is smaller. Both sides share their nonzero spectrum."""
    kept_axes = [q - 1 for q in keep]
    other_axes = [ax for ax in range(n) if ax not in kept_axes]
    m = s.reshape((2,) * n).transpose(kept_axes + other_axes).reshape(2 ** len(keep), -1)
    if 2 * len(keep) <= n:
        return m @ m.conj().T
    return m.conj().T @ m


def _purity(s: np.ndarray, keep: tuple[int, ...], n: int) -> float:
    return float(np.sum(np.abs(_gram(s, keep, n)) ** 2))


def _top_weight(s: np.ndarray, keep: tuple[int, ...], n: int) -> float:
    return min(float(np.linalg.eigvalsh(_gram(s, keep, n))[-1]), 1.0)


def _cuts(n: int):
    """The nonempty subsets of qubits 1..n-1, the cuts that
    graphs.cut_rank_histogram counts: one side of each bipartition, whose
    sides share their purity and Schmidt weights; _gram reduces the smaller."""
    for r in range(1, n):
        yield from itertools.combinations(range(1, n), r)


def subset_purity(state: np.ndarray, keep: Iterable[int]) -> float:
    """Tr(rho_keep^2) computed without forming the larger Gram matrix:
    both sides of a bipartition have equal purity, so the Gram matrix is
    built on the smaller side."""
    s, n = checked_state(state)
    return _purity(s, _subset(keep, n), n)


def top_schmidt_weight(s: np.ndarray, cut: Iterable[int], n: int) -> float:
    """The largest eigenvalue of the checked n-qubit state s reduced onto
    cut, a proper subset of the qubits: its top Schmidt weight across that
    bipartition, from the Gram matrix on the smaller side."""
    keep = _subset(cut, n)
    if len(keep) == n:
        raise ValueError(f"cut must be a proper subset, got {keep!r}")
    return _top_weight(s, keep, n)


def purity_sum(s: np.ndarray, n: int) -> float:
    """The sum of subset_purity over one side of each of the 2^(n-1) - 1
    bipartitions of the checked n-qubit state s."""
    return sum(_purity(s, c, n) for c in _cuts(n))


def schmidt_ceiling(s: np.ndarray, n: int) -> float:
    """The smallest top Schmidt weight over all bipartitions of the
    checked n-qubit state s, 1.0 when n = 1: no product state's fidelity
    with s exceeds it."""
    return min((_top_weight(s, c, n) for c in _cuts(n)), default=1.0)
