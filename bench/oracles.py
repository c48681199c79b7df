"""Reference computations the benchmark checks graphent's outputs against.

Everything here is written from the definitions, on plain Python ints and
numpy, and imports nothing from graphent, so a defect in the package
cannot hide in its own oracle.

Graphs are (n, edges) with 1-based vertices, the same convention as
graphent and the catalog files.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


def adjacency_masks(n: int, edges) -> list[int]:
    """Row v-1 holds vertex v's neighbours as bits 0..n-1."""
    adj = [0] * n
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def gf2_rank(rows) -> int:
    """Rank over GF(2) of int bit-rows (XOR basis keyed by leading bit)."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def cut_rank(adj: list[int], subset: int) -> int:
    """GF(2) rank of the adjacency block between subset and its complement."""
    outside = ~subset
    return gf2_rank(adj[v] & outside for v in range(len(adj)) if subset >> v & 1)


def gcm_by_cut_rank(n: int, edges) -> float:
    """GCM of the graph state |G> without a statevector.

    For a graph state Tr rho_A^2 = 2^-cutrank(A) (Hein, Eisert, Briegel,
    PRA 69, 062311), and cutrank(A) = cutrank(complement of A), so the sum
    over all 2^n - 2 subsystems is twice the sum over those that contain
    vertex 1 (the full set excluded).
    """
    adj = adjacency_masks(n, edges)
    full = (1 << n) - 1
    total = 0.0
    for rest in range(1 << (n - 1)):
        subset = 1 | rest << 1
        if subset != full:
            total += 2.0 ** -cut_rank(adj, subset)
    return 2.0 ** (1.0 - n / 2.0) * math.sqrt(2**n - 2 - 2.0 * total)


def canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Lexicographically least sorted edge list over all n! relabelings.

    This is the canonical form graphent documents; found here by brute
    force so that orbit outputs can be checked to contain their own graph.
    """
    edges = list(edges)
    if not edges:
        return ()
    perms, weight = _relabelings(n)
    masks = np.zeros(len(perms), dtype=np.int64)
    for i, j in edges:
        masks += weight[perms[:, i - 1], perms[:, j - 1]]
    best = perms[int(np.argmax(masks))]
    return relabel_edges(edges, [int(x) + 1 for x in best])


@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! permutations, and the bit weight of each vertex pair with
    pair (1, 2) most significant (so the largest mask is the least list)."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    pairs = list(itertools.combinations(range(n), 2))
    weight = np.zeros((n, n), dtype=np.int64)
    for rank, (u, v) in enumerate(pairs):
        weight[u, v] = weight[v, u] = 1 << (len(pairs) - 1 - rank)
    return perms, weight


def relabel_edges(edges, image) -> tuple[tuple[int, int], ...]:
    """Edges after sending vertex v to image[v-1], sorted."""
    out = []
    for i, j in edges:
        a, b = image[i - 1], image[j - 1]
        out.append((min(a, b), max(a, b)))
    return tuple(sorted(out))


def local_complement_edges(edges, vertex: int) -> tuple[tuple[int, int], ...]:
    """Toggle every edge between two neighbours of vertex."""
    edge_set = set(edges)
    nbrs = sorted({j for i, j in edges if i == vertex} | {i for i, j in edges if j == vertex})
    for pair in itertools.combinations(nbrs, 2):
        edge_set ^= {pair}
    return tuple(sorted(edge_set))


def lc_walk(n: int, edges, rng: np.random.Generator, steps: int) -> tuple[tuple[int, int], ...]:
    """A random sequence of local complementations, then a random relabeling.

    The result is LC-equivalent to the input up to isomorphism, which is
    exactly the relation `graphent equiv` decides.
    """
    edges = tuple(sorted((min(i, j), max(i, j)) for i, j in edges))
    for _ in range(steps):
        edges = local_complement_edges(edges, int(rng.integers(1, n + 1)))
    image = [int(x) + 1 for x in rng.permutation(n)]
    return relabel_edges(edges, image)


def random_connected_edges(n: int, rng: np.random.Generator,
                           density: float) -> tuple[tuple[int, int], ...]:
    """A random spanning tree plus each remaining pair with probability density."""
    order = [int(x) + 1 for x in rng.permutation(n)]
    edges = set()
    for k in range(1, n):
        parent = order[int(rng.integers(k))]
        edges.add((min(parent, order[k]), max(parent, order[k])))
    for pair in itertools.combinations(range(1, n + 1), 2):
        if pair not in edges and rng.random() < density:
            edges.add(pair)
    return tuple(sorted(edges))


def cycle_edges(n: int, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """The cycle C_n under a random labeling."""
    image = [int(x) + 1 for x in rng.permutation(n)]
    ring = [(k, k % n + 1) for k in range(1, n + 1)]
    return relabel_edges(ring, image)


def graph_state(n: int, edges) -> np.ndarray:
    """|G> as 2^n amplitudes, qubit 1 the most significant bit."""
    idx = np.arange(2**n)
    sign = np.zeros(2**n, dtype=np.int64)
    for i, j in edges:
        sign ^= (idx >> (n - i)) & (idx >> (n - j)) & 1
    return (1.0 - 2.0 * sign) * 2.0 ** (-n / 2.0) + 0j


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def rotate_every_qubit(state: np.ndarray, unitaries) -> np.ndarray:
    """Apply unitaries[q-1] to qubit q for every qubit."""
    n = len(unitaries)
    t = state.reshape((2,) * n)
    for axis, u in enumerate(unitaries):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)
