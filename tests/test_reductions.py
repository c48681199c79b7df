"""Reduced-state and purity tests."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphent.catalog import all_entries
from graphent.graphs import (
    MAX_VERTICES,
    cut_rank_histogram,
    local_complement,
    make_graph,
    relabel,
)
from graphent import reductions
from graphent.measures import gcm
from graphent.reductions import subset_purity, top_schmidt_weight
from graphent.states import build_graph_state, checked_state

from test_states import for_random_graphs, random_unitary


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return raw / np.linalg.norm(raw)


def einsum_reduction(psi: np.ndarray, keep, n: int) -> np.ndarray:
    """Independent reduced-matrix construction via explicit index
    contraction on the full outer product."""
    t = psi.reshape((2,) * n)
    keep = tuple(keep)
    idx_ket = list(range(n))
    idx_bra = [i + n if (i + 1) in keep else i for i in range(n)]
    out = [q - 1 for q in keep] + [q - 1 + n for q in keep]
    return np.einsum(t, idx_ket, t.conj(), idx_bra, out).reshape(
        2 ** len(keep), 2 ** len(keep)
    )


def test_bell_reduction_is_maximally_mixed():
    psi = build_graph_state(make_graph(2, [(1, 2)]))
    s, n = checked_state(psi)
    for q in (1, 2):
        assert np.allclose(einsum_reduction(psi, [q], 2), np.eye(2) / 2, atol=1e-12)
        assert subset_purity(psi, [q]) == pytest.approx(0.5, abs=1e-12)
        assert top_schmidt_weight(s, [q], n) == pytest.approx(0.5, abs=1e-12)


def test_product_state_purity_is_one():
    rng = np.random.default_rng(5)
    factors = [random_state(rng, 1) for _ in range(4)]
    psi = np.array([1.0 + 0j])
    for f in factors:
        psi = np.kron(psi, f)
    for r in range(1, 4):
        for keep in itertools.combinations(range(1, 5), r):
            assert subset_purity(psi, keep) == pytest.approx(1.0, abs=1e-12)


def test_ghz_single_qubit_purities():
    # Star graph states reduce any single qubit to a mixed state of purity 1/2.
    g = make_graph(3, [(1, 2), (1, 3)])
    psi = build_graph_state(g)
    for q in (1, 2, 3):
        assert subset_purity(psi, [q]) == pytest.approx(0.5, abs=1e-12)


def test_partial_trace_matches_einsum_oracle():
    # The Gram matrix subset_purity and top_schmidt_weight reduce is the
    # smaller side's reduced state, transposed when that is the traced
    # side; each n here has keeps on both sides of n/2.
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        psi = random_state(rng, n)
        for r in range(1, n):
            keep = tuple(int(q) for q in sorted(rng.choice(n, size=r, replace=False) + 1))
            comp = tuple(q for q in range(1, n + 1) if q not in keep)
            want = (einsum_reduction(psi, keep, n) if 2 * r <= n
                    else einsum_reduction(psi, comp, n).T)
            assert np.allclose(reductions._gram(psi, keep, n), want, atol=1e-12)


def test_subset_purity_matches_dense_path():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        psi = random_state(rng, n)
        r = int(rng.integers(1, n))
        keep = tuple(int(q) for q in sorted(rng.choice(n, size=r, replace=False) + 1))
        rho = einsum_reduction(psi, keep, n)
        assert subset_purity(psi, keep) == pytest.approx(
            np.trace(rho @ rho).real, abs=1e-11
        )


def test_top_schmidt_weight_matches_dense_path():
    rng = np.random.default_rng(47)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        psi = random_state(rng, n)
        r = int(rng.integers(1, n))
        keep = tuple(int(q) for q in sorted(rng.choice(n, size=r, replace=False) + 1))
        comp = tuple(q for q in range(1, n + 1) if q not in keep)
        dense = np.linalg.eigvalsh(einsum_reduction(psi, keep, n))[-1]
        s = checked_state(psi)[0]
        assert top_schmidt_weight(s, keep, n) == pytest.approx(dense, abs=1e-12)
        assert top_schmidt_weight(s, comp, n) == pytest.approx(dense, abs=1e-12)


def test_subset_purity_complement_symmetry():
    rng = np.random.default_rng(59)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        psi = random_state(rng, n)
        r = int(rng.integers(1, n))
        keep = set(int(q) for q in rng.choice(n, size=r, replace=False) + 1)
        comp = set(range(1, n + 1)) - keep
        if not comp:
            continue
        assert subset_purity(psi, keep) == pytest.approx(
            subset_purity(psi, comp), abs=1e-11
        )


def test_subset_purity_local_unitary_invariance():
    rng = np.random.default_rng(71)
    from graphent.states import apply_local_unitary

    for _ in range(10):
        n = int(rng.integers(2, 6))
        psi = random_state(rng, n)
        rotated = psi
        for q in range(1, n + 1):
            rotated = apply_local_unitary(rotated, random_unitary(rng), q)
        for r in range(1, n):
            for keep in itertools.combinations(range(1, n + 1), r):
                assert subset_purity(rotated, keep) == pytest.approx(
                    subset_purity(psi, keep), abs=1e-10
                )


def test_subset_validation():
    # top_schmidt_weight takes a checked state and its n, and still
    # validates its cut.
    psi = build_graph_state(make_graph(2, [(1, 2)]))
    s, n = checked_state(psi)
    for keep in ([], [1, 1], [3]):
        with pytest.raises(ValueError):
            subset_purity(psi, keep)
    for cut in ([], [1, 1], [3], [1, 2]):
        with pytest.raises(ValueError):
            top_schmidt_weight(s, cut, n)
    # Qubit labels follow the vertex rule: a bool, a numpy integer or an
    # unhashable object is not a label.
    for label in (True, np.int64(1), [1]):
        for reduce in (lambda keep: subset_purity(psi, keep),
                       lambda cut: top_schmidt_weight(s, cut, n)):
            with pytest.raises(ValueError, match="out of range for n=2"):
                reduce([label])


def test_cut_rank_histogram_is_lc_and_relabel_invariant():
    # Cut-rank is invariant under local complementation (Bouchet 1988),
    # which lets are_lc_equivalent reject pairs whose histograms differ.
    def check(g):
        want = cut_rank_histogram(g).tolist()
        for a in range(1, g.n + 1):
            assert cut_rank_histogram(local_complement(g, a)).tolist() == want
        perm = list(range(1, g.n + 1))
        random.Random(len(g.edges)).shuffle(perm)
        assert cut_rank_histogram(relabel(g, perm)).tolist() == want

    for_random_graphs(check, 10)


def gf2_rank(rows) -> int:
    """Rank over GF(2) of int bitmask rows. Each row keeps the lesser of
    itself and its XOR with each basis row in turn, which is the XOR
    exactly when the row holds that basis row's leading bit; what is
    left, if not zero, joins the basis."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def oracle_histogram(g) -> list[int]:
    """cut_rank_histogram by a plain rank of each cut's adjacency block."""
    counts = [0]
    full = (1 << g.n) - 1
    for subset in range(1, 1 << (g.n - 1)):
        side = subset if subset.bit_count() <= g.n // 2 else full & ~subset
        k = gf2_rank(g.adj[v] & ~side for v in range(g.n) if side >> v & 1)
        counts += [0] * (k + 1 - len(counts))
        counts[k] += 1
    return counts


def random_graphs(sizes, per_size: int) -> list:
    """per_size seeded random graphs of each size, of densities spread
    over (0, 1)."""
    graphs = []
    for n in sizes:
        rng = random.Random(n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(per_size):
            density = rng.random()
            graphs.append(make_graph(n, [p for p in pairs if rng.random() < density]))
    return graphs


def test_cut_rank_histogram_matches_per_subset_rank():
    # The kernel against a plain rank of each cut's adjacency block: on
    # every labeled graph with n <= 5 (1,099 graphs), and up to n = 16
    # where no statevector check reaches.
    graphs = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs += [make_graph(n, [p for p, k in zip(pairs, keep) if k])
                   for keep in itertools.product((False, True), repeat=len(pairs))]
    for n in range(11, 17):
        rng = random.Random(n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs.append(make_graph(n, [(v, v % n + 1) for v in range(1, n + 1)]))
        graphs.append(make_graph(n, [(v, v + 1) for v in range(1, n, 2)]))
        graphs += [make_graph(n, [p for p in pairs if rng.random() < density])
                   for density in (0.2, 0.5, 0.9)]
    for n in (12, 16):  # empty, K_n, star, K_n minus a perfect matching
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs += [make_graph(n, []), make_graph(n, pairs),
                   make_graph(n, [(1, v) for v in range(2, n + 1)]),
                   make_graph(n, [(i, j) for i, j in pairs if i % 2 == 0 or j != i + 1])]
    for g in graphs:
        assert cut_rank_histogram(g).tolist() == oracle_histogram(g), g


def test_gcm_of_a_graph_is_the_exact_sum_over_the_oracle_histogram():
    # Each purity 2^-k is dyadic, so the sum and hence the value are
    # pinned with ==, not a tolerance.
    graphs = [e.graph for e in all_entries()] + random_graphs(range(2, 17), 2)
    for g in graphs:
        s = float(sum(Fraction(c, 2**k) for k, c in enumerate(oracle_histogram(g))))
        want = 2.0 ** (1.0 - g.n / 2.0) * math.sqrt(2**g.n - 2 - 2.0 * s)
        assert gcm(g).value == want, g


def test_cut_rank_histogram_memory_at_max_vertices():
    # One call at n = MAX_VERTICES holds a few arrays of 2^(n-1) int64.
    g = random_graphs([MAX_VERTICES], 1)[0]
    cut_rank_histogram(g)
    tracemalloc.start()
    try:
        cut_rank_histogram(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
