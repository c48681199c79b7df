"""Graph construction, isomorphism, and LC-orbit tests."""

import itertools
import random

import pytest

from graphent.catalog import all_entries
from graphent.graphs import (
    Graph,
    OrbitBudgetExceeded,
    are_lc_equivalent,
    canonical_form,
    degree_sequence,
    find_isomorphism,
    is_connected,
    is_isomorphic,
    lc_orbit,
    local_complement,
    make_graph,
    neighbors,
    relabel,
)


def test_make_graph_normalizes():
    g = make_graph(3, [(2, 1), (1, 3), (3, 1)])
    assert g.edges == ((1, 2), (1, 3))
    assert g.n == 3


def test_make_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        make_graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        make_graph(0, [])
    with pytest.raises(ValueError):
        make_graph(17, [])


def test_neighbors():
    g = make_graph(4, [(1, 2), (2, 3), (2, 4)])
    assert neighbors(g, 2) == {1, 3, 4}
    assert neighbors(g, 1) == {2}
    assert neighbors(g, 4) == {2}
    with pytest.raises(ValueError):
        neighbors(g, 5)


def test_local_complement_triangle():
    # Complementing at a vertex of the triangle removes the opposite edge.
    tri = make_graph(3, [(1, 2), (1, 3), (2, 3)])
    got = local_complement(tri, 1)
    assert got.edges == ((1, 2), (1, 3))


def test_local_complement_star_gives_complete():
    star = make_graph(4, [(1, 2), (1, 3), (1, 4)])
    k4 = make_graph(4, list(itertools.combinations(range(1, 5), 2)))
    assert local_complement(star, 1) == k4


def test_local_complement_involution():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 7)
        edges = [
            e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        a = rng.randint(1, n)
        assert local_complement(local_complement(g, a), a) == g


def test_relabel_roundtrip():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    perm = (3, 1, 4, 2)
    h = relabel(g, perm)
    inv = [0] * 4
    for v in range(1, 5):
        inv[perm[v - 1] - 1] = v
    assert relabel(h, tuple(inv)) == g
    with pytest.raises(ValueError):
        relabel(g, (1, 1, 2, 3))


def test_is_connected():
    assert is_connected(make_graph(1, []))
    assert is_connected(make_graph(2, [(1, 2)]))
    assert not is_connected(make_graph(2, []))
    assert not is_connected(make_graph(4, [(1, 2), (3, 4)]))
    assert is_connected(make_graph(4, [(1, 2), (2, 3), (3, 4)]))


def test_canonical_form_idempotent_and_relabel_invariant():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [
            e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
        ]
        g = make_graph(n, edges)
        c = canonical_form(g)
        assert canonical_form(c) == c
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, tuple(perm))) == c


def test_path_vs_star_not_isomorphic():
    path = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    star = make_graph(4, [(1, 2), (1, 3), (1, 4)])
    assert not is_isomorphic(path, star)
    assert find_isomorphism(path, star) is None


def test_isomorphism_witness_relabels_exactly():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [
            e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
        ]
        g1 = make_graph(n, edges)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        g2 = relabel(g1, tuple(perm))
        w = find_isomorphism(g1, g2)
        assert w is not None
        assert relabel(g1, w) == g2


def test_isomorphism_same_degrees_different_graphs():
    # Two 6-vertex graphs with equal degree sequences, only one has a triangle.
    g1 = make_graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    g2 = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    assert degree_sequence(g1) == degree_sequence(g2)
    assert not is_isomorphic(g1, g2)


def test_orbit_single_edge():
    g = make_graph(2, [(1, 2)])
    orb = lc_orbit(g)
    assert orb.size == 1


def test_orbit_star4_contains_complete():
    star = make_graph(4, [(1, 2), (1, 3), (1, 4)])
    k4 = make_graph(4, list(itertools.combinations(range(1, 5), 2)))
    orb = lc_orbit(star)
    assert canonical_form(k4) in orb.representatives
    assert canonical_form(star) in orb.representatives
    assert orb.size == 2


def test_orbit_budget_exceeded():
    g = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    with pytest.raises(OrbitBudgetExceeded):
        lc_orbit(g, max_size=2)


def test_lc_equivalence_path_star():
    # All connected 3-vertex graph states sit in one orbit.
    path3 = make_graph(3, [(1, 2), (2, 3)])
    tri = make_graph(3, [(1, 2), (1, 3), (2, 3)])
    assert are_lc_equivalent(path3, tri)
    assert are_lc_equivalent(tri, path3)


def test_lc_equivalence_respects_relabeling():
    rng = random.Random(5)
    g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    perm = list(range(1, 6))
    rng.shuffle(perm)
    assert are_lc_equivalent(g, relabel(g, tuple(perm)))


def _lc_walk(g, rng, steps):
    """Random local complementations, then a random relabeling."""
    for _ in range(steps):
        g = local_complement(g, rng.randint(1, g.n))
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return relabel(g, tuple(perm))


def test_lc_equivalence_separates_catalog_classes():
    # Catalog graphs are pairwise LC-inequivalent, so a walked copy of
    # graph j is equivalent to graph i exactly when i == j.
    entries = [e for e in all_entries() if e.n <= 6]
    rng = random.Random(11)
    walked = {e.id: _lc_walk(e.graph, rng, 2 * e.n) for e in entries}
    for a in entries:
        for b in entries:
            if a.n == b.n:
                got = are_lc_equivalent(a.graph, walked[b.id])
                assert got == (a.id == b.id), (a.id, b.id)


def test_lc_inequivalent_different_n():
    assert not are_lc_equivalent(make_graph(2, [(1, 2)]), make_graph(3, [(1, 2)]))


def test_graph_hashable_and_frozen():
    g = make_graph(2, [(1, 2)])
    assert g in {g}
    with pytest.raises(Exception):
        g.n = 3  # type: ignore[misc]
