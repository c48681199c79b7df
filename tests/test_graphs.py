"""Graph construction, isomorphism, and LC-orbit tests."""

import functools
import inspect
import itertools
import random
import time
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from graphent import graphs
from graphent.catalog import all_entries, catalog_get
from graphent.graphs import (
    Graph,
    LcOrbit,
    OrbitBudgetExceeded,
    are_lc_equivalent,
    canonical_form,
    cut_rank_histogram,
    independence_number,
    is_connected,
    lc_orbit,
    local_complement,
    make_graph,
    relabel,
    stabilizer_weight_counts,
)

from test_measures import brute_force_independent_set
from test_reductions import random_graphs
from test_states import edge_list_neighbors, for_random_graphs


def brute_force_canonical_edges(g):
    """Lexicographically least sorted edge list over all n! relabelings.

    The reference for canonical_form, which finds the same form by an
    ordered-partition search. With pair (1, 2) as the most significant
    bit, the largest edge bitmask is the least edge list.
    """
    assert g.n <= 8, "n! relabelings"
    if not g.edges:
        return ()
    perms, weight = _relabelings(g.n)
    masks = np.zeros(len(perms), dtype=np.int64)
    for i, j in g.edges:
        masks += weight[perms[:, i - 1], perms[:, j - 1]]
    best = perms[int(np.argmax(masks))]
    return relabel(g, tuple(int(x) + 1 for x in best)).edges


@functools.lru_cache(maxsize=None)
def _relabelings(n):
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    pairs = list(itertools.combinations(range(n), 2))
    weight = np.zeros((n, n), dtype=np.int64)
    for rank, (u, v) in enumerate(pairs):
        weight[u, v] = weight[v, u] = 1 << (len(pairs) - 1 - rank)
    return perms, weight


def edge_set_local_complement(g, a):
    """Local complementation on an edge set, the reference for the
    bitmask version: toggle every pair of a's neighbours."""
    edge_set = set(g.edges)
    for pair in itertools.combinations(sorted(edge_list_neighbors(g, a)), 2):
        edge_set ^= {pair}
    return tuple(sorted(edge_set))


def edge_sorting_relabel(g, perm):
    """Relabeled edges, each pair and then the list sorted."""
    return tuple(sorted(
        (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
        for i, j in g.edges
    ))


def dict_of_sets_is_connected(g):
    """Depth-first search from vertex 1 over adjacency sets."""
    adj = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def unpruned_lc_search(g, max_size, target=None):
    """The LC-orbit breadth-first search that tries every vertex of every
    form. The reference for graphs._lc_search, which skips the moves it
    can prove redundant and must reach the same forms in the same order.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    start = canonical_form(g)
    reps = {start}
    queue = deque([start])
    while queue and target not in reps:
        cur = queue.popleft()
        for a in range(1, g.n + 1):
            nxt = canonical_form(local_complement(cur, a))
            if nxt in reps:
                continue
            if nxt != target and len(reps) >= max_size:
                raise OrbitBudgetExceeded(
                    f"orbit exceeds budget of {max_size} representatives"
                )
            reps.add(nxt)
            if nxt == target:
                break
            queue.append(nxt)
    return reps


def automorphism_taking(g, v, w):
    """A permutation (1-based images) that preserves g's adjacency and maps
    0-indexed vertex v to w, found by backtracking, or None. Vertices are
    mapped in an order that keeps each one adjacent to many mapped ones."""
    n = g.n
    order, placed = [v], 1 << v
    while len(order) < n:
        u = max((u for u in range(n) if not placed >> u & 1),
                key=lambda u: ((g.adj[u] & placed).bit_count(), -u))
        order.append(u)
        placed |= 1 << u
    image = [-1] * n

    def extend(i, used):
        if i == n:
            return True
        u = order[i]
        for x in ([w] if i == 0 else range(n)):
            if used >> x & 1 or g.adj[u].bit_count() != g.adj[x].bit_count():
                continue
            if all((g.adj[u] >> y & 1) == (g.adj[x] >> image[y] & 1) for y in order[:i]):
                image[u] = x
                if extend(i + 1, used | 1 << x):
                    return True
        return False

    return tuple(x + 1 for x in image) if extend(0, 0) else None


def assert_classes_are_automorphism_orbits(g, searched=None):
    """Each class the canonical search reports (or reported, as searched)
    holds its own members only, and an automorphism of the form maps each
    member to each other. Returns the classes."""
    form, perm, classes = searched or graphs._canonical_with_perm(g)
    assert form == relabel(g, perm)
    for v, cls in enumerate(classes):
        assert cls >> v & 1
        for w in range(g.n):
            if cls >> w & 1:
                assert classes[w] == cls
                sigma = automorphism_taking(form, v, w)
                assert sigma is not None and relabel(form, sigma) == form
    return classes


def test_bitmask_operations_match_edge_list_oracles():
    def check(g):
        assert list(g.edges) == sorted(g.edges)
        assert all(i < j for i, j in g.edges)
        assert make_graph(g.n, g.edges) == g
        assert is_connected(g) == dict_of_sets_is_connected(g)
        perm = list(range(1, g.n + 1))
        random.Random(len(g.edges)).shuffle(perm)
        # Whole graphs are compared, so a stray bit that no edge shows
        # (such as a self-loop) fails too.
        assert relabel(g, perm) == make_graph(g.n, edge_sorting_relabel(g, perm))
        for a in range(1, g.n + 1):
            assert g.adj[a - 1] == sum(1 << (b - 1) for b in edge_list_neighbors(g, a))
            moved = make_graph(g.n, edge_set_local_complement(g, a))
            assert local_complement(g, a) == moved

    for_random_graphs(check, 16)
    # The draws reach n = 16 only in the helper's three fixed examples, so
    # bit 15 is covered at more densities here, from sparse (disconnected)
    # to dense.
    rng = random.Random(16)
    for density in (0.05, 0.15, 0.5, 0.9):
        check(make_graph(16, [p for p in itertools.combinations(range(1, 17), 2)
                              if rng.random() < density]))


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
    with pytest.raises(ValueError, match="not a vertex pair"):
        make_graph(3, [(1, 2, 3)])
    with pytest.raises(ValueError, match="edge 1 is not a vertex pair"):
        make_graph(3, [1])
    with pytest.raises(ValueError, match="is not a vertex pair"):
        make_graph(3, [np.array(1)])
    with pytest.raises(ValueError, match="non-integer"):
        make_graph(3, [(1, 2.0)])
    with pytest.raises(ValueError, match="non-integer"):
        make_graph(3, [(True, 2)])
    with pytest.raises(ValueError, match="vertex count"):
        make_graph(True, [])


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
    for bad in ((1, 1, 2, 3), (2.0, 1.0, 3.0, 4.0), (True, 2, 3, 4)):
        with pytest.raises(ValueError, match="not a bijection"):
            relabel(g, bad)


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


def test_canonical_form_matches_brute_force_on_random_graphs():
    def check(g):
        assert canonical_form(g).edges == brute_force_canonical_edges(g)

    for_random_graphs(check, 8)


def test_independence_number_matches_brute_force_on_random_graphs():
    def check(g):
        assert independence_number(g) == len(brute_force_independent_set(g))

    for_random_graphs(check, 10)


def test_independence_number_at_max_vertices():
    n = 16
    cycle = make_graph(n, [(v, v % n + 1) for v in range(1, n + 1)])
    star = make_graph(n, [(1, v) for v in range(2, n + 1)])
    complete = make_graph(n, itertools.combinations(range(1, n + 1), 2))
    matching = make_graph(n, [(v, v + 1) for v in range(1, n, 2)])
    assert [independence_number(g) for g in (cycle, star, complete, matching)] == [
        8, 15, 1, 8]
    assert independence_number(make_graph(n, [])) == n


def test_catalog_orbit_representatives_are_fixed_points():
    for e in all_entries():
        for rep in lc_orbit(e.graph).representatives:
            assert canonical_form(rep) == rep, e.id


def test_c8_orbit_within_one_second():
    start = time.perf_counter()
    assert lc_orbit(make_graph(8, [(v, v % 8 + 1) for v in range(1, 9)])).size == 214
    assert time.perf_counter() - start < 1.0


def test_cocktail_party_canonical_form_within_budget():
    # K16 minus a perfect matching (2^8 * 8! automorphisms) is the slowest
    # n = 16 input found: its tied states differ only in the order of the
    # matched partners, which neither prune merges.
    matching = {(2 * k - 1, 2 * k) for k in range(1, 9)}
    g = make_graph(16, set(itertools.combinations(range(1, 17), 2)) - matching)
    start = time.perf_counter()
    searched = graphs._canonical_with_perm(g)
    assert time.perf_counter() - start < 5.0
    # Lex-least: each vertex's missing partner is labeled as late as possible.
    missing = set(itertools.combinations(range(1, 17), 2)) - set(searched[0].edges)
    assert missing == {(k, 17 - k) for k in range(1, 9)}
    assert set(assert_classes_are_automorphism_orbits(g, searched)) == {(1 << 16) - 1}


def test_path_vs_star_not_isomorphic():
    path = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    star = make_graph(4, [(1, 2), (1, 3), (1, 4)])
    assert canonical_form(path) != canonical_form(star)


def test_find_isomorphism_needs_equal_counts():
    # Isomorphism is found by comparing canonical forms: a graph with
    # another vertex or edge count never matches the path.
    path = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert canonical_form(path) != canonical_form(make_graph(5, [(1, 2), (2, 3), (3, 4)]))
    assert canonical_form(path) != canonical_form(make_graph(4, [(1, 2), (2, 3)]))


@pytest.mark.parametrize("edges, budget", [
    # The Clebsch graph (folded 5-cube): 1920 automorphisms, no twins.
    ([(a + 1, b + 1) for a, b in itertools.combinations(range(16), 2)
      if a ^ b in (1, 2, 4, 8, 15)], 1.0),
    # 8 * K2: about 1 s unless tied states with equal cells are kept once.
    ([(2 * k - 1, 2 * k) for k in range(1, 9)], 0.25),
], ids=["clebsch", "perfect-matching"])
def test_symmetric_canonical_form_within_budget(edges, budget):
    g = make_graph(16, edges)
    start = time.perf_counter()
    c = canonical_form(g)
    assert time.perf_counter() - start < budget
    assert canonical_form(relabel(g, range(16, 0, -1))) == c


@pytest.mark.parametrize("n", [10, 16])
def test_canonical_form_separates_path_and_star_fast(n):
    path = make_graph(n, [(v, v + 1) for v in range(1, n)])
    star = make_graph(n, [(1, v) for v in range(2, n + 1)])
    start = time.perf_counter()
    assert canonical_form(path) != canonical_form(star)
    assert time.perf_counter() - start < 0.5


def test_isomorphism_witness_relabels_exactly():
    # The permutation built from the canonical search's labeling
    # relabels the graph into its form. _lc_search reads the labeling
    # itself, labeling.index(a), to map a vertex onto the form.
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [
            e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
        ]
        shuffled = list(range(1, n + 1))
        rng.shuffle(shuffled)
        g = relabel(make_graph(n, edges), tuple(shuffled))
        form, perm, _ = graphs._canonical_with_perm(g)
        assert relabel(g, perm) == form


def test_isomorphism_same_degrees_different_graphs():
    # Two 6-vertex graphs with equal degree sequences, only one has a triangle.
    g1 = make_graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    g2 = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])

    def degrees(g):
        return sorted(sum(v in e for e in g.edges) for v in range(1, g.n + 1))

    assert degrees(g1) == degrees(g2) == [2] * 6
    assert canonical_form(g1) != canonical_form(g2)


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


def pruned_lc_search(g, max_size, target=None):
    """graphs._lc_search with graphs.LC_BUDGET set to max_size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "LC_BUDGET", max_size)
        return graphs._lc_search(g, target)[0]


def assert_same_search(g, max_size, target=None):
    """The pruned and the unpruned search end alike: with the same forms,
    or both with OrbitBudgetExceeded."""
    try:
        want = unpruned_lc_search(g, max_size, target)
    except OrbitBudgetExceeded:
        with pytest.raises(OrbitBudgetExceeded):
            pruned_lc_search(g, max_size, target)
        return
    assert pruned_lc_search(g, max_size, target) == want


def cycle(n):
    return make_graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def test_lc_orbit_matches_unpruned_search_on_catalog_and_cycles():
    entries = all_entries()
    orbits = {e.id: unpruned_lc_search(e.graph, 10**6) for e in entries}
    for e in entries:
        assert lc_orbit(e.graph).representatives == orbits[e.id], e.id
    for n in (8, 9, 10):
        assert lc_orbit(cycle(n)).representatives == unpruned_lc_search(cycle(n), 10**6)
    # Verdicts on a walked copy of each catalog graph, against its own entry
    # and the next one with as many vertices.
    rng = random.Random(12)
    for e in entries:
        walked = _lc_walk(e.graph, rng, e.n)
        same_n = [other for other in entries if other.n == e.n]
        nxt = same_n[(same_n.index(e) + 1) % len(same_n)]
        for other in (e, nxt):
            want = canonical_form(walked) in orbits[other.id]
            assert are_lc_equivalent(other.graph, walked) == want, (e.id, other.id)


def test_lc_search_matches_unpruned_search_on_random_graphs():
    # Orbits of random 9-vertex graphs reach thousands of forms, so each
    # search runs under a budget and compares how it ends; the targets are
    # a short LC walk away (equivalent) and one edge away (rarely so).
    def check(g):
        rng = random.Random(len(g.edges))
        assert_same_search(g, 40)
        near = canonical_form(_lc_walk(g, rng, 2))
        assert_same_search(g, 40, near)
        flipped = canonical_form(make_graph(g.n, set(g.edges) ^ {(1, 2)}))
        assert_same_search(g, 40, flipped)

    for_random_graphs(check, 9)


@pytest.mark.parametrize("gid", [8, 19, 30, 45])
def test_orbit_budget_fires_where_unpruned_search_does(gid):
    g = catalog_get(gid).graph
    size = lc_orbit(g).size
    assert len(unpruned_lc_search(g, size)) == size
    for search in (pruned_lc_search, unpruned_lc_search):
        with pytest.raises(OrbitBudgetExceeded):
            search(g, size - 1)
    # With a target, whether the budget fires first depends on the order
    # in which forms are found, so every budget is compared.
    target = max(lc_orbit(g).representatives, key=lambda r: r.edges)
    for max_size in range(1, size + 1):
        assert_same_search(g, max_size, target)


@pytest.mark.parametrize("edges", [
    [(a + 1, b + 1) for a, b in itertools.combinations(range(16), 2)
     if a ^ b in (1, 2, 4, 8, 15)],
    [(2 * k - 1, 2 * k) for k in range(1, 9)],
    [(v, v % 16 + 1) for v in range(1, 17)],
], ids=["clebsch", "perfect-matching", "cycle"])
def test_canonical_search_classes_are_automorphism_orbits(edges):
    # K16 minus a perfect matching is checked beside its time budget. All
    # four graphs are vertex-transitive, and the search proves it.
    classes = assert_classes_are_automorphism_orbits(make_graph(16, edges))
    assert set(classes) == {(1 << 16) - 1}


def test_canonical_search_classes_are_automorphism_orbits_on_random_graphs():
    def check(g):
        assert_classes_are_automorphism_orbits(g)

    for_random_graphs(check, 16)


def test_catalog_orbits_count_their_canonical_searches():
    # The unpruned search runs 6825: one per start and per vertex of each
    # of the 995 forms.
    orbits = [lc_orbit(e.graph) for e in all_entries()]
    assert sum(o.size for o in orbits) == 995
    assert all(o.size <= o.searches for o in orbits)
    assert sum(o.searches for o in orbits) == 2205
    assert orbits[0] == LcOrbit(orbits[0].representatives)


def test_equal_certificates_mean_equal_forms():
    # On every input of the catalog orbits' searches, and on random graphs
    # with n <= 8 beside a random relabeling of each, the certificate
    # decides the form: equal certificates give equal forms and back.
    searched = []
    real = graphs._canonical_search

    def spy(adj):
        searched.append(adj)
        return real(adj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_canonical_search", spy)
        for e in all_entries():
            lc_orbit(e.graph)
    assert len(searched) == 2205
    rng = random.Random(9)
    graphs_in = [Graph(adj) for adj in searched]
    for _ in range(1500):
        n = rng.randint(1, 8)
        g = make_graph(n, [p for p in itertools.combinations(range(1, n + 1), 2)
                           if rng.random() < 0.5])
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        graphs_in += [g, relabel(g, perm)]
    form_of, certificate_of = {}, {}
    for g in graphs_in:
        certificate = real(g.adj)[0]
        form = canonical_form(g)
        assert form_of.setdefault(certificate, form) == form
        assert certificate_of.setdefault(form, certificate) == certificate
    assert len(form_of) == len(certificate_of) > 1000


def test_orbit_budget_exceeded(monkeypatch):
    g = make_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    monkeypatch.setattr(graphs, "LC_BUDGET", 2)
    with pytest.raises(OrbitBudgetExceeded, match="budget of 2 representatives"):
        graphs._lc_search(g)
    # Every search stops at the fixed LC_BUDGET; none takes a budget.
    assert list(inspect.signature(graphs._lc_search).parameters) == ["g", "target"]
    with pytest.raises(TypeError):
        lc_orbit(g, max_size=2)
    with pytest.raises(TypeError):
        are_lc_equivalent(g, g, max_size=2)


def weight_enumerator(counts, x, y):
    """A(x, y) = sum_w counts[w] x^(n - w) y^w, n = len(counts) - 1."""
    n = len(counts) - 1
    return sum(c * x ** (n - w) * y**w for w, c in enumerate(counts))


def test_stabilizer_weight_counts_obey_quantum_macwilliams():
    # A graph state's stabilizer group is its own symplectic dual, so its
    # weight enumerator is self-dual: 2^n A(x, y) = A(x + 3y, x - y). Both
    # sides are homogeneous of degree n, so checking n + 1 distinct y at
    # x = 1, in exact Fractions, checks the identity itself.
    for g in [e.graph for e in all_entries()] + random_graphs(range(1, 13), 4):
        counts = stabilizer_weight_counts(g).tolist()
        n = g.n
        assert len(counts) == n + 1, g
        assert sum(counts) == 2**n and counts[0] == 1, g
        for k in range(n + 1):
            y = Fraction(k, n + 1)
            assert 2**n * weight_enumerator(counts, 1, y) == weight_enumerator(
                counts, 1 + 3 * y, 1 - y), g


def test_stabilizer_weight_counts_are_lc_and_relabel_invariant():
    # Local complementation maps |G> to |G * a> by a local Clifford, which
    # keeps every stabilizer element's weight.
    rng = random.Random(29)
    for g in [e.graph for e in all_entries()] + random_graphs(range(2, 13), 2):
        counts = stabilizer_weight_counts(g).tolist()
        for a in range(1, g.n + 1):
            assert stabilizer_weight_counts(local_complement(g, a)).tolist() == counts, (g, a)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        assert stabilizer_weight_counts(relabel(g, perm)).tolist() == counts, (g, perm)


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


def test_side_and_rank_histogram_rejects_catalog_pairs_without_search(monkeypatch):
    # Each pair agrees on cut_rank_histogram, but not on the histogram of
    # (smaller side size, cut-rank) over the cuts; 40 and 42 agree on both.
    def no_search(g, target=None):
        raise AssertionError("searched")

    monkeypatch.setattr(graphs, "_lc_search", no_search)
    for a, b in [(14, 16), (27, 32), (30, 36), (40, 42)]:
        ga, gb = catalog_get(a).graph, catalog_get(b).graph
        assert cut_rank_histogram(ga).tolist() == cut_rank_histogram(gb).tolist()
        if a == 40:
            with pytest.raises(AssertionError, match="searched"):
                are_lc_equivalent(ga, gb)
        else:
            assert not are_lc_equivalent(ga, gb) and not are_lc_equivalent(gb, ga)


def test_lc_inequivalent_different_n():
    assert not are_lc_equivalent(make_graph(2, [(1, 2)]), make_graph(3, [(1, 2)]))


def test_graph_hashable_and_frozen():
    g = make_graph(2, [(1, 2)])
    assert g in {g}
    with pytest.raises(Exception):
        g.n = 3  # type: ignore[misc]
    with pytest.raises(Exception):
        g.adj = (0, 0)  # type: ignore[misc]
