"""Undirected simple graphs on labeled vertices.

A Graph stores one neighbourhood bitmask per vertex (see Graph). Its
sorted edge list, Graph.edges, is derived from them and is read here
only to print, order or count edges. Construction, isomorphism testing,
independence number, GF(2) cut-ranks, local complementation, and
local-complementation orbits modulo isomorphism. Isomorphism goes
through one canonical form, the lexicographically least sorted edge
list, found by an ordered-partition search rather than a scan of the n!
labelings. One breadth-first search serves both the orbit enumeration
(lc_orbit) and the equivalence test (are_lc_equivalent), which stops at
its target. Vertices are 1-indexed everywhere in the public interface.

The cut-rank of a vertex subset A is the rank over GF(2) of the
adjacency block between A and its complement. The graph state |G> has
Tr rho_A^2 = 2^-cutrank(A) (Hein, Eisert, Briegel, PRA 69, 062311
(2004)); cut_rank_histogram gets every purity by counting stabilizer
supports (Fattal et al., quant-ph/0406168). The sum of all those purities
needs only the supports' weights, which stabilizer_weight_counts tallies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

MAX_VERTICES = 16
LC_BUDGET = 10**6


class OrbitBudgetExceeded(RuntimeError):
    """Raised when an LC search would exceed LC_BUDGET representatives."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, stored as neighbourhood bitmasks.

    adj[v - 1] has bit u - 1 set when vertices u and v are adjacent, so
    the vertex count is len(adj) and equal graphs have equal masks. The
    constructor is Graph(adj) and does not validate. There are two
    checked ways in: make_graph for Python pairs, and
    catalog.parse_edge_list for text, whose errors name their line.
    """

    adj: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs (i, j) with i < j, in lexicographic order,
        derived from adj."""
        return tuple((v + 1, u + 1) for v, nb in enumerate(self.adj)
                     for u in range(v + 1, self.n) if nb >> u & 1)

    def __repr__(self):
        pairs = ", ".join(f"{{{i},{j}}}" for i, j in self.edges)
        return f"Graph(n={self.n}, edges=[{pairs}])"


@dataclass(frozen=True)
class LcOrbit:
    """Closure of a graph under local complementation, modulo isomorphism.

    ``representatives`` holds one canonically labeled graph per
    isomorphism class. ``searches`` counts the canonical forms computed,
    the start's included; equality ignores it.
    """

    representatives: frozenset[Graph]
    searches: int = field(default=0, compare=False)

    @property
    def size(self) -> int:
        return len(self.representatives)


def is_int(a) -> bool:
    """True if a is an int but not a bool, the one type a vertex, a
    vertex count, a catalog id or a GemConfig field may have: True
    would otherwise pass as 1."""
    return isinstance(a, int) and not isinstance(a, bool)


def check_label(label, n: int, kind: str = "vertex") -> None:
    """The one rule for vertex and qubit labels: an int, not a bool, in
    1..n. Raises ValueError naming the label as a vertex or a qubit."""
    if not is_int(label) or not 1 <= label <= n:
        raise ValueError(f"{kind} {label!r} out of range for n={n}")


def make_graph(n: int, edges) -> Graph:
    """Build a validated graph from a raw edge list.

    Accepts any iterable of 2-element vertex pairs (tuples, lists or
    sets); duplicate edges collapse and pair order is normalized.
    """
    if not is_int(n) or not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n!r}")
    adj = [0] * n
    for raw in edges:
        try:
            pair = tuple(raw)
        except TypeError:
            pair = ()
        if len(pair) not in (1, 2):
            raise ValueError(f"edge {raw!r} is not a vertex pair")
        i, j = pair[0], pair[-1]
        if not (is_int(i) and is_int(j)):
            raise ValueError(f"edge {raw!r} has non-integer endpoints")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge {raw!r} out of range for n={n}")
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return Graph(tuple(adj))


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighborhood of a.

    Edges incident to a, and edges with an endpoint outside the
    neighborhood, are untouched. Applying the move twice at the same
    vertex returns the original graph.
    """
    check_label(a, g.n)
    return _local_complement(g, a - 1)


def _local_complement(g: Graph, a: int) -> Graph:
    """local_complement at the 0-indexed vertex a, unchecked."""
    nb = g.adj[a]
    # Each neighbour v toggles its adjacency to every other neighbour.
    return Graph(tuple(m ^ (nb & ~(1 << v)) if nb >> v & 1 else m
                       for v, m in enumerate(g.adj)))


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation; perm[v-1] is the image of vertex v."""
    perm = tuple(perm)
    if not all(map(is_int, perm)) or sorted(perm) != list(range(1, g.n + 1)):
        raise ValueError(f"not a bijection on 1..{g.n}: {perm!r}")
    return Graph(_relabel(g.adj, perm))


def _relabel(masks: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """relabel on bare bitmasks (any per-vertex sets), unchecked."""
    image = [1 << (p - 1) for p in perm]
    adj = [0] * len(masks)
    for v, nb in enumerate(masks):
        row = 0  # the images of v's neighbours, taken one low bit at a time
        while nb:
            low = nb & -nb
            row |= image[low.bit_length() - 1]
            nb ^= low
        adj[perm[v] - 1] = row
    return tuple(adj)


def is_connected(g: Graph) -> bool:
    """True if every vertex is reachable from vertex 1."""
    seen = frontier = 1
    while frontier:
        reached = 0
        for v, nb in enumerate(g.adj):
            if frontier >> v & 1:
                reached |= nb
        frontier = reached & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def stabilizer_weight_counts(g: Graph) -> np.ndarray:
    """Entry w counts the stabilizer elements of |G> of weight w, w = 0..n.

    These are the coefficients of the stabilizer weight enumerator. Its
    value at 1/3 gives the sum of every subsystem purity (Shor & Laflamme,
    PRL 78, 1600 (1997); Rains, IEEE TIT 44, 1388 (1998)):
    sum_A Tr rho_A^2 = 2^-n sum_w counts[w] 3^(n - w), with A over all 2^n
    vertex subsets. One popcount over the 2^n supports (_supports) and one
    bincount give every count: about 0.6 ms and 1.1 MB traced peak at
    n = 16.
    """
    return np.bincount(np.bitwise_count(_supports(g, g.n)), minlength=g.n + 1)


def _supports(g: Graph, k: int) -> np.ndarray:
    """The one stabilizer-support builder: entry x is the support x | nbr[x]
    of the element with X on the vertex set x, for the 2^k subsets x of the
    first k vertices, nbr[x] the XOR of x's neighbourhoods (Fattal,
    Cubitt, Yamamoto, Bravyi, Chuang, quant-ph/0406168 (2004)). nbr is
    one XOR of a table over the low k // 2 vertices with one over the rest.
    """
    def xor_table(masks):  # entry y: the XOR of the masks whose bit is set in y
        table = [0]
        for m in masks:
            table += [t ^ m for t in table]
        return np.array(table, dtype=np.int64)

    half = k // 2
    nbr = xor_table(g.adj[half:k])[:, None] ^ xor_table(g.adj[:half])
    return np.arange(1 << k) | nbr.ravel()


def cut_rank_histogram(g: Graph) -> np.ndarray:
    """Entry k counts the cuts of g whose GF(2) cut-rank is k.

    The cuts are the 2^(n-1) - 1 nonempty vertex subsets A that leave
    out vertex n; a subset and its complement have equal cut-rank, so
    these cover every bipartition once. A holds the supports of |S_A| =
    2^(|A| - cutrank(A)) stabilizer elements of |G>. The supports that
    leave out vertex n (_supports) are tallied, and a subset-sum pass
    turns the tallies into every |S_A|. About 2n numpy calls on 2^(n-1)
    int64: 1-2 ms, 1.1 MB traced peak at n = 16. It serves gem's ceiling
    and are_lc_equivalent's invariant. It is not GCM's kernel: the sum of
    the purities needs only the supports' weights (stabilizer_weight_counts).
    """
    return np.bincount(_cut_ranks(g), minlength=1)


def _cut_ranks(g: Graph) -> np.ndarray:
    """Each cut's cut-rank, by the kernel above; cut A is entry A - 1."""
    half = 1 << (g.n - 1)
    count = np.bincount(_supports(g, g.n - 1), minlength=half)[:half]
    for v in range(g.n - 1):
        pairs = count.reshape(-1, 2, 1 << v)
        pairs[:, 1] += pairs[:, 0]
    # |S_A| is a power of two, so its log2 is the popcount of |S_A| - 1.
    return np.bitwise_count(np.arange(1, half)) - np.bitwise_count(count[1:] - 1)


def independence_number(g: Graph) -> int:
    """alpha(g), the size of a largest set of pairwise non-adjacent
    vertices, by branching over vertex bitmasks. The lowest vertex v left
    is taken outright when none of its neighbours is left; otherwise the
    best of taking v (dropping its neighbours) and skipping it is kept.
    Taking v drops at least two vertices and skipping it one, so the
    calls grow at most as the Fibonacci numbers, under 4200 at n = 16.
    """
    def alpha(left: int) -> int:
        if not left:
            return 0
        v = (left & -left).bit_length() - 1
        rest = left & ~(1 << v)
        if not g.adj[v] & rest:
            return 1 + alpha(rest)
        return max(1 + alpha(rest & ~g.adj[v]), alpha(rest))

    return alpha((1 << g.n) - 1)


def _canonical_search(adj: tuple[int, ...]) -> tuple[tuple, tuple[int, ...], list[int]]:
    """The certificate search on bitmasks: the best row of each level, the
    vertex given each label, and each vertex's class of proven equivalents.

    The least sorted edge list is the labeling whose adjacency rows, each
    read over the later labels, are lexicographically greatest in label
    order. Labels are given one at a time from the first cell of an
    ordered partition: labeling u splits every cell into u's neighbours,
    then its non-neighbours, so u's row is its neighbour count per cell,
    and only the candidates with the greatest row go on. A candidate with
    a lower-numbered twin t (N(u) - {t} = N(t) - {u}) in its cell is
    skipped, since swapping twins is an automorphism. The rows fix the
    form and are its certificate, so tied states with equal ordered cells
    (all of them, once every vertex is labeled) give the same form: one is
    kept, and matching its labeled vertices to the other's is an
    automorphism. The classes are the orbits of these and the twin swaps.
    This is the certificate search of individualization-refinement
    (McKay & Piperno, J. Symb. Comput. 60 (2014)).
    """
    n = len(adj)
    # classes[v]: the vertices proven equivalent to v, as a bitmask.
    classes = [1 << v for v in range(n)]

    def join(x: int, y: int) -> None:
        merged = classes[x] | classes[y]
        classes[:] = [merged if merged >> v & 1 else c for v, c in enumerate(classes)]

    # twins[u]: the lower-numbered twins of u, as a bitmask.
    twins = [0] * n
    for u in range(n):
        for t in range(u):
            if adj[u] & ~(1 << t) == adj[t] & ~(1 << u):
                twins[u] |= 1 << t
                join(u, t)
    # Ordered cells (vertex bitmasks) -> the vertices labeled so far.
    states: dict[tuple[int, ...], tuple[int, ...]] = {((1 << n) - 1,): ()}
    certificate = []
    for _ in range(n):
        best_row: tuple[int, ...] = ()
        ties: dict[tuple[int, ...], tuple[int, ...]] = {}
        for cells, labeled in states.items():
            first = cells[0]
            for u in range(n):
                if not first >> u & 1 or first & twins[u]:
                    continue
                nb = adj[u]
                row = tuple([(cell & nb).bit_count() for cell in cells])  # u is not in nb
                if row < best_row:
                    continue
                if row > best_row:
                    best_row, ties = row, {}
                rest = (first & ~(1 << u),) + cells[1:]
                split = tuple([p for cell in rest for p in (cell & nb, cell & ~nb) if p])
                if split in ties:  # a tie with equal cells: an automorphism
                    for x, y in zip(ties[split], labeled + (u,)):
                        if not classes[x] >> y & 1:
                            join(x, y)
                else:
                    ties[split] = labeled + (u,)
        certificate.append(best_row)
        states = ties
    return tuple(certificate), next(iter(states.values())), classes


def _canonical_with_perm(g: Graph, found=None) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """canonical_form(g), its perm and relabeled classes, from found or a fresh search."""
    _, labeling, classes = found or _canonical_search(g.adj)
    perm = tuple(labeling.index(u) + 1 for u in range(g.n))
    return Graph(_relabel(g.adj, perm)), perm, _relabel(tuple(classes), perm)


def canonical_form(g: Graph) -> Graph:
    """A canonical representative of g's isomorphism class: the
    relabeling with the lexicographically least sorted edge list.

    canonical_form(g1) == canonical_form(g2) exactly when the graphs
    are isomorphic, which makes it a dedup key for orbit enumeration.
    At n = 16 random graphs take about 0.2 ms, the cycle 1.2 to 1.5 ms,
    the Clebsch graph about 0.13 s, and the slowest input found, K16
    minus a perfect matching, 1.1 to 1.5 s (shared 2-vCPU VM, Python 3.11).
    """
    return _canonical_with_perm(g)[0]


def _lc_search(g: Graph, target: Graph | None = None) -> tuple[set[Graph], int]:
    """Breadth-first closure of g under local complementation, modulo
    isomorphism: the canonical forms reached, and how many were computed.

    Stops as soon as the canonical form ``target`` is reached, so the
    set holds target exactly when it lies in g's orbit. Raises
    OrbitBudgetExceeded if the set would grow past LC_BUDGET before that.
    LC_BUDGET is read at each call, so a test may patch the module's value.
    Forms are keyed by certificate and built only for a new certificate.
    Moves known to give a form already found are skipped, so forms are
    found in the same order as without them: LC at a vertex of degree 0
    or 1 (the identity), LC back to a parent (LC is an involution), and
    LC at a vertex of a proven class other than its lowest.
    """
    found = _canonical_search(g.adj)
    start, _, classes = _canonical_with_perm(g, found)
    backs = {found[0]: 0}  # each form's certificate -> its moves back to a parent
    forms = {start}
    queue = deque([(found[0], start, classes)])
    searches = 1
    while queue and target not in forms:
        certificate, cur, classes = queue.popleft()
        back = backs[certificate]
        for a in range(cur.n):
            if (cur.adj[a].bit_count() < 2 or classes[a] & back
                    or classes[a] & ((1 << a) - 1)):
                continue
            moved = _local_complement(cur, a)
            found = certificate, labeling, _ = _canonical_search(moved.adj)
            searches += 1
            if certificate in backs:
                backs[certificate] |= 1 << labeling.index(a)
                continue
            nxt, _, nxt_classes = _canonical_with_perm(moved, found)
            if nxt != target and len(backs) >= LC_BUDGET:
                raise OrbitBudgetExceeded(
                    f"orbit exceeds budget of {LC_BUDGET} representatives"
                )
            backs[certificate] = 1 << labeling.index(a)
            forms.add(nxt)
            if nxt == target:
                break
            queue.append((certificate, nxt, nxt_classes))
    return forms, searches


def lc_orbit(g: Graph) -> LcOrbit:
    """Closure of g under local complementation, modulo isomorphism.

    Raises OrbitBudgetExceeded if the closure would grow past LC_BUDGET
    representatives.
    """
    reps, searches = _lc_search(g)
    return LcOrbit(frozenset(reps), searches)


def are_lc_equivalent(g1: Graph, g2: Graph) -> bool:
    """True if a sequence of local complementations links the two graphs,
    up to relabeling of vertices. Symmetric in its arguments.

    Cut-rank is invariant under local complementation (Bouchet 1988;
    Oum, JCTB 95 (2005)), so graphs whose histograms of (smaller side
    size, cut-rank) over the cuts differ are rejected without a search.
    Otherwise g1's orbit is searched until it reaches g2, so LC_BUDGET
    binds only when g2 is not reached first.
    """
    if g1.n != g2.n:
        return False
    size = np.bitwise_count(np.arange(1, 1 << (g1.n - 1)))
    key = np.minimum(size, g1.n - size) * g1.n  # a cut-rank is at most this side, so below n
    if np.bincount(key + _cut_ranks(g1)).tolist() != np.bincount(key + _cut_ranks(g2)).tolist():
        return False
    target = canonical_form(g2)
    return target in _lc_search(g1, target)[0]
