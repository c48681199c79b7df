"""Undirected simple graphs on labeled vertices.

Construction, isomorphism testing, local complementation, and
local-complementation orbits modulo isomorphism. One breadth-first
search serves both the orbit enumeration (lc_orbit) and the
equivalence test (are_lc_equivalent), which stops at its target.
Vertices are 1-indexed everywhere in the public interface.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_VERTICES = 16

# Full permutation arrays are cached up to this vertex count; beyond it
# permutations are streamed in chunks to bound memory.
_PERM_CACHE_CAP = 9
_PERM_CHUNK = 200_000


class OrbitBudgetExceeded(RuntimeError):
    """Raised when an orbit enumeration would exceed its size budget."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a canonical edge tuple.

    Edges are stored with each pair sorted and the pairs sorted
    lexicographically. Build instances through make_graph, which
    validates and normalizes raw edge lists.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __repr__(self):
        pairs = ", ".join(f"{{{i},{j}}}" for i, j in self.edges)
        return f"Graph(n={self.n}, edges=[{pairs}])"


@dataclass(frozen=True)
class LcOrbit:
    """Closure of a graph under local complementation, modulo isomorphism.

    ``representatives`` holds one canonically labeled graph per
    isomorphism class.
    """

    representatives: frozenset[Graph]

    @property
    def size(self) -> int:
        return len(self.representatives)

    def sorted_representatives(self) -> list[Graph]:
        """Representatives in a deterministic order (by edge tuple)."""
        return sorted(self.representatives, key=lambda g: (g.n, g.edges))


def make_graph(n: int, edges) -> Graph:
    """Build a validated, canonically stored graph.

    Accepts any iterable of 2-element vertex pairs (tuples, lists or
    sets); duplicate edges collapse and pair order is normalized.
    """
    if not isinstance(n, int) or not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n!r}")
    normalized = set()
    for raw in edges:
        pair = tuple(raw)
        if len(pair) == 1:
            pair = (pair[0], pair[0])
        if len(pair) != 2:
            raise ValueError(f"edge {raw!r} is not a vertex pair")
        i, j = pair
        if not (isinstance(i, int) and isinstance(j, int)):
            raise ValueError(f"edge {raw!r} has non-integer endpoints")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge {raw!r} out of range for n={n}")
        normalized.add((min(i, j), max(i, j)))
    return Graph(n, tuple(sorted(normalized)))


def neighbors(g: Graph, a: int) -> set[int]:
    """All vertices adjacent to a."""
    _check_vertex(g, a)
    out = set()
    for i, j in g.edges:
        if i == a:
            out.add(j)
        elif j == a:
            out.add(i)
    return out


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighborhood of a.

    Edges incident to a, and edges with an endpoint outside the
    neighborhood, are untouched. Applying the move twice at the same
    vertex returns the original graph.
    """
    nb = sorted(neighbors(g, a))
    edge_set = set(g.edges)
    for u, v in itertools.combinations(nb, 2):
        pair = (u, v)
        if pair in edge_set:
            edge_set.remove(pair)
        else:
            edge_set.add(pair)
    return Graph(g.n, tuple(sorted(edge_set)))


def relabel(g: Graph, perm) -> Graph:
    """Apply a vertex permutation; perm[v-1] is the image of vertex v."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, g.n + 1)):
        raise ValueError(f"not a bijection on 1..{g.n}: {perm!r}")
    edges = tuple(
        sorted(
            (min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1]))
            for i, j in g.edges
        )
    )
    return Graph(g.n, edges)


def is_connected(g: Graph) -> bool:
    """True if every vertex is reachable from vertex 1."""
    if g.n == 1:
        return True
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
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


def degree_sequence(g: Graph) -> tuple[int, ...]:
    deg = [0] * g.n
    for i, j in g.edges:
        deg[i - 1] += 1
        deg[j - 1] += 1
    return tuple(sorted(deg))


@lru_cache(maxsize=8)
def _perm_array(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


@lru_cache(maxsize=8)
def _pair_weight(n: int) -> np.ndarray:
    # W[u, v] is the bit weight of the unordered 0-indexed pair {u, v},
    # with pair (0,1) most significant so that the maximal bitmask is
    # the lexicographically least sorted edge list.
    k = n * (n - 1) // 2
    w = np.zeros((n, n), dtype=np.int64)
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            w[u, v] = w[v, u] = 1 << (k - 1 - idx)
            idx += 1
    return w


def _bitmask_for_perms(g: Graph, perms: np.ndarray) -> np.ndarray:
    w = _pair_weight(g.n)
    masks = np.zeros(len(perms), dtype=np.int64)
    for i, j in g.edges:
        masks += w[perms[:, i - 1], perms[:, j - 1]]
    return masks


def _canonical_with_perm(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Canonical relabeling of g plus the permutation achieving it.

    The canonical form has the lexicographically least sorted edge list
    over all vertex relabelings. Exhaustive over n! permutations, so
    intended for n up to about 10.
    """
    identity = tuple(range(1, g.n + 1))
    if not g.edges:
        return g, identity
    if g.n <= _PERM_CACHE_CAP:
        perms = _perm_array(g.n)
        masks = _bitmask_for_perms(g, perms)
        best = int(np.argmax(masks))
        best_perm = perms[best]
    else:
        best_mask = -1
        best_perm = None
        it = itertools.permutations(range(g.n))
        while True:
            chunk = np.array(list(itertools.islice(it, _PERM_CHUNK)), dtype=np.int64)
            if chunk.size == 0:
                break
            masks = _bitmask_for_perms(g, chunk)
            i = int(np.argmax(masks))
            if masks[i] > best_mask:
                best_mask = int(masks[i])
                best_perm = chunk[i]
    perm = tuple(int(x) + 1 for x in best_perm)
    return relabel(g, perm), perm


def canonical_form(g: Graph) -> Graph:
    """A canonical representative of g's isomorphism class.

    canonical_form(g1) == canonical_form(g2) exactly when the graphs
    are isomorphic, which makes it a dedup key for orbit enumeration.
    """
    return _canonical_with_perm(g)[0]


def find_isomorphism(g1: Graph, g2: Graph) -> tuple[int, ...] | None:
    """An edge-preserving bijection from g1's vertices onto g2's, or None.

    The witness f is returned as a tuple with f(v) = perm[v-1];
    relabel(g1, perm) == g2 holds whenever a witness is found.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    c1, p1 = _canonical_with_perm(g1)
    c2, p2 = _canonical_with_perm(g2)
    if c1.edges != c2.edges:
        return None
    inv2 = [0] * g2.n
    for v in range(1, g2.n + 1):
        inv2[p2[v - 1] - 1] = v
    return tuple(inv2[p1[v - 1] - 1] for v in range(1, g1.n + 1))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """True if some bijection maps one edge set exactly onto the other."""
    return find_isomorphism(g1, g2) is not None


def _lc_search(g: Graph, max_size: int, target: Graph | None = None) -> set[Graph]:
    """Breadth-first closure of g under local complementation, modulo
    isomorphism: the canonical forms reached.

    Stops as soon as the canonical form ``target`` is reached, so the
    set holds target exactly when it lies in g's orbit. Raises
    OrbitBudgetExceeded if the set would grow past max_size before that.
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


def lc_orbit(g: Graph, max_size: int = 10**6) -> LcOrbit:
    """Closure of g under local complementation, modulo isomorphism.

    Raises OrbitBudgetExceeded if the closure would grow past max_size
    representatives.
    """
    return LcOrbit(frozenset(_lc_search(g, max_size)))


def are_lc_equivalent(g1: Graph, g2: Graph, max_size: int = 10**6) -> bool:
    """True if a sequence of local complementations links the two graphs,
    up to relabeling of vertices. Symmetric in its arguments.

    Searches g1's orbit and stops on reaching g2, so max_size binds only
    when g2 is not reached first.
    """
    if g1.n != g2.n:
        return False
    target = canonical_form(g2)
    return target in _lc_search(g1, max_size, target)


def _check_vertex(g: Graph, a) -> None:
    if not isinstance(a, int) or not 1 <= a <= g.n:
        raise ValueError(f"vertex {a!r} out of range for n={g.n}")
