"""Built-in catalog of the 45 canonical connected graphs on 2..7 vertices.

One representative per equivalence class under isomorphism combined
with local complementation. Each entry carries the published reference
values of both measures; these are test fixtures, not computed truth.
Also home to the plain-text edge-list format used by the CLI and the
exported corpus. Its reader, parse_edge_list, is the checked way in for
text, whose errors name their line; make_graph is the one for Python
pairs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from graphent.graphs import MAX_VERTICES, Graph, is_int, make_graph

# id: (n, edges, reference gcm, reference gem)
_TABLE = {
    1: (2, ((1, 2),), 1.00000, 0.50000),
    2: (3, ((1, 2), (1, 3)), 1.22474, 0.50000),
    3: (4, ((1, 2), (1, 3), (1, 4)), 1.32288, 0.50000),
    4: (4, ((1, 2), (2, 3), (3, 4)), 1.41421, 0.75000),
    5: (5, ((1, 2), (1, 3), (1, 4), (1, 5)), 1.36931, 0.50000),
    6: (5, ((1, 2), (2, 3), (3, 4), (2, 5)), 1.50000, 0.75000),
    7: (5, ((1, 2), (2, 3), (3, 4), (4, 5)), 1.54110, 0.75000),
    8: (5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)), 1.58114, 0.86855),
    9: (6, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6)), 1.39194, 0.50000),
    10: (6, ((1, 6), (2, 6), (3, 6), (4, 5), (5, 6)), 1.54110, 0.75000),
    11: (6, ((1, 6), (2, 6), (3, 5), (4, 5), (5, 6)), 1.58114, 0.75000),
    12: (6, ((1, 2), (2, 3), (3, 4), (4, 5), (2, 6)), 1.60078, 0.75000),
    13: (6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)), 1.62019, 0.87500),
    14: (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)), 1.63936, 0.87500),
    15: (6, ((1, 6), (2, 4), (3, 4), (4, 5), (5, 6), (3, 6)), 1.62019, 0.75000),
    16: (6, ((1, 2), (2, 3), (3, 4), (4, 5), (2, 4), (3, 6)), 1.63936, 0.87500),
    17: (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6)), 1.65831, 0.87500),
    18: (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)), 1.67705, 0.87500),
    19: (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 3), (4, 6), (2, 5)),
         1.69558, 0.91667),
    20: (7, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)), 1.40312, 0.50000),
    21: (7, ((1, 7), (2, 7), (3, 7), (4, 7), (5, 6), (6, 7)), 1.56125, 0.75000),
    22: (7, ((1, 7), (2, 7), (3, 7), (4, 6), (5, 6), (6, 7)), 1.62019, 0.75000),
    23: (7, ((1, 7), (2, 7), (3, 7), (4, 5), (5, 6), (6, 7)), 1.62980, 0.75000),
    24: (7, ((1, 7), (2, 7), (3, 5), (4, 5), (5, 6), (6, 7)), 1.64886, 0.75000),
    25: (7, ((1, 2), (1, 7), (3, 7), (4, 7), (5, 6), (6, 7)), 1.65831, 0.87500),
    26: (7, ((1, 7), (2, 7), (3, 6), (4, 5), (5, 6), (6, 7)), 1.67705, 0.87500),
    27: (7, ((1, 2), (2, 7), (2, 3), (4, 3), (5, 4), (6, 5)), 1.68634, 0.87500),
    28: (7, ((1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (6, 7)), 1.69558, 0.87500),
    29: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)), 1.70477, 0.87500),
    30: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)), 1.71391, 0.87500),
    31: (7, ((2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (1, 3), (6, 3)), 1.65831, 0.75000),
    32: (7, ((1, 7), (2, 7), (3, 6), (4, 5), (5, 6), (6, 7), (5, 7)), 1.68634, 0.87500),
    33: (7, ((2, 3), (3, 4), (4, 5), (6, 5), (7, 6), (3, 7), (1, 3)), 1.69558, 0.87500),
    34: (7, ((2, 3), (3, 4), (4, 5), (6, 5), (7, 6), (3, 6), (1, 4)), 1.70477, 0.87500),
    35: (7, ((2, 3), (3, 4), (4, 5), (6, 5), (7, 6), (3, 7), (1, 6)), 1.71391, 0.87500),
    36: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7), (3, 5)), 1.71391, 0.87500),
    37: (7, ((1, 7), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)), 1.72301, 0.87500),
    38: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 6)), 1.73205, 0.87500),
    39: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 5)), 1.73205, 0.93428),
    40: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)), 1.75000, 0.93750),
    41: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 5), (1, 6)),
         1.74105, 0.93428),
    42: (7, ((1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7), (2, 6)),
         1.75000, 0.93750),
    43: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (1, 4), (3, 6), (1, 7)),
         1.75000, 0.87500),
    44: (7, ((1, 4), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7), (2, 7), (3, 5)),
         1.75891, 0.93750),
    45: (7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7), (2, 7), (2, 5),
             (4, 6)), 1.75000, 0.93428),
}


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog graph by its id, with the published GCM and GEM values
    as reference fixtures (None for an entry built without them)."""

    id: int
    graph: Graph
    expected_gcm: float | None = None
    expected_gem: float | None = None

    @property
    def n(self) -> int:
        return self.graph.n


def catalog_size() -> int:
    """Number of catalog entries; ids run 1..catalog_size()."""
    return len(_TABLE)


# The entries, built and validated once; CatalogEntry and Graph are frozen.
_ENTRIES = {i: CatalogEntry(i, make_graph(n, edges), ref_gcm, ref_gem)
            for i, (n, edges, ref_gcm, ref_gem) in sorted(_TABLE.items())}


def catalog_get(graph_id: int) -> CatalogEntry:
    """Entry by 1-based id; raises for ids outside 1..45 and for a
    non-int id, such as True or 1.0, which would otherwise hash to 1."""
    if not is_int(graph_id) or graph_id not in _ENTRIES:
        raise ValueError(f"catalog id must be in 1..{len(_TABLE)}, got {graph_id!r}")
    return _ENTRIES[graph_id]


def all_entries() -> list[CatalogEntry]:
    """All 45 entries in id order, as a new list on each call."""
    return list(_ENTRIES.values())


def _digits(token: str) -> int:
    """The int a token of ASCII digits spells. Raises ValueError for any
    other token, such as -1, +2, 1_0 or full-width digits, which int()
    would accept, and for one too long for int() to read."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Graph from the plain-text edge format.

    One edge per line as two whitespace-separated 1-indexed integers,
    each written in plain ASCII digits.
    Lines starting with `#` are comments; blank lines are skipped. An
    optional `n <count>` header fixes the vertex count, else the largest
    index seen (at most MAX_VERTICES). Errors carry the line number.
    """
    edges = []
    n_header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "n":
            if n_header is not None:
                raise ValueError(f"line {lineno}: duplicate n header")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'n <count>', got {raw!r}")
            try:
                n_header = _digits(parts[1])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: vertex count {parts[1]!r} is not an integer"
                ) from None
            if n_header < 1:
                raise ValueError(f"line {lineno}: vertex count must be positive")
            if n_header > MAX_VERTICES:
                raise ValueError(f"line {lineno}: vertex count {n_header} exceeds {MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected two vertex indices, got {raw!r}"
            )
        try:
            i, j = _digits(parts[0]), _digits(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if i < 1 or j < 1:
            raise ValueError(f"line {lineno}: vertex indices must be >= 1")
        if i == j:
            raise ValueError(f"line {lineno}: self-loop at vertex {i}")
        edges.append((i, j, lineno))
    if n_header is None:
        if not edges:
            raise ValueError("empty edge list and no n header")
        n_header = min(max(max(i, j) for i, j, _ in edges), MAX_VERTICES)
    adj = [0] * n_header
    for i, j, lineno in edges:
        if max(i, j) > n_header:
            raise ValueError(f"line {lineno}: edge ({i}, {j}) out of range for n={n_header}")
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return Graph(tuple(adj))


def serialize_edge_list(g: Graph) -> str:
    """Text form of a graph; always includes the n header so isolated
    vertices survive a round-trip."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def export_corpus(dest_dir: str) -> None:
    """Write gNN.edges files plus an index.json manifest."""
    os.makedirs(dest_dir, exist_ok=True)
    index = []
    for entry in all_entries():
        name = f"g{entry.id:02d}.edges"
        with open(os.path.join(dest_dir, name), "w") as fh:
            fh.write(serialize_edge_list(entry.graph))
        index.append(
            {
                "id": entry.id,
                "n": entry.n,
                "edge_count": len(entry.graph.edges),
                "file": name,
                "expected_gcm": entry.expected_gcm,
                "expected_gem": entry.expected_gem,
            }
        )
    with open(os.path.join(dest_dir, "index.json"), "w") as fh:
        json.dump(index, fh, indent=2)
        fh.write("\n")
