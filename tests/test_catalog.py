"""Catalog data integrity and edge-list format tests."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from graphent import catalog, cli, graphs
from graphent.catalog import (
    all_entries,
    catalog_get,
    catalog_size,
    export_corpus,
    parse_edge_list,
    serialize_edge_list,
)
from graphent.graphs import canonical_form, is_connected, make_graph


def test_catalog_size():
    assert catalog_size() == 45
    assert len(all_entries()) == 45


def test_catalog_get_bounds():
    with pytest.raises(ValueError):
        catalog_get(0)
    with pytest.raises(ValueError):
        catalog_get(46)
    assert catalog_get(1).id == 1
    # True and 1.0 hash as 1, so they used to return entry 1.
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            catalog_get(bad)


def test_all_entries_returns_a_fresh_list():
    # The entries are built once; callers may extend or clear the list.
    entries = all_entries()
    assert [e.id for e in entries] == list(range(1, 46))
    assert all(e is catalog_get(e.id) for e in entries)
    entries.pop()
    entries.append(entries[0])
    entries.clear()
    assert [e.id for e in all_entries()] == list(range(1, 46))


def test_known_entries():
    assert catalog_get(4).graph.edges == ((1, 2), (2, 3), (3, 4))
    e19 = catalog_get(19).graph.edges
    assert len(e19) == 9
    assert (2, 5) in e19
    assert len(catalog_get(45).graph.edges) == 10


def test_bucket_counts():
    counts = Counter(e.n for e in all_entries())
    assert counts == {2: 1, 3: 1, 4: 2, 5: 4, 6: 11, 7: 26}
    # id ranges per vertex count
    ids = {n: [e.id for e in all_entries() if e.n == n] for n in counts}
    assert ids == {2: [1], 3: [2], 4: [3, 4], 5: [5, 6, 7, 8],
                   6: list(range(9, 20)), 7: list(range(20, 46))}


def test_all_connected():
    for e in all_entries():
        assert is_connected(e.graph), f"graph {e.id} is disconnected"


def test_pairwise_non_isomorphic():
    forms = [canonical_form(e.graph) for e in all_entries()]
    assert len(set(forms)) == 45


def test_reference_values_present():
    for e in all_entries():
        assert e.expected_gcm is not None and e.expected_gcm >= 1.0
        assert e.expected_gem is not None and 0.0 < e.expected_gem < 1.0


def test_parse_edge_list_basic():
    g = parse_edge_list("1 2\n1 3\n")
    assert g == catalog_get(2).graph


def test_parse_edge_list_header_and_comments():
    g = parse_edge_list("# a comment\nn 5\n1 2\n\n")
    assert g.n == 5
    assert g.edges == ((1, 2),)


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("1 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("1 2\n1 2 3\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("# c\n1 2\nx 2\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("n 4\nn 5\n")
    for header in ("n", "n 3 4", "n x", "n 0", "n 17"):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list(header + "\n1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("n 2\n1 3\n")  # edge outside header count
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("1 2\n1 17\n")  # no header, past MAX_VERTICES
    with pytest.raises(ValueError):
        parse_edge_list("0 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("# nothing\n")
    # int() reads all of these, but a token must be plain ASCII digits;
    # a 5000-digit one is past what int() reads.
    for edge in ("1 1_0", "\uff11 \uff12", "-1 2", "1 +2", "1 \u00b2", "1 " + "9" * 5000):
        with pytest.raises(ValueError, match="line 2: non-integer vertex"):
            parse_edge_list("# c\n" + edge + "\n")
    for count in ("1_6", "\uff13", "+3", "9" * 5000):
        with pytest.raises(ValueError, match="line 1: vertex count .* is not an integer"):
            parse_edge_list(f"n {count}\n1 2\n")


def test_parse_edge_list_builds_its_graph_without_make_graph(monkeypatch):
    # The reader checks each edge once and builds the masks itself.
    expected = [e.graph for e in all_entries()]
    texts = [serialize_edge_list(g) for g in expected]

    def refuse(*args):
        raise AssertionError("parse_edge_list called make_graph")

    monkeypatch.setattr(catalog, "make_graph", refuse)
    monkeypatch.setattr(graphs, "make_graph", refuse)
    assert [parse_edge_list(t) for t in texts] == expected
    assert parse_edge_list("1 2\n2 3").edges == ((1, 2), (2, 3))
    assert parse_edge_list("n 4\n3 1").adj == (0b100, 0, 0b1, 0)
    assert parse_edge_list("n 1").adj == (0,)


def _edge_text(rng: random.Random, n: int, pairs: list) -> str:
    """One text spelling pairs: each pair either way round, some twice,
    with comments, blank lines, stray blanks, an n header first, last or
    (when vertex n has an edge) absent, and LF or CRLF line ends."""
    lines = []
    for i, j in pairs:
        for _ in range(rng.choice((1, 1, 2))):
            a, b = (i, j) if rng.random() < 0.5 else (j, i)
            lines.append(rng.choice(("{} {}", " {}\t{} ", "{}  {}")).format(a, b))
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "   ", "# a comment", "  #x 1 2")))
    rng.shuffle(lines)
    header = f"n {n}"
    placement = rng.choice(("first", "last", "none"))
    if placement == "none" and not any(n in p for p in pairs):
        placement = "first"
    if placement == "first":
        lines.insert(0, header)
    elif placement == "last":
        lines.append(header)
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))


def test_parse_edge_list_matches_make_graph_on_random_texts():
    rng = random.Random(20260)
    for n in range(1, 17):
        every = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for _ in range(40):
            pairs = rng.sample(every, rng.randint(0, len(every)))
            text = _edge_text(rng, n, pairs)
            assert parse_edge_list(text) == make_graph(n, pairs), repr(text)
    # A header keeps an isolated top vertex that no edge names.
    assert parse_edge_list("1 2\r\nn 3\r\n") == make_graph(3, [(1, 2)])


# Which error fires first: token, zero-vertex and self-loop errors in
# line order as lines are read; range errors after the last line, so a
# trailing header still applies.
PRECEDENCE = [
    ("1 1\nx 2", "line 1: self-loop at vertex 1"),
    ("n 2\n1 3\nx 2", "line 3: non-integer vertex in 'x 2'"),
    ("1 3\nn 2", "line 1: edge (1, 3) out of range for n=2"),
    ("0 2\n1 1", "line 1: vertex indices must be >= 1"),
]


@pytest.mark.parametrize("text, message", PRECEDENCE)
def test_parse_edge_list_error_precedence(text, message):
    with pytest.raises(ValueError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", PRECEDENCE)
def test_cli_reports_edge_errors_in_the_same_order(capsys, text, message):
    assert cli.main(["gcm", "--edges", text.replace("\n", ",")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_serialize_round_trips():
    for gid in (1, 19, 45):
        g = catalog_get(gid).graph
        assert parse_edge_list(serialize_edge_list(g)) == g
    # isolated vertices survive because the header is always written
    g = make_graph(6, [(1, 2)])
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_serialize_format():
    text = serialize_edge_list(make_graph(3, [(1, 2), (2, 3)]))
    assert text == "n 3\n1 2\n2 3\n"


def test_export_corpus(tmp_path):
    dest = tmp_path / "corpus"
    export_corpus(str(dest))
    index = json.loads((dest / "index.json").read_text())
    assert len(index) == 45
    for row in index:
        entry = catalog_get(row["id"])
        assert row["n"] == entry.n
        assert row["edge_count"] == len(entry.graph.edges)
        assert row["expected_gcm"] == entry.expected_gcm
        assert row["expected_gem"] == entry.expected_gem
        parsed = parse_edge_list((dest / row["file"]).read_text())
        assert parsed == entry.graph
    # The checked-in catalog/ directory is exactly what export_corpus writes.
    checked_in = Path(__file__).resolve().parent.parent / "catalog"
    written = sorted(p.name for p in dest.iterdir())
    assert written == sorted(p.name for p in checked_in.iterdir())
    for name in written:
        assert (dest / name).read_bytes() == (checked_in / name).read_bytes(), name
