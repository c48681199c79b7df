"""CLI tests driven through main() plus one end-to-end subprocess check."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from graphent import cli, graphs
from graphent.catalog import CatalogEntry, all_entries, catalog_get, serialize_edge_list
from graphent.cli import main
from graphent.graphs import make_graph


README = Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_state_text(capsys):
    code, out, _ = run(capsys, "state", "--graph", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "|00>  +0.50000  +0.00000"
    assert lines[3] == "|11>  -0.50000  +0.00000"


def test_state_json(capsys):
    code, out, _ = run(capsys, "state", "--graph", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["amplitudes"] == [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [-0.5, 0.0]]


def test_state_inline_equals_catalog(capsys):
    _, out1, _ = run(capsys, "state", "--graph", "1")
    _, out2, _ = run(capsys, "state", "--edges", "1 2")
    assert out1 == out2


def test_bad_catalog_id(capsys):
    code, _, err = run(capsys, "state", "--graph", "99")
    assert code == 1
    assert "error" in err


def test_requires_exactly_one_source(capsys):
    # Each graph's sources form a required mutually exclusive group, so a
    # missing or doubled source is a usage error, as for equiv's second graph.
    for argv, message in (
        (["state"], "one of the arguments --graph --edges --file is required"),
        (["state", "--graph", "1", "--edges", "1 2"],
         "argument --edges: not allowed with argument --graph"),
        (["equiv", "--graph", "1"],
         "one of the arguments --graph2 --edges2 --file2 is required"),
        (["equiv", "--graph", "1", "--graph2", "1", "--file2", "g.txt"],
         "argument --file2: not allowed with argument --graph2"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_gcm_command(capsys):
    code, out, _ = run(capsys, "gcm", "--graph", "2")
    assert code == 0
    assert out == "GCM = 1.22474\n"


def test_gem_command(capsys):
    code, out, _ = run(capsys, "gem", "--graph", "2", "--seed", "1")
    assert code == 0
    assert out == "GEM = 0.50000\n"


def test_gem_json_diagnostics(capsys):
    code, out, _ = run(capsys, "gem", "--graph", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["measure"] == "GEM"
    assert list(payload["diagnostics"]) == [
        "restarts_used", "best_restart_index", "iterations", "converged",
        "best_fidelity", "degenerate_redraws", "restarts_at_best",
    ]
    assert payload["diagnostics"]["restarts_used"] == 64


@pytest.mark.parametrize("command", [["gem", "--graph", "1"],
                                     ["classify", "--measure", "gcm"], ["rp-table"]],
                         ids=["gem", "classify", "rp-table"])
def test_tolerances_are_not_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


def test_lc_command(capsys):
    code, out, _ = run(capsys, "lc", "--edges", "1 2,1 3,2 3", "--vertex", "1")
    assert code == 0
    assert out == "1 2,1 3\n"


def test_lc_json(capsys):
    code, out, _ = run(capsys, "lc", "--graph", "3", "--vertex", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert len(payload["edges"]) == 6


@pytest.mark.parametrize("edges, top", [("n 3,1 2", "3"), ("n 2", "2")])
@pytest.mark.parametrize("command", ["lc", "orbit"])
def test_text_output_parses_back_with_isolated_top_vertex(capsys, edges, top, command):
    # LC at the isolated vertex n is the identity, and every member of an
    # orbit has that orbit, so the printed graph, read back, gives the
    # same JSON; without its n header it would read back with fewer vertices.
    argv = ("lc", "--vertex", top) if command == "lc" else ("orbit",)
    _, out, _ = run(capsys, *argv, "--edges", edges)
    printed = out.splitlines()[-1]
    assert (run(capsys, *argv, "--edges", printed, "--format", "json")
            == run(capsys, *argv, "--edges", edges, "--format", "json"))


def test_orbit_single_edge(capsys):
    code, out, _ = run(capsys, "orbit", "--graph", "1")
    assert code == 0
    assert out.splitlines()[0] == "orbit size: 1"


def test_orbit_star4(capsys):
    code, out, _ = run(capsys, "orbit", "--graph", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2


def test_orbit_budget_error(capsys, monkeypatch):
    monkeypatch.setattr(graphs, "LC_BUDGET", 2)
    code, _, err = run(capsys, "orbit", "--graph", "30")
    assert code == 1
    assert "budget" in err


def test_equiv_inequivalent(capsys):
    code, out, _ = run(capsys, "equiv", "--graph", "3", "--graph2", "4")
    assert code == 0
    assert out == "inequivalent\n"


def test_equiv_equivalent_relabeled(capsys):
    code, out, _ = run(capsys, "equiv", "--edges", "1 2,2 3", "--edges2", "2 1,1 3")
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_stops_at_target_within_budget(capsys, monkeypatch):
    # Graph 30 complemented at vertex 3 is reached before the budget binds.
    monkeypatch.setattr(graphs, "LC_BUDGET", 2)
    code, out, _ = run(capsys, "equiv", "--graph", "30", "--edges2",
                       "1 2,2 3,2 4,3 4,4 5,5 6,6 7")
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_budget_error(capsys, monkeypatch):
    # 30 and 36 have equal cut-rank histograms, so only the search can
    # tell them apart, and the budget binds first.
    monkeypatch.setattr(graphs, "LC_BUDGET", 2)
    code, _, err = run(capsys, "equiv", "--graph", "30", "--graph2", "36")
    assert code == 1
    assert "budget" in err


def test_equiv_cut_rank_reject_needs_no_budget(capsys, monkeypatch):
    # 30 and 29 differ in cut-rank histogram, an LC invariant.
    monkeypatch.setattr(graphs, "LC_BUDGET", 2)
    code, out, _ = run(capsys, "equiv", "--graph", "30", "--graph2", "29")
    assert code == 0
    assert out == "inequivalent\n"


def test_orbit_c10_within_budget(capsys):
    edges = ",".join(f"{v} {v % 10 + 1}" for v in range(1, 11))
    start = time.perf_counter()
    code, out, _ = run(capsys, "orbit", "--edges", edges)
    assert code == 0
    assert out.splitlines()[0] == "orbit size: 1206"
    assert time.perf_counter() - start < 10.0


def test_gcm_cycle_at_max_vertices_within_budget(capsys):
    edges = ",".join(f"{v} {v % 16 + 1}" for v in range(1, 17))
    start = time.perf_counter()
    code, out, _ = run(capsys, "gcm", "--edges", edges)
    assert code == 0
    assert out.startswith("GCM = ")
    assert time.perf_counter() - start < 2.0


def test_gem_cycle_at_max_vertices_within_budget(capsys):
    # The independent-set floor meets the cut-rank ceiling at 2^-8.
    edges = ",".join(f"{v} {v % 16 + 1}" for v in range(1, 17))
    start = time.perf_counter()
    code, out, _ = run(capsys, "gem", "--edges", edges)
    assert code == 0
    assert out == "GEM = 0.99609\n"
    assert time.perf_counter() - start < 5.0


def test_gem_cycle_at_max_vertices_from_bounds(capsys):
    # alpha(C16) = 8 equals its max cut-rank: no statevector, no sweep.
    edges = ",".join(f"{v} {v % 16 + 1}" for v in range(1, 17))
    start = time.perf_counter()
    assert run(capsys, "gem", "--edges", edges) == (0, "GEM = 0.99609\n", "")
    assert time.perf_counter() - start < 0.5
    payload = json.loads(run(capsys, "gem", "--edges", edges, "--format", "json")[1])
    assert payload["diagnostics"]["iterations"] == 0
    assert payload["diagnostics"]["restarts_used"] == 0


def test_consecutive_calls_do_not_share_flags(capsys):
    # The parser is built once per process; each call parses afresh.
    seeded = run(capsys, "gem", "--graph", "40", "--seed", "3", "--format", "json")
    assert run(capsys, "gcm", "--graph", "2") == (0, "GCM = 1.22474\n", "")
    default = run(capsys, "gem", "--graph", "40", "--format", "json")
    explicit = run(capsys, "gem", "--graph", "40", "--seed", "0", "--format", "json")
    assert default == explicit != seeded


def test_file_input(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(serialize_edge_list(catalog_get(4).graph))
    code, out, _ = run(capsys, "gcm", "--file", str(path))
    assert code == 0
    assert out == "GCM = 1.41421\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "gcm", "--file", "/nonexistent/path.edges")
    assert code == 1
    assert "error" in err


def test_out_flag(tmp_path, capsys):
    dest = tmp_path / "out.txt"
    code, out, _ = run(capsys, "gcm", "--graph", "1", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text() == "GCM = 1.00000\n"


def test_classify_gcm_json(capsys):
    code, out, _ = run(capsys, "classify", "--measure", "gcm", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 27
    assert payload["cumulative"] == {"eta_measure": 27, "eta_kappa": 45, "rp": 60.0}


def test_classify_text_has_fraction(capsys):
    code, out, _ = run(capsys, "classify", "--measure", "gcm")
    assert code == 0
    assert "60.00 (3/5)" in out


def test_classify_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        code = main(["classify", "--measure", "gem", "--seed", "7",
                     "--format", "json", "--out", str(dest)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_rp_table_csv(capsys):
    code, out, _ = run(capsys, "rp-table", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,eta_gcm,eta_gem,eta_kappa,rp_gcm,rp_gem"
    assert lines[-1].startswith("all,")


def test_verify_catalog(capsys):
    code, out, _ = run(capsys, "verify-catalog")
    assert code == 0
    assert "catalog OK" in out
    assert out.count("PASS") == 5
    code, out, _ = run(capsys, "verify-catalog", "--format", "json")
    assert code == 0
    details = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert details["connected"] == "45/45"
    assert details["pairwise-non-isomorphic"] == "990/990 pairs distinct"
    assert details["lc-pairwise"] == "990/990 pairs disjoint"


def test_removed_flags_exit_2(capsys):
    # The LC-pairwise check always runs, so neither its old flag nor the
    # budget it once took is an option. Every LC search stops at the
    # fixed graphs.LC_BUDGET, so orbit and equiv take no budget either,
    # and the see-saw always runs GemConfig's default restart count.
    for argv, extra in [
        (["verify-catalog"], ["--budget", "5"]),
        (["verify-catalog"], ["--lc-pairwise"]),
        (["orbit", "--graph", "30"], ["--budget", "5"]),
        (["equiv", "--graph", "30", "--graph2", "36"], ["--budget", "5"]),
        (["gem", "--graph", "40"], ["--restarts", "5"]),
        (["classify", "--measure", "gem"], ["--restarts", "5"]),
        (["rp-table"], ["--restarts", "5"]),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_cli_option_inventory():
    # Every option of every subcommand, so that adding or dropping a knob
    # shows up as a change to this dict.
    want = {
        "state": ["--graph", "--edges", "--file", "--format", "--out"],
        "gcm": ["--graph", "--edges", "--file", "--format", "--out"],
        "gem": ["--graph", "--edges", "--file", "--seed", "--format", "--out"],
        "lc": ["--graph", "--edges", "--file", "--vertex", "--format", "--out"],
        "orbit": ["--graph", "--edges", "--file", "--format", "--out"],
        "equiv": ["--graph", "--edges", "--file", "--graph2", "--edges2",
                  "--file2", "--format", "--out"],
        "classify": ["--measure", "--seed", "--format", "--out"],
        "rp-table": ["--seed", "--format", "--out"],
        "verify-catalog": ["--format", "--out"],
    }
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = {name: [opt for action in sub._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")]
           for name, sub in subparsers.choices.items()}
    assert got == want


def test_readme_examples_parse():
    # Every "graphent ..." line of the README's code blocks, its "#"
    # comment stripped, must parse; a stale flag exits 2 here.
    blocks = README.read_text().split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("graphent ")]
    assert len(lines) >= 10
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])


def complete_entry(gid: int, n: int) -> CatalogEntry:
    return CatalogEntry(gid, make_graph(n, list(itertools.combinations(range(1, n + 1), 2))))


@pytest.fixture
def with_k4(monkeypatch):
    # K4 is LC-equivalent to the star on 4 vertices (id 3) but isomorphic
    # to no catalog entry, so only the orbit check fails.
    entries = all_entries()
    monkeypatch.setattr(cli, "all_entries", lambda: entries + [complete_entry(46, 4)])


def test_verify_catalog_failing_csv_keeps_three_fields(capsys, with_k4):
    code, out, _ = run(capsys, "verify-catalog", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [3] * 6
    assert rows[-1] == ["lc-pairwise", "false", "shared orbits: [(3, 46)]"]


def test_verify_catalog_lc_pairwise_reports_every_shared_pair(monkeypatch, capsys):
    # K5 is LC-equivalent to the star on 5 vertices (id 5), as K4 is to id 3.
    entries = all_entries()
    monkeypatch.setattr(cli, "all_entries",
                        lambda: entries + [complete_entry(46, 4), complete_entry(47, 5)])
    code, out, _ = run(capsys, "verify-catalog")
    assert code == 1
    assert "FAIL  lc-pairwise: shared orbits: [(3, 46), (5, 47)]\n" in out


def test_verify_catalog_lc_pairwise_reports_shared_orbits(with_k4):
    args = cli.build_parser().parse_args(["verify-catalog"])
    code, render = args.func(args)
    assert code == 1
    lines = render("table").splitlines()
    assert [line[:6] for line in lines[:4]] == ["PASS  "] * 4
    assert lines[4:] == ["FAIL  lc-pairwise: shared orbits: [(3, 46)]",
                         "catalog verification FAILED"]
    payload = render("json")
    assert [c["passed"] for c in payload["checks"]] == [True] * 4 + [False]
    assert payload["checks"][-1]["detail"] == "shared orbits: [(3, 46)]"
    assert payload["passed"] is False


def test_verify_catalog_fails_a_nan_state(monkeypatch, capsys):
    # One NaN amplitude in id 30's state must fail both statevector
    # checks, in table and json alike, rather than drop out of the maxima.
    build, nan_graph = cli.build_graph_state, catalog_get(30).graph

    def with_nan(g):
        psi = build(g)
        if g == nan_graph:
            psi[0] = np.nan
        return psi

    monkeypatch.setattr(cli, "build_graph_state", with_nan)
    code, out, _ = run(capsys, "verify-catalog")
    assert code == 1
    assert "FAIL  stabilizers: max deviation nan\n" in out
    assert "FAIL  lc-unitary: max deviation nan\n" in out
    assert out.endswith("catalog verification FAILED\n")
    code, out, _ = run(capsys, "verify-catalog", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert [c["passed"] for c in payload["checks"]] == [True, True, False, False, True]
    assert payload["passed"] is False


def run_both(tmp_path, capsys, *argv):
    """Run argv to stdout and again with --out; the bytes must agree."""
    dest = tmp_path / "out"
    code, out, err = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(dest)) == (code, "", err)
    assert dest.read_bytes() == out.encode()
    return code, out


# Every subcommand but verify-catalog (below), on cheap arguments, with
# the formats it accepts.
_FORMATS = [
    (("state", "--graph", "8"), ("table", "json")),
    (("gcm", "--graph", "8"), ("table", "json")),
    (("gem", "--graph", "40"), ("table", "json")),
    (("lc", "--graph", "8", "--vertex", "2"), ("table", "json")),
    (("orbit", "--graph", "8"), ("table", "json")),
    (("equiv", "--graph", "8", "--graph2", "9"), ("table", "json")),
    (("classify", "--measure", "gcm"), ("table", "json", "csv")),
    (("rp-table",), ("table", "json", "csv")),
]


@pytest.mark.parametrize("argv", [
    pytest.param(argv + ("--format", fmt), id=f"{argv[0]}-{fmt}")
    for argv, formats in _FORMATS for fmt in formats
])
def test_out_file_matches_stdout(tmp_path, capsys, argv):
    code, out = run_both(tmp_path, capsys, *argv)
    assert code == 0
    if argv[-1] == "json":
        json.loads(out)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_verify_catalog_failure_still_reports(tmp_path, capsys, with_k4, fmt):
    code, out = run_both(tmp_path, capsys, "verify-catalog", "--format", fmt)
    assert code == 1
    if fmt == "json":
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["checks"][-1]["name"] == "lc-pairwise"
    else:
        assert "shared orbits: [(3, 46)]" in out
        assert out.count("\n") == 6


# Output of the see-saw's commands, byte for byte: the GEM of the 8 ids
# that reach the see-saw at seeds 0 and 7, and the classes and RP tables
# built from them and from GCM. JSON is pinned only where it holds
# counts, ratios and exact cut-rank GCM values; a see-saw value's last
# digits depend on the numpy/BLAS build. Regenerate from known-good code
# with PYTHONPATH=src python3 tests/test_cli.py
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
GOLDEN_COMMANDS = [
    f"gem --graph {gid} --seed {seed}"
    for gid in (8, 19, 39, 40, 41, 42, 44, 45) for seed in (0, 7)
] + [
    "classify --measure gem --seed 7 --format csv",
    "rp-table --seed 7",
    "rp-table --seed 7 --format csv",
    "classify --measure gcm",
    "classify --measure gcm --format csv",
    "classify --measure gcm --format json",
    "classify --measure gem --seed 7",
    "rp-table --seed 7 --format json",
]


def stdout_of(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(command.split()) == 0, command
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", GOLDEN_COMMANDS)
def test_cli_text_matches_golden_bytes(golden, command):
    assert stdout_of(command) == golden[command]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graphent.cli", "gcm", "--graph", "44"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "GCM = 1.75891\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: stdout_of(c) for c in GOLDEN_COMMANDS}, indent=1) + "\n")
