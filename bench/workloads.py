"""The four seeded workloads: inputs, queries and the checks on every answer.

A workload is built from its seed in set-up. `make_pass(k)` returns the
items of pass k as (item id, callable) pairs; inputs and oracle values
for the pass are generated there, outside the timed region. Each callable
runs one query against graphent and raises `Failed` when the answer is
wrong. Queries reach graphent through module attributes at call time
(`cli.main`, `graphent.gem`), so the traced run's wrappers see them.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np

import graphent
from graphent import classify, cli

import oracles

VALUE_TOL = 1e-4
CUT_RANK_TOL = 1e-9
RP_TOL = 0.005

# The see-saw's work for one (state, GEM seed) pair swings by 10x between
# seeds (anywhere from 30 sweeps to the 500 cap), so a per-seed GEM seed
# would make wall time a property of the seed rather than of the code.
# GEM workloads therefore hold the GEM seed and the rotations fixed, and the
# workload seed draws only what leaves the see-saw's work unchanged.
GEM_SEED = 0
ROTATION_SEED = 0


class Failed(Exception):
    """An answer that its oracle rejects."""


def run_cli(argv: list[str]) -> dict:
    """`graphent ARGV --format json` in-process; the parsed JSON answer."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    if code != 0:
        raise Failed(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def inline(edges) -> str:
    return ",".join(f"{i} {j}" for i, j in edges)


def expect_close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise Failed(f"{what} = {got!r}, expected {want!r} within {tol:g}")


def load_catalog(root: Path) -> dict[int, dict]:
    """Catalog entries from catalog/index.json plus their edge files."""
    catalog = {}
    for entry in json.loads((root / "catalog" / "index.json").read_text()):
        n, edges = None, []
        for line in (root / "catalog" / entry["file"]).read_text().splitlines():
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "n":
                n = int(parts[1])
            else:
                edges.append((int(parts[0]), int(parts[1])))
        catalog[entry["id"]] = dict(entry, n=n, edges=tuple(edges))
    return catalog


class Workload:
    name = ""

    def __init__(self, seed: int, catalog: dict[int, dict], expected: dict):
        self.seed = seed
        self.catalog = catalog
        self.expected = expected

    def rng(self, k: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, k])

    def make_pass(self, k: int) -> list[tuple[str, object]]:
        raise NotImplementedError

    def warmup(self) -> None:
        """One small query per code path, so lazily built state (permutation
        tables, numpy dispatch) exists before timing starts."""
        raise NotImplementedError


class CatalogTables(Workload):
    """`graphent gcm` and `graphent gem` for every catalog id, then the tables."""

    name = "catalog-tables"

    def make_pass(self, k):
        values = {"gcm": [], "gem": []}
        order = [int(i) for i in self.rng(k).permutation(sorted(self.catalog))]
        items = [(f"g{gid:02d}", partial(self.measure, gid, values)) for gid in order]
        items.append(("tables", partial(self.tables, values)))
        return items

    def measure(self, gid, values):
        entry = self.catalog[gid]
        g = run_cli(["gcm", "--graph", str(gid)])["value"]
        e = run_cli(["gem", "--graph", str(gid), "--seed", str(GEM_SEED)])["value"]
        values["gcm"].append((gid, g))
        values["gem"].append((gid, e))
        expect_close(f"gcm of {gid}", g, entry["expected_gcm"], VALUE_TOL)
        expect_close(f"gem of {gid}", e, entry["expected_gem"], VALUE_TOL)

    def warmup(self):
        run_cli(["gcm", "--graph", "1"])
        run_cli(["gem", "--graph", "1", "--seed", str(GEM_SEED)])

    def tables(self, values):
        reports = {kind: classify.build_report(kind, values=values[kind])
                   for kind in ("gcm", "gem")}
        for kind in ("gcm", "gem"):
            got = len(reports[kind].classes)
            if got != self.expected[f"{kind}_classes"]:
                raise Failed(f"{got} {kind} classes, expected "
                             f"{self.expected[kind + '_classes']}")
        rows = self.expected["rp_rows"]
        got_rows = zip(reports["gcm"].per_n, reports["gem"].per_n)
        for want, (c, e) in zip(rows["per_n"] + [rows["cumulative"]],
                                list(got_rows) + [(reports["gcm"].cumulative,
                                                   reports["gem"].cumulative)]):
            got = [c.n, c.eta_measure, e.eta_measure, c.eta_kappa]
            if got != want[:4] or e.eta_kappa != want[3]:
                raise Failed(f"rp row {got}, expected {want[:4]}")
            expect_close(f"rp_gcm at n={c.n}", c.rp, want[4], RP_TOL)
            expect_close(f"rp_gem at n={c.n}", e.rp, want[5], RP_TOL)


class LcOrbits(Workload):
    """`graphent orbit` for all 45 ids plus seeded `graphent equiv` queries."""

    name = "lc-orbits"

    def __init__(self, seed, catalog, expected):
        super().__init__(seed, catalog, expected)
        self.canonical = {gid: oracles.canonical_edges(e["n"], e["edges"])
                          for gid, e in catalog.items()}
        self.n7 = [gid for gid, e in sorted(catalog.items()) if e["n"] == 7]
        bases = expected["n8_bases"]
        self.n8 = {name: tuple(map(tuple, b["edges"])) for name, b in bases.items()}
        if len({b["orbit_size"] for b in bases.values()}) != len(bases):
            raise ValueError("n = 8 bases must have distinct orbit sizes")

    def make_pass(self, k):
        rng = self.rng(k)
        reps = {}
        ids = [int(i) for i in rng.permutation(sorted(self.catalog))]
        items = [(f"orbit-g{gid:02d}", partial(self.orbit, gid, reps)) for gid in ids]
        items.append(("disjoint", partial(self.disjoint, reps)))
        queries = []
        # Half of the n = 7 ids are paired with an LC-walk of themselves,
        # the other half with a different catalog class.
        for rank, gid in enumerate(int(i) for i in rng.permutation(self.n7)):
            walk = oracles.lc_walk(7, self.catalog[gid]["edges"], rng, 14)
            if rank % 2 == 0:
                queries.append((f"equiv-g{gid:02d}", walk, ["--graph2", str(gid)], True))
            else:
                other = int(rng.choice([i for i in self.n7 if i != gid]))
                queries.append((f"equiv-g{gid:02d}-g{other:02d}", walk,
                                ["--graph2", str(other)], False))
        # n = 8: cheap orbits, every pairing of the two bases.
        for a, edges_a in self.n8.items():
            walk = oracles.lc_walk(8, edges_a, rng, 16)
            for b, edges_b in self.n8.items():
                queries.append((f"equiv8-{a}-{b}", walk,
                                ["--edges2", inline(edges_b)], a == b))
        for index in rng.permutation(len(queries)):
            item_id, walk, second, want = queries[int(index)]
            items.append((item_id, partial(self.equiv, walk, second, want)))
        return items

    def warmup(self):
        run_cli(["orbit", "--graph", str(self.n7[0])])
        star = self.n8["star"]
        run_cli(["equiv", "--edges", inline(star), "--edges2", inline(star)])

    def orbit(self, gid, reps):
        answer = run_cli(["orbit", "--graph", str(gid)])
        forms = {tuple(tuple(e) for e in r["edges"]) for r in answer["representatives"]}
        reps[gid] = forms
        want = self.expected["orbit_sizes"][str(gid)]
        if answer["size"] != want or len(forms) != want:
            raise Failed(f"orbit of {gid} has size {answer['size']} with "
                         f"{len(forms)} distinct representatives, expected {want}")
        if self.canonical[gid] not in forms:
            raise Failed(f"orbit of {gid} lacks its own canonical form")

    @staticmethod
    def disjoint(reps):
        union = set().union(*reps.values())
        if len(union) != sum(len(r) for r in reps.values()):
            raise Failed("two catalog orbits share a representative")

    @staticmethod
    def equiv(walk, second, want):
        got = run_cli(["equiv", "--edges", inline(walk)] + second)["equivalent"]
        if got is not want:
            raise Failed(f"equiv said {got}, expected {want}")


class LargeN(Workload):
    """`graphent gcm --edges` on random connected graphs and cycles, n = 10..13."""

    name = "large-n"
    # Graphs per vertex count in one pass. Queries with the same n cost the
    # same, so latencies come in one tight group per n, and a shared 2-vCPU
    # VM was seen to switch between two speeds 1.5x apart. These counts put
    # the pooled median 15% of the way into the n = 11 group and p90 15% into
    # the n = 13 group: both read the fast end of their group unless most of
    # a run is slow.
    PER_N = {10: 15, 11: 13, 12: 2, 13: 4}
    DENSITY = 0.3

    def make_pass(self, k):
        rng = self.rng(k)
        queries = []
        for n, count in self.PER_N.items():
            queries.append((f"n{n}-cycle", oracles.cycle_edges(n, rng)))
            for j in range(1, count):
                queries.append((f"n{n}-random{j}",
                                oracles.random_connected_edges(n, rng, self.DENSITY)))
        items = []
        for index in rng.permutation(len(queries)):
            item_id, edges = queries[int(index)]
            n = max(max(e) for e in edges)
            want = oracles.gcm_by_cut_rank(n, edges)
            items.append((item_id, partial(self.gcm, edges, want)))
        return items

    def warmup(self):
        run_cli(["gcm", "--edges", inline((v, v % 10 + 1) for v in range(1, 11))])

    @staticmethod
    def gcm(edges, want):
        got = run_cli(["gcm", "--edges", inline(edges)])["value"]
        expect_close("gcm", got, want, CUT_RANK_TOL)


class RotatedStates(Workload):
    """Public `gcm` and `gem` on catalog states after random local unitaries."""

    name = "rotated-states"

    def __init__(self, seed, catalog, expected):
        super().__init__(seed, catalog, expected)
        rng = np.random.default_rng(ROTATION_SEED)
        self.states = {}
        for gid, e in sorted(catalog.items()):
            unitaries = [oracles.haar_unitary(rng) for _ in range(e["n"])]
            self.states[gid] = oracles.rotate_every_qubit(
                oracles.graph_state(e["n"], e["edges"]), unitaries)

    def make_pass(self, k):
        # A fresh global phase per state and pass: new input bytes every
        # pass, while the see-saw's fidelities, and so its work, are unchanged.
        rng = self.rng(k)
        items = []
        for gid in (int(i) for i in rng.permutation(sorted(self.states))):
            phase = np.exp(2j * math.pi * rng.random())
            items.append((f"g{gid:02d}", partial(self.measure, gid,
                                                 phase * self.states[gid])))
        return items

    def warmup(self):
        graphent.gem(self.states[1], graphent.GemConfig(seed=GEM_SEED))

    def measure(self, gid, state):
        entry = self.catalog[gid]
        g = graphent.gcm(state).value
        e = graphent.gem(state, graphent.GemConfig(seed=GEM_SEED)).value
        expect_close(f"gcm of rotated {gid}", g, entry["expected_gcm"], VALUE_TOL)
        expect_close(f"gem of rotated {gid}", e, entry["expected_gem"], VALUE_TOL)


WORKLOADS = {w.name: w for w in (CatalogTables, LcOrbits, LargeN, RotatedStates)}
