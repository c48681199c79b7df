"""End-to-end acceptance checks for the shipped catalog and both measures.

Each test prints one [acceptance] PASS/FAIL line so the gate can be read off
the run log directly.  Tolerances are pinned inline and must not be loosened.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from graphent.catalog import all_entries, catalog_get
from graphent.classify import build_report, group_by_value
from graphent.graphs import canonical_form, is_connected, lc_orbit, local_complement
from graphent.measures import (
    GemConfig,
    brute_force_gem,
    gcm,
    gem,
    gem_bipartite_oracle,
)
from graphent.states import (
    apply_local_unitary,
    build_graph_state,
    inner_product,
    lc_unitary_apply,
    stabilizer_expectation,
)

from test_states import random_unitary

EXPECTED_GEM_CLASSES = {
    0.50000: (1, 2, 3, 5, 9, 20),
    0.75000: (4, 6, 7, 10, 11, 12, 15, 21, 22, 23, 24, 31),
    0.86855: (8,),
    0.87500: (13, 14, 16, 17, 18, 25, 26, 27, 28, 29, 30, 32, 33, 34, 35,
              36, 37, 38, 43),
    0.91667: (19,),
    0.93428: (39, 41, 45),
    0.93750: (40, 42, 44),
}

# per n: (classes by gcm, classes by gem, lc classes, rp gcm, rp gem)
EXPECTED_RP_ROWS = {
    2: (1, 1, 1, 100.00, 100.00),
    3: (1, 1, 1, 100.00, 100.00),
    4: (2, 2, 2, 100.00, 100.00),
    5: (4, 3, 4, 100.00, 75.00),
    6: (9, 4, 11, 81.82, 36.36),
    7: (16, 5, 26, 61.54, 19.23),
}
EXPECTED_RP_TOTAL = (27, 7, 45, 60.00, 15.55)


@pytest.fixture(scope="module")
def states():
    return {e.id: build_graph_state(e.graph) for e in all_entries()}


@pytest.fixture(scope="module")
def gcm_sweep():
    start = time.perf_counter()
    values = {e.id: gcm(build_graph_state(e.graph)).value for e in all_entries()}
    return values, time.perf_counter() - start


@pytest.fixture(scope="module")
def gem_sweep(states):
    cfg = GemConfig(restarts=256, seed=0)
    start = time.perf_counter()
    values = {gid: gem(state, cfg).value for gid, state in states.items()}
    return values, time.perf_counter() - start


@pytest.fixture
def report(capfd):
    def _line(tag, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[acceptance] {tag}: {verdict} ({detail})", flush=True)
        assert ok, f"{tag}: {detail}"

    return _line


def test_criterion_01_gcm_values(gcm_sweep, report):
    values, elapsed = gcm_sweep
    worst = max(abs(values[e.id] - e.expected_gcm) for e in all_entries())
    anchors = max(abs(values[1] - 1.0), abs(values[2] - 1.22474),
                  abs(values[44] - 1.75891))
    ok = worst <= 5e-6 and anchors <= 5e-6 and elapsed < 1.0
    report("criterion 1 gcm-values", ok, f"worst {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_gcm_classes(gcm_sweep, report):
    values, _ = gcm_sweep
    computed = group_by_value(values.items(), 1e-4)
    expected = group_by_value([(e.id, e.expected_gcm) for e in all_entries()], 1e-4)
    same = [c.members for c in computed] == [c.members for c in expected]
    example = [c for c in computed if c.members == (40, 42, 43, 45)]
    ok = (len(computed) == 27 and same and len(example) == 1
          and abs(example[0].value - 1.75) <= 1e-4)
    report("criterion 2 gcm-classes", ok,
           f"{len(computed)} classes, memberships match: {same}")


def test_criterion_03_gem_values_and_classes(gem_sweep, report):
    values, elapsed = gem_sweep
    worst = max(abs(values[e.id] - e.expected_gem) for e in all_entries())
    classes = group_by_value(values.items(), 1e-4)
    members_ok = [c.members for c in classes] == list(EXPECTED_GEM_CLASSES.values())
    values_ok = len(classes) == 7 and all(
        abs(c.value - ref) <= 1e-3
        for c, ref in zip(classes, EXPECTED_GEM_CLASSES))
    ok = worst <= 1e-3 and members_ok and values_ok and elapsed < 60.0
    report("criterion 3 gem-values-and-classes", ok,
           f"worst {worst:.2e}, {len(classes)} classes, {elapsed:.1f}s")


def test_criterion_04_rp_table(gcm_sweep, gem_sweep, report):
    by_gcm = build_report("gcm", values=list(gcm_sweep[0].items()))
    by_gem = build_report("gem", values=list(gem_sweep[0].items()))
    checks = []
    for row_c, row_e in zip(by_gcm.per_n, by_gem.per_n):
        want = EXPECTED_RP_ROWS[row_c.n]
        checks.append((row_c.eta_measure, row_e.eta_measure,
                       row_c.eta_kappa) == want[:3])
        checks.append(row_e.eta_kappa == want[2])
        checks.append(abs(row_c.rp - want[3]) <= 0.5)
        checks.append(abs(row_e.rp - want[4]) <= 0.5)
    checks.append((by_gcm.cumulative.eta_measure, by_gem.cumulative.eta_measure,
                   by_gcm.cumulative.eta_kappa) == EXPECTED_RP_TOTAL[:3])
    checks.append(abs(by_gcm.cumulative.rp - EXPECTED_RP_TOTAL[3]) <= 0.5)
    checks.append(abs(by_gem.cumulative.rp - EXPECTED_RP_TOTAL[4]) <= 0.5)
    ok = all(checks)
    report("criterion 4 rp-table", ok, f"{sum(checks)}/{len(checks)} checks")


def test_criterion_05_stabilizers(states, report):
    worst = 0.0
    for e in all_entries():
        for a in range(1, e.n + 1):
            val = stabilizer_expectation(states[e.id], e.graph, a)
            worst = max(worst, abs(val - 1.0))
    report("criterion 5 stabilizers", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_06_lc_consistency(states, report):
    worst = 0.0
    for e in all_entries():
        for a in range(1, e.n + 1):
            moved = lc_unitary_apply(states[e.id], e.graph, a)
            target = build_graph_state(local_complement(e.graph, a))
            worst = max(worst, abs(abs(inner_product(target, moved)) - 1.0))
    report("criterion 6 lc-consistency", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_07_lu_invariance(states, gcm_sweep, report):
    rng = np.random.default_rng(11)
    cfg = GemConfig(restarts=64, seed=0)
    ids = [e.id for e in all_entries()]
    base_gem = {}
    worst_gcm = 0.0
    worst_gem = 0.0
    for _ in range(200):
        gid = ids[int(rng.integers(len(ids)))]
        entry = catalog_get(gid)
        rotated = states[gid]
        for q in range(1, entry.n + 1):
            rotated = apply_local_unitary(rotated, random_unitary(rng), q)
        worst_gcm = max(worst_gcm, abs(gcm(rotated).value - gcm_sweep[0][gid]))
        if gid not in base_gem:
            base_gem[gid] = gem(states[gid], cfg).value
        worst_gem = max(worst_gem,
                        abs(gem(rotated, cfg).value - base_gem[gid]))
    ok = worst_gcm <= 1e-9 and worst_gem <= 1e-6
    report("criterion 7 lu-invariance", ok,
           f"200 trials, worst gcm {worst_gcm:.2e}, worst gem {worst_gem:.2e}")


def test_criterion_08a_schmidt_exact(gem_sweep, report):
    worst = 0.0
    for e in all_entries():
        if e.n != 2:
            continue
        oracle = gem_bipartite_oracle(build_graph_state(e.graph), (1,))
        worst = max(worst, abs(oracle - gem_sweep[0][e.id]))
    report("criterion 8a schmidt-exact", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_08b_oracle_bound(states, gem_sweep, report):
    cuts = 0
    excess = 0.0
    for e in all_entries():
        for size in range(1, e.n // 2 + 1):
            for cut in itertools.combinations(range(1, e.n + 1), size):
                bound = gem_bipartite_oracle(states[e.id], cut)
                excess = max(excess, bound - gem_sweep[0][e.id])
                cuts += 1
    report("criterion 8b oracle-bound", excess <= 1e-9,
           f"{cuts} cuts, max excess {excess:.2e}")


def test_criterion_08c_brute_force(gem_sweep, report):
    worst = 0.0
    for e in all_entries():
        if e.n > 3:
            continue
        bf = brute_force_gem(build_graph_state(e.graph))
        worst = max(worst, abs(bf - gem_sweep[0][e.id]))
    report("criterion 8c brute-force", worst <= 5e-3, f"worst {worst:.2e}")


def test_criterion_09_distinct_and_disjoint(report):
    entries = all_entries()
    connected = sum(is_connected(e.graph) for e in entries)
    forms = {canonical_form(e.graph) for e in entries}
    owner = {}
    overlaps = 0
    for e in entries:
        for rep in lc_orbit(e.graph).representatives:
            if owner.setdefault(rep, e.id) != e.id:
                overlaps += 1
    ok = connected == 45 and len(forms) == 45 and overlaps == 0
    report("criterion 9 catalog-distinctness", ok,
           f"{connected} connected, {len(forms)} canonical forms, "
           f"{overlaps} orbit overlaps across 990 pairs")


def test_criterion_10_determinism(tmp_path, report, child_env):
    blobs = []
    for name in ("a.json", "b.json"):
        dest = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "graphent.cli", "classify", "--measure",
             "gem", "--seed", "7", "--format", "json", "--out", str(dest)],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(dest.read_bytes())
    ok = len(blobs[0]) > 0 and blobs[0] == blobs[1]
    report("criterion 10 determinism", ok, f"{len(blobs[0])} bytes")
