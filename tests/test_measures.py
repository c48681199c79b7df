"""Measure tests: closed-form values, see-saw behavior, oracles."""

import importlib
import inspect
import itertools
import json
import pkgutil
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphent
from graphent import graphs, measures, reductions, states
from graphent.catalog import all_entries, catalog_get
from graphent.graphs import (
    MAX_VERTICES,
    cut_rank_histogram,
    independence_number,
    is_connected,
    local_complement,
    make_graph,
)
from graphent.measures import (
    DegenerateContractionError,
    GemConfig,
    GemDiagnostics,
    _environments,
    _fidelity_ceiling,
    _gcm_result,
    brute_force_gem,
    gcm,
    gem,
    gem_bipartite_oracle,
)
from graphent.reductions import schmidt_ceiling, subset_purity
from graphent.states import (
    apply_local_unitary,
    build_graph_state,
    inner_product,
    lc_unitary_apply,
    stabilizer_expectation,
)

from test_reductions import einsum_reduction, random_graphs
from test_states import for_random_graphs, ket, random_graph, random_unitary


def ghz(n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return psi


def random_factors(rng: np.random.Generator, shape) -> np.ndarray:
    """Random unit single-qubit factors, of shape shape + (2,)."""
    raw = rng.normal(size=(*shape, 2)) + 1j * rng.normal(size=(*shape, 2))
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


def product_vector(factors) -> np.ndarray:
    """The 2^n statevector of a product of single-qubit factors, qubit 1
    first."""
    v = np.array([1.0 + 0j])
    for f in factors:
        v = np.kron(v, f)
    return v


# Value anchors, one per vertex count, checked to the published precision.
_GCM_ANCHORS = [
    ((2, [(1, 2)]), 1.00000),
    ((3, [(1, 2), (1, 3)]), 1.22474),
    ((4, [(1, 2), (1, 3), (1, 4)]), 1.32288),
    ((4, [(1, 2), (2, 3), (3, 4)]), 1.41421),
    ((5, [(1, 2), (2, 3), (3, 4), (4, 5)]), 1.54110),
    ((6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 3), (4, 6), (2, 5)]),
     1.69558),
    ((7, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)]), 1.40312),
]


@pytest.mark.parametrize("graph_args,expected", _GCM_ANCHORS)
def test_gcm_anchors(graph_args, expected):
    n, edges = graph_args
    res = gcm(build_graph_state(make_graph(n, edges)))
    assert res.kind == "GCM"
    assert res.value == pytest.approx(expected, abs=5e-6)


def test_gcm_closed_forms():
    # Star graph states: all single-qubit purities 1/2, every other
    # subsystem purity 1/2 as well, so the sum is (2^n - 2)/2 and the
    # value is 2^(1-n/2) sqrt((2^n - 2)/2).
    for n in (2, 3, 5, 7):
        g = make_graph(n, [(1, j) for j in range(2, n + 1)])
        expected = 2.0 ** (1.0 - n / 2.0) * np.sqrt((2.0**n - 2.0) / 2.0)
        assert gcm(build_graph_state(g)).value == pytest.approx(expected, abs=1e-12)


def test_gcm_graph_path_matches_statevector_path_on_catalog():
    for e in all_entries():
        by_graph = gcm(e.graph)
        by_state = gcm(build_graph_state(e.graph))
        assert by_graph.value == pytest.approx(by_state.value, abs=1e-12), e.id


def brute_force_independent_set(g) -> tuple[int, ...]:
    """A largest vertex set with no edge inside, from all 2^n subsets."""
    edges = set(g.edges)
    return max(
        (s for r in range(g.n + 1) for s in itertools.combinations(range(1, g.n + 1), r)
         if edges.isdisjoint(itertools.combinations(s, 2))),
        key=len,
    )


def test_gcm_graph_path_matches_statevector_path_on_random_graphs():
    def check(g):
        assert gcm(g).value == pytest.approx(
            gcm(build_graph_state(g)).value, abs=1e-12
        )

    for_random_graphs(check, 10)


def test_gcm_graph_path_star_and_complete_at_max_vertices():
    # Every cut of a star or a complete graph has cut-rank 1.
    n = MAX_VERTICES
    expected = 2.0 ** (1.0 - n / 2.0) * np.sqrt((2.0**n - 2.0) / 2.0)
    star = make_graph(n, [(1, j) for j in range(2, n + 1)])
    complete = make_graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])
    for g in (star, complete):
        assert gcm(g).value == pytest.approx(expected, abs=1e-12)


def gcm_by_histogram(g):
    """The cut-rank histogram's sum of purities, 2^-k per cut of rank k:
    how gcm read a Graph before it summed them from the weight counts."""
    counts = cut_rank_histogram(g)
    return _gcm_result(g.n, float(counts @ 0.5 ** np.arange(counts.size)), "cut-rank")


def weight_count_cross_check_graphs() -> list:
    """The catalog, the edgeless graph and graphs whose top vertex is
    isolated at every n = 1..16, and three seeded random graphs per n."""
    out = [e.graph for e in all_entries()]
    for n in range(1, MAX_VERTICES + 1):
        rng = random.Random(2900 + n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        out.append(make_graph(n, []))
        out.append(make_graph(n, [(v, v + 1) for v in range(1, n - 1)]))
        out.append(make_graph(n, [(i, j) for i, j in pairs if j < n]))
        for density in (0.25, 0.5, 0.8):
            out.append(make_graph(n, [p for p in pairs if rng.random() < density]))
    return out


def test_gcm_of_a_graph_is_bit_identical_to_the_histogram_sum():
    # Both sums are exact dyadic rationals, so ==, not a tolerance.
    for g in weight_count_cross_check_graphs():
        got = gcm(g)
        assert got == gcm_by_histogram(g), g
        assert got.method == "cut-rank"


def test_gcm_by_weight_counts_matches_statevector_path():
    for g in weight_count_cross_check_graphs():
        if g.n <= 10:
            assert gcm(g).value == pytest.approx(
                gcm(build_graph_state(g)).value, abs=1e-12), g


def test_gcm_of_a_graph_needs_no_statevector_and_no_cut_rank(monkeypatch):
    def refuse(*args):
        raise AssertionError("gcm of a Graph took a statevector or cut-rank path")

    for module, name in ((states, "build_graph_state"), (measures, "build_graph_state"),
                         (graphs, "cut_rank_histogram"), (measures, "cut_rank_histogram"),
                         (graphs, "_cut_ranks")):
        monkeypatch.setattr(module, name, refuse)
    g = catalog_get(40).graph
    cycle = make_graph(MAX_VERTICES, [(v, v % MAX_VERTICES + 1)
                                      for v in range(1, MAX_VERTICES + 1)])
    assert gcm(g).value == pytest.approx(catalog_get(40).expected_gcm, abs=5e-6)
    assert gcm(cycle).method == "cut-rank"
    with pytest.raises(AssertionError):
        gem(g)


def test_gcm_memory_at_max_vertices():
    # One call at n = MAX_VERTICES holds a few arrays of 2^n int64.
    g = random_graphs([MAX_VERTICES], 1)[0]
    gcm(g)
    tracemalloc.start()
    try:
        gcm(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_gcm_reports_its_method():
    g = make_graph(3, [(1, 2), (2, 3)])
    assert gcm(g).method == "cut-rank"
    assert gcm(build_graph_state(g)).method == "statevector"


def test_gcm_statevector_reduces_each_bipartition_once(monkeypatch):
    # One Gram matrix per bipartition, each a different one, and one
    # check of the state for the whole call, none per cut.
    grams, checks = [], []
    gram, check = reductions._gram, states.checked_state

    def counting_gram(s, keep, n):
        grams.append(frozenset(keep))
        return gram(s, keep, n)

    def counting_check(state):
        checks.append(len(state))
        return check(state)

    monkeypatch.setattr(reductions, "_gram", counting_gram)
    for module in (measures, reductions):
        monkeypatch.setattr(module, "checked_state", counting_check)
    for n in (6, 7):
        grams.clear()
        checks.clear()
        psi = build_graph_state(make_graph(n, [(v, v % n + 1) for v in range(1, n + 1)]))
        gcm(psi)
        everyone = frozenset(range(1, n + 1))
        assert len(grams) == 2 ** (n - 1) - 1
        assert len({frozenset((c, everyone - c)) for c in grams}) == len(grams)
        assert checks == [2**n]


def test_gcm_and_gem_fail_fast_past_max_vertices():
    n = MAX_VERTICES + 1
    psi = np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)
    for measure in (gcm, gem):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_VERTICES"):
            measure(psi)
        assert time.perf_counter() - start < 1.0


def test_gcm_plus_state_is_zero():
    for n in (2, 4, 6):
        assert gcm(build_graph_state(make_graph(n, []))).value == pytest.approx(0.0, abs=1e-12)


def test_single_qubit_measures_are_zero():
    # One qubit has no bipartition: the GCM radicand is 2 - 2 - 0.
    for state in (make_graph(1, []), np.array([1.0, 0.0])):
        assert gcm(state).value == 0.0
        assert gem(state).value == 0.0


def _statevector_calls(g, path):
    """Each exported function with a state parameter, plus inner_product
    with the state on either side, as (name, call on one state)."""
    return [
        ("apply_local_unitary", lambda s: apply_local_unitary(s, np.eye(2), 1)),
        ("brute_force_gem", brute_force_gem),
        ("gcm", gcm),
        ("gem", gem),
        ("gem_bipartite_oracle", lambda s: gem_bipartite_oracle(s, (1,))),
        ("inner_product", lambda s: inner_product(s, path)),
        ("inner_product", lambda s: inner_product(path, s)),
        ("lc_unitary_apply", lambda s: lc_unitary_apply(s, g, 1)),
        ("stabilizer_expectation", lambda s: stabilizer_expectation(s, g, 1)),
        ("subset_purity", lambda s: subset_purity(s, (1,))),
    ]


def test_statevector_entry_points_reject_degenerate_amplitudes():
    # Every statevector entry point rejects each degenerate state before
    # any work, with the message of states.checked_state. 1e200 * path
    # has finite amplitudes, but its squared norm overflows.
    g = make_graph(3, [(1, 2), (2, 3)])
    path = build_graph_state(g)
    calls = _statevector_calls(g, path)
    takes_state = {name for name in graphent.__all__
                   if inspect.isfunction(fn := getattr(graphent, name))
                   and "state" in inspect.signature(fn).parameters}
    assert {name for name, _ in calls} == takes_state | {"inner_product"}
    nan, inf = path.copy(), path.copy()
    nan[0], inf[0] = np.nan, np.inf
    n = MAX_VERTICES + 1
    for state, message in ((nan, "amplitudes are not finite"),
                           (inf, "amplitudes are not finite"),
                           (1e200 * path, "norm overflows"),
                           (np.zeros(8), "zero norm"), (1e-14 * path, "zero norm"),
                           (np.full(2**n, 2.0 ** (-n / 2.0)), "MAX_VERTICES")):
        for _, call in calls:
            with pytest.raises(ValueError, match=message):
                call(state)


def test_statevector_entry_points_read_every_scale_alike():
    # A state is a ray, and checked_state hands each entry point its unit
    # norm: psi, 3 psi and 1e-3 psi give one result, a value or an array.
    g = make_graph(3, [(1, 2), (2, 3)])
    path = build_graph_state(g)
    for name, call in _statevector_calls(g, path):
        want, *scaled = [getattr(r, "value", r)
                         for r in map(call, (path, 3.0 * path, 1e-3 * path))]
        for got in scaled:
            assert np.allclose(got, want, rtol=0, atol=1e-12), name


def test_statevector_entry_points_check_each_state_once(monkeypatch):
    # Counted through every graphent namespace that binds checked_state:
    # one check per state argument, so two for inner_product.
    g = make_graph(3, [(1, 2), (2, 3)])
    path = build_graph_state(g)
    check, checks = states.checked_state, []

    def counting_check(state):
        checks.append(len(state))
        return check(state)

    for info in pkgutil.iter_modules(graphent.__path__):
        module = importlib.import_module(f"graphent.{info.name}")
        if getattr(module, "checked_state", None) is check:
            monkeypatch.setattr(module, "checked_state", counting_check)
    for name, call in _statevector_calls(g, path):
        checks.clear()
        call(path)
        assert len(checks) == (2 if name == "inner_product" else 1), name


def test_gcm_deterministic():
    psi = build_graph_state(make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert gcm(psi).value == gcm(psi).value


def test_gcm_local_unitary_invariance():
    rng = np.random.default_rng(13)
    srng = random.Random(13)
    for _ in range(10):
        n = srng.randint(2, 6)
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                 if srng.random() < 0.5]
        psi = build_graph_state(make_graph(n, edges))
        base = gcm(psi).value
        rotated = psi
        for q in range(1, n + 1):
            rotated = apply_local_unitary(rotated, random_unitary(rng), q)
        assert gcm(rotated).value == pytest.approx(base, abs=1e-9)


def einsum_environment(psi: np.ndarray, factors: np.ndarray, k: int) -> np.ndarray:
    """The contraction of psi with the conjugate of every factor but k,
    one einsum over the full 2^n tensor per restart: the oracle for
    _environments."""
    n = factors.shape[1]
    letters = "abcdefghijklmnop"[:n]
    spec = ",".join([letters, *(c for j, c in enumerate(letters) if j != k)])
    return np.stack([
        np.einsum(f"{spec}->{letters[k]}", psi.reshape((2,) * n),
                  *(np.conj(f[j]) for j in range(n) if j != k))
        for f in factors
    ])


def see_saw_sweep(psi: np.ndarray, factors: np.ndarray):
    """One see-saw sweep as gem runs it: each yield of _environments is
    normalized into factors[:, k] before the next is asked for. Yields
    k, the contraction and the oracle's contraction with the factors as
    they stood."""
    for k, env in enumerate(_environments(psi, factors)):
        want = einsum_environment(psi, factors, k)
        factors[:, k] = env / np.linalg.norm(env, axis=1)[:, None]
        yield k, env, want


def product_fidelities(psi: np.ndarray, factors: np.ndarray) -> np.ndarray:
    return np.array([abs(np.vdot(product_vector(f), psi)) ** 2 for f in factors])


def test_environments_match_einsum_oracle():
    # Restarts swept together, each factor overwritten before the next
    # contraction is asked for, as gem does: every contraction is the
    # oracle's on the factors as they stand. One restart is where most
    # catalog sweeps run; one qubit or one restart leaves the state's
    # first contraction to broadcast across the restarts.
    rng = np.random.default_rng(23)
    for n, r in itertools.product(range(1, 11), (1, 4, 64)):
        raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = raw / np.linalg.norm(raw)
        factors = random_factors(rng, (r, n))
        for _sweep in range(3):
            for k, env, want in see_saw_sweep(psi, factors):
                assert env.shape == (r, 2), (n, r, k)
                assert np.allclose(env, want, rtol=0, atol=1e-12), (n, r, k)


def test_see_saw_step_monotone_fidelity():
    # A step's fidelity, the squared norm of its contraction, is the
    # product fidelity after the update and never below the one before.
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = raw / np.linalg.norm(raw)
        factors = random_factors(rng, (4, n))
        fidelity = product_fidelities(psi, factors)
        for _sweep in range(3):
            for k, env, _ in see_saw_sweep(psi, factors):
                after = np.linalg.norm(env, axis=1) ** 2
                assert np.all(after >= fidelity - 1e-12), (n, k)
                assert np.allclose(after, product_fidelities(psi, factors),
                                   rtol=0, atol=1e-12), (n, k)
                fidelity = after


def test_see_saw_step_fixed_point_on_product_state():
    # On a product state, each factor is already optimal: a step gives it
    # back up to phase.
    rng = np.random.default_rng(7)
    factors = random_factors(rng, (1, 3))
    start = factors.copy()
    for k, _, _ in see_saw_sweep(product_vector(factors[0]), factors):
        assert abs(np.vdot(factors[0, k], start[0, k])) == pytest.approx(1.0, abs=1e-12)


def test_see_saw_sweep_on_ghz_from_aligned_start():
    factors = np.array([[[1.0, 0.0]] * 3], dtype=complex)
    for _ in see_saw_sweep(ghz(3), factors):
        pass
    assert product_fidelities(ghz(3), factors)[0] == pytest.approx(0.5, abs=1e-12)


def test_gem_config_validation():
    with pytest.raises(ValueError):
        GemConfig(restarts=0)
    with pytest.raises(ValueError, match="seed"):
        GemConfig(seed=-1)
    # These passed validation, then gem failed inside numpy or range
    # with a bare TypeError.
    for field, bad in (("restarts", True), ("restarts", 2.5), ("seed", 1.5),
                       ("seed", False)):
        with pytest.raises(ValueError, match=f"{field} must be an int, got {bad!r}"):
            GemConfig(**{field: bad})


_GEM_ANCHORS = [
    ((2, [(1, 2)]), 0.5),
    ((3, [(1, 2), (1, 3)]), 0.5),
    ((4, [(1, 2), (2, 3), (3, 4)]), 0.75),
    ((5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]), 0.86855),
    ((6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 3), (4, 6), (2, 5)]),
     0.91667),
    ((7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)]), 0.93750),
]


@pytest.mark.parametrize("graph_args,expected", _GEM_ANCHORS)
def test_gem_anchors(graph_args, expected):
    n, edges = graph_args
    res = gem(build_graph_state(make_graph(n, edges)), GemConfig(restarts=64, seed=0))
    assert res.kind == "GEM"
    assert res.value == pytest.approx(expected, abs=1e-3)
    d = res.diagnostics
    assert d is not None
    assert d.restarts_used == 64
    assert 0 <= d.best_restart_index < 64
    assert abs(d.best_fidelity + res.value - 1.0) < 1e-12
    assert 0.0 <= res.value < 1.0


def test_gem_best_index_uses_the_tie_tolerance():
    # On catalog id 6 under seed 0, 13 restarts tie within 1e-9 of the best
    # fidelity. The highest, clamped to the ceiling, is first reached at
    # restart 29, but the lowest index of the tie, 2, wins.
    d = gem(build_graph_state(catalog_get(6).graph), GemConfig(seed=0)).diagnostics
    assert d.restarts_at_best == 13
    assert d.best_restart_index == 2


def _max_cut_rank_ceiling_matches_oracle(g) -> None:
    psi = build_graph_state(g)
    by_oracle = min(
        np.linalg.eigvalsh(einsum_reduction(psi, cut, g.n))[-1]
        for r in range(1, g.n // 2 + 1)
        for cut in itertools.combinations(range(1, g.n + 1), r)
    )
    assert _fidelity_ceiling(g) == pytest.approx(by_oracle, abs=1e-12)
    assert schmidt_ceiling(psi, g.n) == pytest.approx(by_oracle, abs=1e-12)


def test_fidelity_ceiling_matches_schmidt_oracle_on_catalog():
    for e in all_entries():
        _max_cut_rank_ceiling_matches_oracle(e.graph)


def test_fidelity_ceiling_matches_schmidt_oracle_on_random_graphs():
    for_random_graphs(_max_cut_rank_ceiling_matches_oracle, 8)


def test_gem_graph_path_matches_statevector_path_on_catalog():
    for e in all_entries():
        by_graph = gem(e.graph)
        by_state = gem(build_graph_state(e.graph))
        assert by_graph.value == pytest.approx(by_state.value, abs=1e-12), e.id


def test_gem_rotated_cycle_statevector_within_budget():
    # A statevector's ceiling reduces every cut of at most n/2 qubits one
    # at a time, about 5x more work per qubit (the README gives figures).
    # Local unitaries keep the Schmidt weights, so it is the cycle's 2^-6.
    rng = np.random.default_rng(12)
    psi = build_graph_state(make_graph(12, [(v, v % 12 + 1) for v in range(1, 13)]))
    for q in range(1, 13):
        psi = apply_local_unitary(psi, random_unitary(rng), q)
    start = time.perf_counter()
    res = gem(psi)
    assert time.perf_counter() - start < 5.0
    assert res.method == "certified"
    assert res.value == pytest.approx(1.0 - 2.0**-6, abs=1e-9)


def _entries_at_the_ceiling():
    """The 37 catalog entries whose reference GEM is 1 - 2^-(max cut-rank)."""
    return [e for e in all_entries()
            if abs(e.expected_gem - (1.0 - _fidelity_ceiling(e.graph))) < 1e-5]


def test_gem_certifies_every_id_at_the_cut_rank_bound():
    certifiable = _entries_at_the_ceiling()
    assert len(certifiable) == 37
    for e in certifiable:
        res = gem(build_graph_state(e.graph), GemConfig(seed=0))
        assert res.method == "certified", e.id
        assert res.diagnostics.converged, e.id
        assert res.diagnostics.iterations <= 10, e.id


def test_gem_reports_its_method_and_stop_reason(monkeypatch):
    path = make_graph(3, [(1, 2), (2, 3)])
    res = gem(build_graph_state(path), GemConfig(restarts=8))
    assert res.method == "certified"
    assert res.diagnostics.converged
    # The 5-cycle's geometric measure, 0.86855, lies above the cut-rank
    # bound 1 - 2^-2, so no ceiling stops it.
    c5 = catalog_get(8).graph
    res = gem(c5, GemConfig(restarts=8))
    d = res.diagnostics
    assert res.method == "see-saw"
    assert d.converged
    assert res.value == pytest.approx(0.86855, abs=5e-6)
    # Every restart sweeps at least twice; frozen ones stop counting.
    assert 2 * 8 <= d.restart_sweeps < d.iterations * 8
    monkeypatch.setattr("graphent.measures._MAX_SWEEPS", 3)
    capped = gem(c5, GemConfig(restarts=8)).diagnostics
    assert not capped.converged
    assert capped.iterations == 3
    assert capped.restart_sweeps == 24


def test_gem_floor_is_a_product_fidelity_below_the_ceiling():
    # |+> on a largest independent set, |0> elsewhere, has fidelity
    # exactly 2^-(n - alpha), so no cut's top Schmidt weight is smaller.
    plus, zero = np.full(2, 2.0**-0.5), np.array([1.0, 0.0])

    def check(g):
        chosen = brute_force_independent_set(g)
        floor = 0.5 ** (g.n - len(chosen))
        phi = product_vector([plus if v in chosen else zero for v in range(1, g.n + 1)])
        assert abs(np.vdot(phi, build_graph_state(g))) ** 2 == pytest.approx(
            floor, abs=1e-12)
        assert floor <= _fidelity_ceiling(g)

    for_random_graphs(check, 10)


def test_gem_bound_path_on_the_ids_the_see_saw_certifies():
    # test_gem_graph_path_matches_statevector_path_on_catalog holds these
    # values to the statevector see-saw's within 1e-12.
    at_ceiling = _entries_at_the_ceiling()
    assert len(at_ceiling) == 37
    for e in at_ceiling:
        res = gem(e.graph)
        ceiling = _fidelity_ceiling(e.graph)
        assert res.method == "bound", e.id
        assert res.value == 1.0 - ceiling
        assert res.diagnostics == GemDiagnostics(
            restarts_used=0, best_restart_index=-1, iterations=0, converged=True,
            best_fidelity=ceiling, degenerate_redraws=0, restarts_at_best=0,
            restart_sweeps=0, ceiling=ceiling,
        )


def test_gem_bound_path_builds_no_statevector(monkeypatch):
    def refuse(g):
        raise AssertionError(f"statevector built for {g!r}")

    monkeypatch.setattr("graphent.measures.build_graph_state", refuse)
    for e in _entries_at_the_ceiling():
        assert gem(e.graph, GemConfig(seed=0)).method == "bound", e.id
    with pytest.raises(AssertionError, match="statevector built"):
        gem(catalog_get(8).graph)


def test_gem_graphs_off_the_bound_keep_the_see_saw():
    # C5 (id 8) has n - alpha = 3 against max cut-rank 2, id 40 has 4
    # against 3: the bounds do not meet, so the see-saw runs.
    for gid in (8, 40):
        g = catalog_get(gid).graph
        assert g.n - independence_number(g) > -np.log2(_fidelity_ceiling(g))
        res = gem(g)
        d = res.diagnostics
        assert res.method == "see-saw", gid
        assert d.restarts_used == 64
        assert d.ceiling == _fidelity_ceiling(g)
        assert d.best_fidelity <= d.ceiling


def test_gem_interval_holds_on_every_path():
    # [1 - ceiling, value] holds on every path: rounding may not lift a
    # fidelity past its ceiling, on the catalog's statevectors nor on
    # random n = 8 graphs, whose draws take all three Graph paths.
    rng, graphs = random.Random(8), []
    while len(graphs) < 60:
        g = random_graph(rng, 8, 0.4)
        if is_connected(g):
            graphs.append(g)
    results = [(e.id, gem(build_graph_state(e.graph))) for e in all_entries()]
    results += [(g, gem(g)) for g in graphs]
    for where, res in results:
        d = res.diagnostics
        assert d.best_fidelity <= d.ceiling, where
        assert res.value >= 1.0 - d.ceiling, where
    methods = [res.method for _, res in results[45:]]
    assert {"bound", "certified", "see-saw"} <= set(methods)


SEE_SAW_WORK = Path(__file__).parent / "data" / "gem_seesaw_work.json"
_WORK_FIELDS = ("iterations", "restart_sweeps", "restarts_at_best",
                "best_restart_index", "degenerate_redraws", "converged")


def test_gem_see_saw_work_is_pinned():
    # The 8 catalog ids that take the see-saw, at seeds 0 and 7 with the
    # default 64 restarts: the same sweeps, freezes and winner as the
    # recorded run, so a faster kernel does the same work.
    pinned = json.loads(SEE_SAW_WORK.read_text())
    assert sorted({row["id"] for row in pinned}) == [8, 19, 39, 40, 41, 42, 44, 45]
    for row in pinned:
        res = gem(catalog_get(row["id"]).graph, GemConfig(seed=row["seed"]))
        where = (row["id"], row["seed"])
        assert res.method == row["method"], where
        for field in _WORK_FIELDS:
            assert getattr(res.diagnostics, field) == row[field], (where, field)
        assert res.value == pytest.approx(row["value"], rel=0, abs=1e-12), where


_ONE_CORE_GEM = """
import random, resource, time
from graphent.graphs import make_graph
from graphent.measures import gem

def cpu_s():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime

rng = random.Random(0)
pairs = [(i, j) for i in range(1, 15) for j in range(i + 1, 15)]
g = make_graph(14, [p for p in pairs if rng.random() < 0.5])
wall, cpu = time.perf_counter(), cpu_s()
res = gem(g)
print(res.method, (cpu_s() - cpu) / (time.perf_counter() - wall))
"""


def test_gem_see_saw_keeps_to_one_core(child_env):
    # Two BLAS threads allowed, a random 14-vertex graph whose floor and
    # ceiling differ: 0.5 to 1 s of see-saw. A step that reached
    # threaded BLAS (matmul, matvec, vecmat or vecdot on long rows)
    # reads about 2 CPU seconds per wall second; load from other
    # processes can only lower the ratio.
    env = {**child_env, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", _ONE_CORE_GEM], env=env,
                          capture_output=True, text=True, check=True)
    method, ratio = proc.stdout.split()
    assert method == "see-saw"
    assert float(ratio) <= 1.5, ratio


def test_gem_product_state_is_zero():
    rng = np.random.default_rng(21)
    psi = product_vector(random_factors(rng, (4,)))
    res = gem(psi, GemConfig(restarts=8, seed=3))
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_gem_single_qubit_is_zero():
    res = gem(np.array([0.6, 0.8j]), GemConfig(restarts=4, seed=1))
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_gem_deterministic_for_fixed_seed():
    psi = build_graph_state(make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
    r1 = gem(psi, GemConfig(restarts=16, seed=42))
    r2 = gem(psi, GemConfig(restarts=16, seed=42))
    assert r1.value == r2.value
    assert r1.diagnostics == r2.diagnostics


def test_gem_seed_changes_draws_not_value():
    psi = build_graph_state(make_graph(4, [(1, 2), (2, 3), (3, 4)]))
    v1 = gem(psi, GemConfig(restarts=32, seed=0)).value
    v2 = gem(psi, GemConfig(restarts=32, seed=123)).value
    assert v1 == pytest.approx(v2, abs=1e-9)


def test_gem_local_unitary_invariance():
    rng = np.random.default_rng(61)
    psi = build_graph_state(make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    base = gem(psi, GemConfig(restarts=48, seed=0)).value
    rotated = psi
    for q in range(1, 5):
        rotated = apply_local_unitary(rotated, random_unitary(rng), q)
    assert gem(rotated, GemConfig(restarts=48, seed=0)).value == pytest.approx(
        base, abs=1e-6
    )


def test_gem_lc_move_invariance():
    g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    base = gem(build_graph_state(g), GemConfig(restarts=48, seed=0)).value
    for a in (1, 3):
        moved = gem(
            build_graph_state(local_complement(g, a)), GemConfig(restarts=48, seed=0)
        ).value
        assert moved == pytest.approx(base, abs=1e-6)


def test_bipartite_oracle_bell():
    psi = build_graph_state(make_graph(2, [(1, 2)]))
    assert gem_bipartite_oracle(psi, [1]) == pytest.approx(0.5, abs=1e-12)
    assert gem_bipartite_oracle(psi, [2]) == pytest.approx(0.5, abs=1e-12)


def test_bipartite_oracle_product_state():
    rng = np.random.default_rng(77)
    psi = product_vector(random_factors(rng, (3,)))
    for cut in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        assert gem_bipartite_oracle(psi, cut) == pytest.approx(0.0, abs=1e-12)


def test_bipartite_oracle_validation():
    psi = ghz(3)
    with pytest.raises(ValueError):
        gem_bipartite_oracle(psi, [])
    with pytest.raises(ValueError):
        gem_bipartite_oracle(psi, [1, 2, 3])
    for cut in ((1, 1, 1), (9, 1, 2)):
        with pytest.raises(ValueError):
            gem_bipartite_oracle(ghz(4), cut)


def test_bipartite_oracle_lower_bounds_gem():
    srng = random.Random(83)
    for _ in range(6):
        n = srng.randint(2, 5)
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                 if srng.random() < 0.6]
        psi = build_graph_state(make_graph(n, edges))
        val = gem(psi, GemConfig(restarts=48, seed=0)).value
        for r in range(1, n // 2 + 1):
            for cut in itertools.combinations(range(1, n + 1), r):
                assert gem_bipartite_oracle(psi, cut) <= val + 1e-9


def test_brute_force_gem_matches_on_small_graphs():
    psi2 = build_graph_state(make_graph(2, [(1, 2)]))
    assert brute_force_gem(psi2) == pytest.approx(0.5, abs=2e-3)
    psi3 = build_graph_state(make_graph(3, [(1, 2), (1, 3)]))
    got = brute_force_gem(psi3)
    assert got == pytest.approx(0.5, abs=5e-3)
    # grid optimum can only sit at or above the true measure
    assert got >= 0.5 - 1e-9


def test_brute_force_gem_pole_aligned_product_state():
    assert brute_force_gem(ket("01")) == pytest.approx(0.0, abs=1e-15)
    assert brute_force_gem(ket("1")) == pytest.approx(0.0, abs=1e-15)


def test_brute_force_gem_rejects_large_systems():
    with pytest.raises(ValueError):
        brute_force_gem(ghz(4))
    # The grid is fixed at 24 points per angle; it takes no density.
    with pytest.raises(TypeError, match="grid_density"):
        brute_force_gem(ghz(2), grid_density=24)


def test_gem_value_bounds_random_states():
    rng = np.random.default_rng(101)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = raw / np.linalg.norm(raw)
        res = gem(psi, GemConfig(restarts=24, seed=5))
        assert 0.0 <= res.value < 1.0
        assert abs(res.diagnostics.best_fidelity + res.value - 1.0) < 1e-12


def test_gem_redraws_a_degenerate_start(monkeypatch):
    # Restart 0 starts at |0>|1>|0>, orthogonal to both GHZ branches, so its
    # first contraction vanishes and it is redrawn from the next block of
    # the same stream. It then runs exactly as if it had started from the
    # redrawn factors.
    from graphent import measures

    draw = measures._draw_factors
    cfg = GemConfig(restarts=1, seed=0)
    draws = []

    def degenerate_first(rng, count, n):
        draws.append(draw(rng, count, n))
        if len(draws) == 1:
            return np.array([[[1, 0], [0, 1], [1, 0]]], dtype=complex)
        return draws[-1]

    monkeypatch.setattr(measures, "_draw_factors", degenerate_first)
    redrawn = gem(ghz(3), cfg)
    assert len(draws) == 2
    monkeypatch.setattr(measures, "_draw_factors", lambda rng, count, n: draws[1].copy())
    direct = gem(ghz(3), cfg)
    assert redrawn.diagnostics.degenerate_redraws == 1
    assert redrawn.value == direct.value
    assert redrawn.value == pytest.approx(0.5, abs=1e-12)
    assert redrawn.diagnostics.iterations == direct.diagnostics.iterations


def test_gem_start_degenerate_through_every_redraw_raises(monkeypatch):
    # Every draw of restart 0 is |0>|1>|0>, orthogonal to both GHZ
    # branches: after _MAX_REDRAWS redraws gem gives up and names it.
    from graphent import measures

    counts = []

    def always_degenerate(rng, count, n):
        counts.append(count)
        return np.array([[[1, 0], [0, 1], [1, 0]]] * count, dtype=complex)

    monkeypatch.setattr(measures, "_draw_factors", always_degenerate)
    with pytest.raises(DegenerateContractionError, match="restart 0"):
        gem(ghz(3), GemConfig(restarts=1, seed=0))
    assert counts == [1] * (measures._MAX_REDRAWS + 1)


def test_gem_draws_every_start_from_one_stream(monkeypatch):
    # A see-saw call builds one generator and the bound path none; start r
    # is block r of the stream, so the first 64 starts do not depend on
    # the restart count.
    built, draws = [], []
    default_rng, draw = np.random.default_rng, measures._draw_factors

    def counting(*args):
        built.append(args)
        return default_rng(*args)

    def recording(rng, count, n):
        draws.append(draw(rng, count, n))
        return draws[-1].copy()

    monkeypatch.setattr(np.random, "default_rng", counting)
    monkeypatch.setattr(measures, "_draw_factors", recording)
    assert gem(catalog_get(1).graph).method == "bound"
    assert built == []
    for gid, seed in ((8, 0), (40, 7)):
        built.clear()
        draws.clear()
        gem(catalog_get(gid).graph, GemConfig(seed=seed))
        assert built == [(seed,)]
        longer = draw(default_rng(seed), 256, catalog_get(gid).n)
        np.testing.assert_array_equal(longer[:64], draws[0])


def test_gem_contractions_never_fall_below_the_start(monkeypatch):
    # A see-saw update never lowers the fidelity, and each contraction's
    # squared norm is at least the fidelity before it, so no contraction
    # in the sweeps falls below the smallest one at the start. This is
    # why gem checks for degenerate contractions only before sweep 1.
    from graphent import measures

    environments = measures._environments
    calls = []

    def recording(psi, factors):
        calls.append([])
        for env in environments(psi, factors):
            calls[-1].append(np.linalg.norm(env, axis=1))
            yield env

    monkeypatch.setattr(measures, "_environments", recording)

    def check(state, cfg):
        calls.clear()
        gem(state, cfg)
        # The first call is the start check; sweep 1 is the second.
        start, sweeps = calls[0][0], [x for c in calls[1:] for x in c]
        assert len(calls) > 1
        assert np.min(np.concatenate(sweeps)) >= np.min(start) * (1 - 1e-12)

    for gid in (8, 19, 39, 40, 41, 42, 44, 45):
        for seed in (0, 7):
            check(catalog_get(gid).graph, GemConfig(seed=seed))

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def states(draw):
        n = draw(st.integers(2, 6))
        parts = st.floats(-1.0, 1.0, allow_nan=False)
        raw = draw(st.lists(parts, min_size=2 ** (n + 1), max_size=2 ** (n + 1)))
        psi = np.array(raw[::2]) + 1j * np.array(raw[1::2])
        hypothesis.assume(np.linalg.norm(psi) > 1e-6)
        return psi

    settings = hypothesis.settings(max_examples=30, deadline=None, database=None,
                                   derandomize=True)
    settings(hypothesis.given(states())(
        lambda psi: check(psi, GemConfig(restarts=8, seed=3))))()
