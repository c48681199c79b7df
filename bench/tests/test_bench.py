"""Tests of the benchmark's own arithmetic, oracles and input generation.

    python3 -m pytest bench/tests -q
"""

import json
from functools import partial

import numpy as np
import pytest

import graphent
import oracles
import run
import workloads
from hostspeed import REF_LOOP_S, corrected
from stats import MIN_BEYOND, percentile, quartile_spread, samples_needed
from tracing import Tracer, layer_totals, self_times

ROOT = run.ROOT


def span(name, start, end, parent=None, item="i"):
    return [name, start, end, parent, item]


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("d", 2.0, 3.0, parent=1),
        span("c", 5.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    # Self times partition the outermost span.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 6.0, 0), span("c", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_totals_report_zero_for_layers_that_never_fire():
    spans = [span("x.f", 0.0, 2.0), span("x.g", 0.5, 1.0, 0), span("x.g", 3.0, 4.0)]
    totals = layer_totals(spans, ["x.f", "x.g", "x.never"])
    assert totals["x.f"] == {"calls": 1, "self_s": pytest.approx(1.5)}
    assert totals["x.g"] == {"calls": 2, "self_s": pytest.approx(1.5)}
    assert totals["x.never"] == {"calls": 0, "self_s": 0.0}


def test_tracer_catches_calls_in_every_namespace_and_restores_them():
    from graphent import cli, graphs

    originals = (graphs.canonical_form, cli.canonical_form, graphent.lc_orbit)
    tracer = Tracer(["graphs.lc_orbit", "graphs.canonical_form", "measures.gem"])
    g = graphent.make_graph(4, [(1, 2), (2, 3), (3, 4)])
    with tracer:
        tracer.item = "path4"
        orbit = graphent.lc_orbit(g)
        cli.canonical_form(g)
    assert (graphs.canonical_form, cli.canonical_form, graphent.lc_orbit) == originals

    names = [s[0] for s in tracer.spans]
    assert names[0] == "graphs.lc_orbit" and names[-1] == "graphs.canonical_form"
    assert tracer.spans[-1][3] is None
    inner = [s for s in tracer.spans[1:-1]]
    assert inner and all(s[0] == "graphs.canonical_form" and s[3] == 0 for s in inner)
    assert {s[4] for s in tracer.spans} == {"path4"}
    assert tracer.counts["graphs.lc_orbit"]["reps"] == orbit.size
    totals = layer_totals(tracer.spans, tracer.layers)
    assert totals["measures.gem"]["calls"] == 0


def test_tracer_reads_gem_work_counts():
    tracer = Tracer(["measures.gem"])
    state = graphent.build_graph_state(graphent.make_graph(3, [(1, 2), (2, 3)]))
    with tracer:
        result = graphent.gem(state, graphent.GemConfig(restarts=8))
    d = result.diagnostics
    counts = tracer.counts["measures.gem"]
    assert counts["sweeps"] == d.iterations
    assert counts["restart_sweeps"] == 8 * d.iterations
    assert counts["restarts_at_best"] == d.restarts_at_best


def test_percentile_needs_ten_samples_beyond_tail():
    xs = [float(i) for i in range(samples_needed(0.9))]
    value = percentile(xs, 0.9)
    assert sum(x > value for x in xs) >= MIN_BEYOND
    with pytest.raises(ValueError):
        percentile(xs[:-1], 0.9)
    with pytest.raises(ValueError):
        percentile(list(range(50)), 0.9)
    assert percentile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert samples_needed(0.9) < 110


def test_percentile_moves_little_when_a_sample_crosses_a_gap():
    low = [1.0 + 0.01 * i for i in range(50)]
    high = [2.0 + 0.01 * i for i in range(50)]
    crossed = low + [1.495] + high[1:]
    assert 1.49 < percentile(low + high, 0.5) < 2.0
    assert abs(percentile(crossed, 0.5) - percentile(low + high, 0.5)) < 0.05
    rng = np.random.default_rng(1)
    normal = rng.standard_normal(400)
    assert percentile(normal, 0.9) == pytest.approx(np.quantile(normal, 0.9), abs=0.05)


def test_quartile_spread_matches_its_definition():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert quartile_spread([2.0] * 10) == 0.0


def test_correction_rescales_to_the_reference_loop_speed():
    assert corrected(2.0, REF_LOOP_S, REF_LOOP_S) == pytest.approx(2.0)
    assert corrected(2.0, 2 * REF_LOOP_S, 2 * REF_LOOP_S) == pytest.approx(1.0)
    # The loops before and after the item are averaged.
    assert corrected(3.0, REF_LOOP_S, 2 * REF_LOOP_S) == pytest.approx(2.0)


def test_run_pass_times_every_item_and_goes_on_after_a_failure():
    def wrong():
        raise workloads.Failed("no")

    records = run.run_pass([("a", lambda: None), ("b", wrong), ("c", lambda: None)])
    assert [r[0] for r in records] == ["a", "b", "c"]
    assert [r[3] for r in records] == [None, "Failed: no", None]
    assert all(r[1] >= 0.0 and r[2] >= 0.0 for r in records)


def graphs_up_to_8():
    rng = np.random.default_rng(5)
    for entry in workloads.load_catalog(ROOT).values():
        yield entry["n"], entry["edges"]
    for n in (3, 6, 8):
        yield n, oracles.cycle_edges(n, rng)
        yield n, oracles.random_connected_edges(n, rng, 0.3)


def test_cut_rank_oracle_matches_statevector_gcm():
    for n, edges in graphs_up_to_8():
        state = graphent.build_graph_state(graphent.make_graph(n, edges))
        assert oracles.gcm_by_cut_rank(n, edges) == pytest.approx(
            graphent.gcm(state).value, abs=1e-9)


def test_oracle_graph_state_and_canonical_form_match_graphent():
    for n, edges in graphs_up_to_8():
        g = graphent.make_graph(n, edges)
        assert np.allclose(oracles.graph_state(n, edges), graphent.build_graph_state(g))
        if n <= 7:
            assert oracles.canonical_edges(n, edges) == graphent.canonical_form(g).edges


def test_lc_walk_stays_in_the_lc_class():
    rng = np.random.default_rng(2)
    edges = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))
    walk = oracles.lc_walk(7, edges, rng, 14)
    assert graphent.are_lc_equivalent(graphent.make_graph(7, edges),
                                      graphent.make_graph(7, walk))


def test_global_phase_leaves_see_saw_work_unchanged():
    state = oracles.graph_state(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    cfg = graphent.GemConfig(seed=0)
    plain = graphent.gem(state, cfg)
    turned = graphent.gem(np.exp(2.1j) * state, cfg)
    assert turned.diagnostics.iterations == plain.diagnostics.iterations
    assert turned.value == pytest.approx(plain.value, abs=1e-12)


def comparable(items):
    """A pass's item ids and the inputs bound into each query."""
    out = []
    for item_id, query in items:
        args = []
        for arg in query.args if isinstance(query, partial) else ():
            if isinstance(arg, np.ndarray):
                args.append(arg.tobytes())
            elif not isinstance(arg, dict):  # per-pass result collectors
                args.append(arg)
        out.append((item_id, args))
    return out


def build(name, seed):
    catalog = workloads.load_catalog(ROOT)
    expected = json.loads((run.BENCH / "expected.json").read_text())
    return workloads.WORKLOADS[name](seed, catalog, expected)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_inputs(name):
    a, b, c = build(name, 3), build(name, 3), build(name, 4)
    for k in (0, 1):
        assert comparable(a.make_pass(k)) == comparable(b.make_pass(k))
    assert comparable(a.make_pass(0)) != comparable(a.make_pass(1))
    assert comparable(a.make_pass(0)) != comparable(c.make_pass(0))


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_per_layer_reports_exactly_the_declared_metrics():
    tracer = Tracer(spec["function"] for spec in run.layer_specs())
    state = graphent.build_graph_state(graphent.make_graph(3, [(1, 2), (2, 3)]))
    with tracer:
        graphent.gem(state, graphent.GemConfig(restarts=4))
    values = run.per_layer(tracer, plain=[1.0], traced=[1.0])
    assert values.keys() == run.per_layer_units().keys()
    assert values["measures.gem.calls"] == 1
    assert values["graphs.lc_orbit.calls"] == 0


def test_refuses_more_threads_than_cores(monkeypatch):
    import os

    monkeypatch.setenv("OMP_NUM_THREADS", str(len(os.sched_getaffinity(0)) + 1))
    with pytest.raises(SystemExit):
        run.pin_threads()
