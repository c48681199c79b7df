"""Classification and resolution-power tests."""

import json
import random

import pytest

from graphent.classify import (
    build_report,
    build_rp_table,
    group_by_value,
    measure_values,
    render_report_text,
    render_rp_table_text,
    report_csv_rows,
    report_to_dict,
    resolution_power,
    rp_fraction,
    rp_table_csv_rows,
    rp_table_to_dict,
)
from graphent.measures import GemConfig


@pytest.fixture(scope="module")
def gem_values():
    return measure_values("GEM", GemConfig(restarts=64, seed=0))


@pytest.fixture(scope="module")
def gcm_values():
    return measure_values("GCM")


def test_group_singletons():
    classes = group_by_value([(1, 1.0), (2, 2.0), (3, 3.0)], tol=1e-4)
    assert [c.members for c in classes] == [(1,), (2,), (3,)]
    assert [c.class_index for c in classes] == [1, 2, 3]


def test_group_merges_within_tol():
    classes = group_by_value([(7, 1.54110), (10, 1.54112)], tol=1e-4)
    assert len(classes) == 1
    assert classes[0].members == (7, 10)
    assert classes[0].value == pytest.approx(1.54111, abs=1e-9)


def test_group_single_linkage_chains():
    # consecutive gaps below tol chain into one class even though the
    # endpoints differ by more than tol
    vals = [(1, 0.0), (2, 0.00008), (3, 0.00016)]
    assert len(group_by_value(vals, tol=1e-4)) == 1
    assert len(group_by_value(vals, tol=5e-5)) == 3


def test_group_permutation_invariant():
    rng = random.Random(3)
    vals = [(i, v) for i, v in enumerate([0.5, 0.1, 0.1000001, 0.9, 0.50005])]
    ref = group_by_value(vals)
    for _ in range(10):
        rng.shuffle(vals)
        assert group_by_value(vals) == ref


def test_group_tol_validation():
    with pytest.raises(ValueError):
        group_by_value([(1, 1.0)], tol=0.0)


def test_group_rejects_non_finite_values():
    # NaN compares false both ways, so it once joined one class with
    # every value around it.
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="id 2 is not finite"):
            group_by_value([(1, 1.0), (2, bad), (3, 1.0)])


def test_report_rejects_a_non_finite_value(gcm_values):
    # id 7 at NaN once merged ids 6, 7 and 20 into one GCM class.
    values = [(gid, float("nan") if gid == 7 else v) for gid, v in gcm_values]
    with pytest.raises(ValueError, match="id 7 is not finite"):
        build_report("GCM", values=values)


def test_resolution_power():
    assert resolution_power(27, 45) == pytest.approx(60.0)
    assert resolution_power(7, 45) == pytest.approx(100.0 * 7 / 45)
    assert resolution_power(5, 5) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        resolution_power(1, 0)


def test_rp_fraction():
    assert rp_fraction(27, 45) == "3/5"
    assert rp_fraction(7, 45) == "7/45"
    assert rp_fraction(4, 4) == "1/1"


def test_rp_fraction_follows_resolution_powers_rule():
    for kappa in (0, -5):
        with pytest.raises(ValueError, match="eta_kappa must be >= 1"):
            rp_fraction(1, kappa)
        with pytest.raises(ValueError, match="eta_kappa must be >= 1"):
            resolution_power(1, kappa)


def test_gcm_report_structure(gcm_values):
    report = build_report("GCM", values=gcm_values)
    assert report.measure_kind == "GCM"
    assert len(report.classes) == 27
    assert [e.eta_measure for e in report.per_n] == [1, 1, 2, 4, 9, 16]
    assert [e.eta_kappa for e in report.per_n] == [1, 1, 2, 4, 11, 26]
    assert report.cumulative.eta_measure == 27
    assert report.cumulative.eta_kappa == 45
    assert report.cumulative.rp == pytest.approx(60.0)
    by_members = {c.members: c.value for c in report.classes}
    assert by_members[(7, 10)] == pytest.approx(1.54110, abs=1e-5)
    assert by_members[(40, 42, 43, 45)] == pytest.approx(1.75000, abs=1e-5)


def test_gem_report_structure(gem_values):
    report = build_report("GEM", values=gem_values)
    assert len(report.classes) == 7
    assert [c.value for c in report.classes] == pytest.approx(
        [0.50000, 0.75000, 0.86855, 0.87500, 0.91667, 0.93428, 0.93750], abs=2e-5
    )
    members = [c.members for c in report.classes]
    assert members[0] == (1, 2, 3, 5, 9, 20)
    assert members[1] == (4, 6, 7, 10, 11, 12, 15, 21, 22, 23, 24, 31)
    assert members[2] == (8,)
    assert members[3] == (13, 14, 16, 17, 18, 25, 26, 27, 28, 29, 30, 32, 33, 34,
                          35, 36, 37, 38, 43)
    assert members[4] == (19,)
    assert members[5] == (39, 41, 45)
    assert members[6] == (40, 42, 44)
    assert [e.eta_measure for e in report.per_n] == [1, 1, 2, 3, 4, 5]


def test_report_values_must_cover_catalog(gcm_values):
    with pytest.raises(ValueError):
        build_report("GCM", values=[(1, 1.0)])
    # Each id once: a second value for id 1 would join the cumulative
    # classes but not its per-n row.
    with pytest.raises(ValueError):
        build_report("GCM", values=gcm_values + [(1, 1.9)])


def test_report_to_dict_schema(gcm_values):
    d = report_to_dict(build_report("GCM", values=gcm_values))
    assert set(d) == {"measure", "classes", "per_n", "cumulative"}
    assert d["measure"] == "GCM"
    assert all(set(c) == {"index", "value", "members"} for c in d["classes"])
    assert all(set(e) == {"n", "eta_measure", "eta_kappa", "rp"} for e in d["per_n"])
    assert set(d["cumulative"]) == {"eta_measure", "eta_kappa", "rp"}
    json.dumps(d)  # serializable


def test_render_report_text(gcm_values):
    text = render_report_text(build_report("GCM", values=gcm_values))
    assert "7, 10" in text
    assert "1.54110" in text
    assert "60.00 (3/5)" in text


def test_render_report_csv(gcm_values):
    rows = report_csv_rows(build_report("GCM", values=gcm_values))
    assert rows[0] == ["class", "value", "members"]
    assert any(row and row[-1].endswith("40 42 43 45") for row in rows)


def test_rp_table(gcm_values, gem_values):
    # reuse precomputed values through the report path for speed
    gcm_report = build_report("GCM", values=gcm_values)
    gem_report = build_report("GEM", values=gem_values)
    rows = []
    for a, b in zip(gcm_report.per_n, gem_report.per_n):
        rows.append((a.n, a.eta_measure, b.eta_measure, a.eta_kappa))
    assert rows == [
        (2, 1, 1, 1),
        (3, 1, 1, 1),
        (4, 2, 2, 2),
        (5, 4, 3, 4),
        (6, 9, 4, 11),
        (7, 16, 5, 26),
    ]


def test_rp_table_build_and_render():
    table = build_rp_table(GemConfig(restarts=48, seed=0))
    d = rp_table_to_dict(table)
    assert [r["n"] for r in d["per_n"]] == [2, 3, 4, 5, 6, 7]
    assert d["cumulative"]["eta_kappa"] == 45
    text = render_rp_table_text(table)
    assert "up to 7" in text
    rows = rp_table_csv_rows(table)
    assert rows[0] == ["n", "eta_gcm", "eta_gem", "eta_kappa", "rp_gcm", "rp_gem"]


def test_unknown_measure_kind(gcm_values):
    with pytest.raises(ValueError):
        measure_values("entropy")
    with pytest.raises(ValueError, match="unknown measure kind 'ENTROPY'"):
        build_report("entropy", values=gcm_values)
