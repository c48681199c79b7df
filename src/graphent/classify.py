"""Equal-measure classes over the catalog and their resolution power.

Graphs whose measure values agree within a tolerance form one class;
the count of classes relative to the count of canonical graph classes
says how well a measure distinguishes inequivalent graphs:

    RP = 100 * eta_measure / eta_kappa

Per-vertex-count tables regroup within each n; a cumulative table
groups all 45 catalog graphs jointly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from graphent.catalog import (
    CANONICAL_CLASS_COUNTS,
    all_entries,
    catalog_size,
    ids_with_n,
)
from graphent.measures import GemConfig, gcm, gem

DEFAULT_GROUPING_TOL = 1e-4
_CUMULATIVE_LABEL = f"up to {max(CANONICAL_CLASS_COUNTS)}"


@dataclass(frozen=True)
class MeasureClass:
    class_index: int
    value: float
    members: tuple[int, ...]


@dataclass(frozen=True)
class RpEntry:
    """Class counts and resolution power for one vertex count (or overall)."""

    n: int | None
    eta_measure: int
    eta_kappa: int
    rp: float


@dataclass(frozen=True)
class ClassificationReport:
    measure_kind: str
    classes: tuple[MeasureClass, ...]
    per_n: tuple[RpEntry, ...]
    cumulative: RpEntry


def group_by_value(values, tol: float = DEFAULT_GROUPING_TOL) -> list[MeasureClass]:
    """Single-linkage grouping of (id, value) pairs on the value axis.

    After sorting by value, a gap larger than tol starts a new class.
    Class order is ascending in value; the stored value is the member
    mean rounded to 5 decimals. Input order never matters.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    pairs = sorted(values, key=lambda iv: (iv[1], iv[0]))
    classes: list[MeasureClass] = []
    run: list[tuple[int, float]] = []
    for gid, val in pairs:
        if run and val - run[-1][1] > tol:
            classes.append(_finish_class(len(classes) + 1, run))
            run = []
        run.append((gid, float(val)))
    if run:
        classes.append(_finish_class(len(classes) + 1, run))
    return classes


def _finish_class(index: int, run) -> MeasureClass:
    members = tuple(sorted(g for g, _ in run))
    mean = sum(v for _, v in run) / len(run)
    return MeasureClass(class_index=index, value=round(mean, 5), members=members)


def resolution_power(eta_measure: int, eta_kappa: int) -> float:
    """Percentage of canonical classes the measure distinguishes."""
    if eta_kappa < 1:
        raise ValueError(f"eta_kappa must be >= 1, got {eta_kappa}")
    return 100.0 * eta_measure / eta_kappa


def rp_fraction(eta_measure: int, eta_kappa: int) -> str:
    """Exact ratio as a reduced fraction string, e.g. '3/5'."""
    f = Fraction(eta_measure, eta_kappa)
    return f"{f.numerator}/{f.denominator}"


def measure_values(kind: str, cfg: GemConfig | None = None) -> list[tuple[int, float]]:
    """(id, value) for all catalog graphs under one measure.

    The geometric measure runs with the same config (and so the same
    restart streams) for every graph; values are deterministic per seed.
    """
    kind = kind.upper()
    if kind not in ("GCM", "GEM"):
        raise ValueError(f"unknown measure kind {kind!r}")
    measure = gcm if kind == "GCM" else lambda g: gem(g, cfg)
    return [(e.id, measure(e.graph).value) for e in all_entries()]


def build_report(kind: str, cfg: GemConfig | None = None,
                 tol: float = DEFAULT_GROUPING_TOL,
                 values: list[tuple[int, float]] | None = None) -> ClassificationReport:
    """Full classification: cumulative classes plus per-n regrouping.

    Precomputed (id, value) pairs can be passed to avoid re-measuring.
    """
    kind = kind.upper()
    if values is None:
        values = measure_values(kind, cfg)
    by_id = dict(values)
    if set(by_id) != {e.id for e in all_entries()}:
        raise ValueError("values must cover exactly the catalog ids")
    per_n = []
    for n, kappa in sorted(CANONICAL_CLASS_COUNTS.items()):
        eta = len(group_by_value([(g, by_id[g]) for g in ids_with_n(n)], tol))
        per_n.append(RpEntry(n, eta, kappa, resolution_power(eta, kappa)))
    classes = tuple(group_by_value(values, tol))
    eta_all = len(classes)
    cumulative = RpEntry(None, eta_all, catalog_size(),
                         resolution_power(eta_all, catalog_size()))
    return ClassificationReport(
        measure_kind=kind,
        classes=classes,
        per_n=tuple(per_n),
        cumulative=cumulative,
    )


def report_to_dict(report: ClassificationReport) -> dict:
    """JSON-ready form with a fixed key order."""
    return {
        "measure": report.measure_kind,
        "classes": [
            {"index": c.class_index, "value": c.value, "members": list(c.members)}
            for c in report.classes
        ],
        "per_n": [
            {
                "n": e.n,
                "eta_measure": e.eta_measure,
                "eta_kappa": e.eta_kappa,
                "rp": e.rp,
            }
            for e in report.per_n
        ],
        "cumulative": {
            "eta_measure": report.cumulative.eta_measure,
            "eta_kappa": report.cumulative.eta_kappa,
            "rp": report.cumulative.rp,
        },
    }


def render_report_text(report: ClassificationReport) -> str:
    lines = [f"{report.measure_kind} classes (catalog graphs, ascending value)", ""]
    lines.append(f"{'Class':>5}  {report.measure_kind:>8}  Graph No.")
    for c in report.classes:
        members = ", ".join(str(m) for m in c.members)
        lines.append(f"{c.class_index:>5}  {c.value:>8.5f}  {members}")
    lines.append("")
    lines.append(f"{'n':>8}  {'classes':>7}  {'canonical':>9}  RP")
    for e in report.per_n:
        lines.append(
            f"{e.n:>8}  {e.eta_measure:>7}  {e.eta_kappa:>9}  "
            f"{e.rp:.2f} ({rp_fraction(e.eta_measure, e.eta_kappa)})"
        )
    c = report.cumulative
    lines.append(
        f"{_CUMULATIVE_LABEL:>8}  {c.eta_measure:>7}  {c.eta_kappa:>9}  "
        f"{c.rp:.2f} ({rp_fraction(c.eta_measure, c.eta_kappa)})"
    )
    return "\n".join(lines) + "\n"


def render_report_csv(report: ClassificationReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["class", "value", "members"])
    for c in report.classes:
        w.writerow([c.class_index, f"{c.value:.5f}", " ".join(map(str, c.members))])
    w.writerow([])
    w.writerow(["n", "eta_measure", "eta_kappa", "rp"])
    for e in report.per_n:
        w.writerow([e.n, e.eta_measure, e.eta_kappa, repr(e.rp)])
    c = report.cumulative
    w.writerow(["all", c.eta_measure, c.eta_kappa, repr(c.rp)])
    return buf.getvalue()


def build_rp_table(cfg: GemConfig | None = None,
                   tol: float = DEFAULT_GROUPING_TOL) -> dict:
    """Both measures side by side, per n and cumulative."""
    gcm_report = build_report("GCM", cfg, tol)
    gem_report = build_report("GEM", cfg, tol)
    rows = []
    for a, b in zip(gcm_report.per_n, gem_report.per_n):
        rows.append(
            {
                "n": a.n,
                "eta_gcm": a.eta_measure,
                "eta_gem": b.eta_measure,
                "eta_kappa": a.eta_kappa,
                "rp_gcm": a.rp,
                "rp_gem": b.rp,
            }
        )
    ca, cb = gcm_report.cumulative, gem_report.cumulative
    return {
        "per_n": rows,
        "cumulative": {
            "eta_gcm": ca.eta_measure,
            "eta_gem": cb.eta_measure,
            "eta_kappa": ca.eta_kappa,
            "rp_gcm": ca.rp,
            "rp_gem": cb.rp,
        },
    }


def render_rp_table_text(table: dict) -> str:
    head = (f"{'n':>7}  {'eta_GCM':>7}  {'eta_GEM':>7}  {'eta_kappa':>9}  "
            f"{'RP_GCM':>14}  {'RP_GEM':>14}")
    lines = [head]

    def fmt(row, label) -> str:
        rp_g = f"{row['rp_gcm']:.2f} ({rp_fraction(row['eta_gcm'], row['eta_kappa'])})"
        rp_e = f"{row['rp_gem']:.2f} ({rp_fraction(row['eta_gem'], row['eta_kappa'])})"
        return (f"{label:>7}  {row['eta_gcm']:>7}  {row['eta_gem']:>7}  "
                f"{row['eta_kappa']:>9}  {rp_g:>14}  {rp_e:>14}")

    for row in table["per_n"]:
        lines.append(fmt(row, str(row["n"])))
    lines.append(fmt(table["cumulative"], _CUMULATIVE_LABEL))
    return "\n".join(lines) + "\n"


def render_rp_table_csv(table: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "eta_gcm", "eta_gem", "eta_kappa", "rp_gcm", "rp_gem"])
    for row in table["per_n"]:
        w.writerow([row["n"], row["eta_gcm"], row["eta_gem"], row["eta_kappa"],
                    repr(row["rp_gcm"]), repr(row["rp_gem"])])
    c = table["cumulative"]
    w.writerow(["all", c["eta_gcm"], c["eta_gem"], c["eta_kappa"],
                repr(c["rp_gcm"]), repr(c["rp_gem"])])
    return buf.getvalue()
