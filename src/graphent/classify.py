"""Equal-measure classes over the catalog and their resolution power.

Graphs whose measure values agree within a tolerance form one class;
the count of classes relative to the count of canonical graph classes
says how well a measure distinguishes inequivalent graphs:

    RP = 100 * eta_measure / eta_kappa

Per-vertex-count rows regroup within each n and a cumulative row groups
all catalog graphs jointly. eta_kappa is counted from the catalog
entries themselves, which hold one representative per canonical class.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from graphent.catalog import all_entries
from graphent.measures import GemConfig, gcm, gem

DEFAULT_GROUPING_TOL = 1e-4


@dataclass(frozen=True)
class MeasureClass:
    """One equal-measure class: its 1-based index in ascending value order,
    the members' mean value rounded to 5 decimals, and the sorted ids."""

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
    """A measure's classes over the whole catalog, with resolution power
    per vertex count and cumulatively."""

    measure_kind: str
    classes: tuple[MeasureClass, ...]
    per_n: tuple[RpEntry, ...]
    cumulative: RpEntry


RpTable = tuple[ClassificationReport, ClassificationReport]


def group_by_value(values, tol: float = DEFAULT_GROUPING_TOL) -> list[MeasureClass]:
    """Single-linkage grouping of (id, value) pairs on the value axis.

    After sorting by value, a gap larger than tol starts a new class.
    Class order is ascending in value; the stored value is the member
    mean rounded to 5 decimals. Input order never matters. A NaN or
    infinite value raises ValueError.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    pairs = sorted(values, key=lambda iv: (iv[1], iv[0]))
    classes: list[MeasureClass] = []
    run: list[tuple[int, float]] = []
    for gid, val in pairs:
        if not math.isfinite(val):
            raise ValueError(f"value of id {gid} is not finite: {val!r}")
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


def _checked_kappa(eta_measure: int, eta_kappa: int) -> int:
    if eta_kappa < 1:
        raise ValueError(f"eta_kappa must be >= 1, got {eta_kappa}")
    if not 0 <= eta_measure <= eta_kappa:
        raise ValueError(f"eta_measure must be in 0..{eta_kappa}, got {eta_measure}")
    return eta_kappa


def resolution_power(eta_measure: int, eta_kappa: int) -> float:
    """Percentage of canonical classes the measure distinguishes."""
    return 100.0 * eta_measure / _checked_kappa(eta_measure, eta_kappa)


def rp_fraction(eta_measure: int, eta_kappa: int) -> str:
    """Exact ratio as a reduced fraction string, e.g. '3/5'."""
    f = Fraction(eta_measure, _checked_kappa(eta_measure, eta_kappa))
    return f"{f.numerator}/{f.denominator}"


def _rp_entry(n: int | None, eta_measure: int, eta_kappa: int) -> RpEntry:
    return RpEntry(n, eta_measure, eta_kappa, resolution_power(eta_measure, eta_kappa))


def _measure_kind(kind: str) -> str:
    kind = kind.upper()
    if kind not in ("GCM", "GEM"):
        raise ValueError(f"unknown measure kind {kind!r}")
    return kind


def measure_values(kind: str, cfg: GemConfig | None = None) -> list[tuple[int, float]]:
    """(id, value) for all catalog graphs under one measure.

    The geometric measure runs with the same config (and so the same
    restart streams) for every graph; values are deterministic per seed.
    """
    kind = _measure_kind(kind)
    measure = gcm if kind == "GCM" else lambda g: gem(g, cfg)
    return [(e.id, measure(e.graph).value) for e in all_entries()]


def build_report(kind: str, values: list[tuple[int, float]]) -> ClassificationReport:
    """Full classification of (id, value) pairs, one per catalog id, such
    as measure_values gives: cumulative classes plus per-n regrouping,
    both grouped at DEFAULT_GROUPING_TOL. A row's eta_kappa is its number
    of catalog entries.
    """
    kind = _measure_kind(kind)
    entries = all_entries()
    by_id = dict(values)
    if len(by_id) != len(values) or set(by_id) != {e.id for e in entries}:
        raise ValueError("values must hold exactly one value per catalog id")
    by_n: dict[int, list[tuple[int, float]]] = {}
    for e in entries:
        by_n.setdefault(e.n, []).append((e.id, by_id[e.id]))
    classes = tuple(group_by_value(by_id.items()))
    return ClassificationReport(
        measure_kind=kind,
        classes=classes,
        per_n=tuple(_rp_entry(n, len(group_by_value(group)), len(group))
                    for n, group in sorted(by_n.items())),
        cumulative=_rp_entry(None, len(classes), len(entries)),
    )


def _rp_rows(report: ClassificationReport):
    """(table label, csv label, entry) for each n, then the cumulative row."""
    for e in report.per_n:
        yield str(e.n), str(e.n), e
    yield f"up to {report.per_n[-1].n}", "all", report.cumulative


def _rp_text(e: RpEntry) -> str:
    return f"{e.rp:.2f} ({rp_fraction(e.eta_measure, e.eta_kappa)})"


def report_to_dict(report: ClassificationReport) -> dict:
    """JSON-ready form with a fixed key order."""
    *per_n, cumulative = [asdict(e) for *_, e in _rp_rows(report)]
    del cumulative["n"]
    return {
        "measure": report.measure_kind,
        "classes": [{"index": c.class_index, "value": c.value, "members": list(c.members)}
                    for c in report.classes],
        "per_n": per_n,
        "cumulative": cumulative,
    }


def render_report_text(report: ClassificationReport) -> str:
    lines = [f"{report.measure_kind} classes (catalog graphs, ascending value)", ""]
    lines.append(f"{'Class':>5}  {report.measure_kind:>8}  Graph No.")
    for c in report.classes:
        members = ", ".join(str(m) for m in c.members)
        lines.append(f"{c.class_index:>5}  {c.value:>8.5f}  {members}")
    lines.append("")
    lines.append(f"{'n':>8}  {'classes':>7}  {'canonical':>9}  RP")
    for label, _, e in _rp_rows(report):
        lines.append(f"{label:>8}  {e.eta_measure:>7}  {e.eta_kappa:>9}  {_rp_text(e)}")
    return "\n".join(lines) + "\n"


def report_csv_rows(report: ClassificationReport) -> list[list]:
    """CSV rows: the classes, a blank row, then the resolution-power rows."""
    return ([["class", "value", "members"]]
            + [[c.class_index, f"{c.value:.5f}", " ".join(map(str, c.members))]
               for c in report.classes]
            + [[], ["n", "eta_measure", "eta_kappa", "rp"]]
            + [[label, e.eta_measure, e.eta_kappa, repr(e.rp)]
               for _, label, e in _rp_rows(report)])


def build_rp_table(cfg: GemConfig | None = None) -> RpTable:
    """The GCM and the GEM report, shown side by side as the rp-table."""
    return (build_report("GCM", measure_values("GCM")),
            build_report("GEM", measure_values("GEM", cfg)))


def rp_table_to_dict(table: RpTable) -> dict:
    """JSON-ready form with a fixed key order."""
    *per_n, cumulative = [
        {"n": a.n, "eta_gcm": a.eta_measure, "eta_gem": b.eta_measure,
         "eta_kappa": a.eta_kappa, "rp_gcm": a.rp, "rp_gem": b.rp}
        for (*_, a), (*_, b) in zip(*map(_rp_rows, table))
    ]
    del cumulative["n"]
    return {"per_n": per_n, "cumulative": cumulative}


def render_rp_table_text(table: RpTable) -> str:
    lines = [f"{'n':>7}  {'eta_GCM':>7}  {'eta_GEM':>7}  {'eta_kappa':>9}  "
             f"{'RP_GCM':>14}  {'RP_GEM':>14}"]
    for (label, _, a), (*_, b) in zip(*map(_rp_rows, table)):
        lines.append(f"{label:>7}  {a.eta_measure:>7}  {b.eta_measure:>7}  "
                     f"{a.eta_kappa:>9}  {_rp_text(a):>14}  {_rp_text(b):>14}")
    return "\n".join(lines) + "\n"


def rp_table_csv_rows(table: RpTable) -> list[list]:
    return [["n", "eta_gcm", "eta_gem", "eta_kappa", "rp_gcm", "rp_gem"]] + [
        [label, a.eta_measure, b.eta_measure, a.eta_kappa, repr(a.rp), repr(b.rp)]
        for (_, label, a), (*_, b) in zip(*map(_rp_rows, table))]
