"""Command-line interface.

Every pipeline stage is exposed as a subcommand with reproducible
output: state, gcm, gem, lc, orbit, equiv, classify, rp-table, and
verify-catalog. Each graph comes from exactly one source: the built-in
catalog (--graph N), inline edges (--edges "1 2,1 3"), or an edge-list
file (--file PATH); a missing or doubled source is a usage error
(exit 2). verify-catalog runs its five checks on every call, among
them equiv's test, are_lc_equivalent, on every pair of catalog graphs.
--seed (gem, classify, rp-table) is the only tuning flag: the see-saw
always runs GemConfig's default restart count.

Amplitude dumps order basis states with qubit 1 as the most
significant bit: |q1 q2 ... qn> sits at index q1*2^(n-1) + ... + qn.
Text output rounds to 5 decimals; JSON keeps full precision. All
randomness is seeded (default seed 0), so identical invocations
produce identical bytes.

main alone picks the output format and writes: to --out, or else to
sys.stdout, looked up at write time so that callers may redirect it.
Each cmd_* returns a Result, its exit code and a render(fmt) that
builds only the requested format: the text for table, or rows (lists
of cells) for csv and a JSON object for json, which main serializes.
It writes JSON with _json, byte for byte json.dumps(obj, indent=2).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import sys
from collections.abc import Callable

from graphent.catalog import (
    all_entries,
    catalog_get,
    catalog_size,
    parse_edge_list,
)
from graphent.classify import (
    build_report,
    build_rp_table,
    measure_values,
    render_report_text,
    render_rp_table_text,
    report_csv_rows,
    report_to_dict,
    rp_table_csv_rows,
    rp_table_to_dict,
)
from graphent.graphs import (
    Graph,
    OrbitBudgetExceeded,
    are_lc_equivalent,
    canonical_form,
    is_connected,
    lc_orbit,
    local_complement,
)
from graphent.measures import DegenerateContractionError, GemConfig, gcm, gem
from graphent.states import (
    build_graph_state,
    inner_product,
    lc_unitary_apply,
    stabilizer_expectation,
)


Result = tuple[int, Callable[[str], dict | list | str]]


def _load_graph(args, suffix: str = "") -> Graph:
    if (gid := getattr(args, "graph" + suffix)) is not None:
        return catalog_get(gid).graph
    if (edges := getattr(args, "edges" + suffix)) is not None:
        return parse_edge_list(edges.replace(",", "\n"))
    with open(getattr(args, "file" + suffix)) as fh:
        return parse_edge_list(fh.read())


def _inline(n: int, edges) -> str:
    """Inline edges, led by "n N" if vertex n is isolated, so they parse back."""
    head = [] if any(j == n for _, j in edges) else [f"n {n}"]
    return ",".join(head + [f"{i} {j}" for i, j in edges])


def _graph_dict(n: int, edges) -> dict:
    return {"n": n, "edges": [[i, j] for i, j in edges]}


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), written directly; pad leads obj's closing bracket."""
    inner = pad + "  "
    join = ("," + inner).join
    if isinstance(obj, (list, tuple)) and obj:
        body = join(map(repr, obj)) if set(map(type, obj)) in ({int}, {float}) else "n"
        if "n" in body:  # not all ints or finite floats; JSON spells nan and inf otherwise
            body = join([_json(x, inner) for x in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict) and obj:  # json.dumps turns a key that is no str into its JSON
        return "{" + inner + join([json.dumps(k if isinstance(k, str) else json.dumps(k))
                                   + ": " + _json(v, inner) for k, v in obj.items()]) + pad + "}"
    return json.dumps(obj)  # a scalar, or an empty list or dict


def cmd_state(args) -> Result:
    g = _load_graph(args)
    psi = build_graph_state(g)

    def render(fmt):
        if fmt == "json":
            return {
                "n": g.n,
                "bit_order": "qubit 1 is the most significant bit",
                "amplitudes": [[float(a.real), float(a.imag)] for a in psi],
            }
        lines = []
        for idx, a in enumerate(psi):
            bits = format(idx, f"0{g.n}b")
            lines.append(f"|{bits}>  {a.real:+.5f}  {a.imag:+.5f}")
        return "\n".join(lines) + "\n"

    return 0, render


def cmd_measure(args, kind: str) -> Result:
    g = _load_graph(args)
    result = gcm(g) if kind == "GCM" else gem(g, GemConfig(seed=args.seed))

    def render(fmt):
        if fmt != "json":
            return f"{kind} = {result.value:.5f}\n"
        payload = {"measure": kind, "value": result.value}
        if kind == "GEM":
            diagnostics = dataclasses.asdict(result.diagnostics)
            del diagnostics["restart_sweeps"], diagnostics["ceiling"]
            payload["diagnostics"] = diagnostics
        return payload

    return 0, render


def cmd_lc(args) -> Result:
    moved = local_complement(_load_graph(args), args.vertex)
    n, edges = moved.n, moved.edges
    return 0, lambda fmt: _graph_dict(n, edges) if fmt == "json" else _inline(n, edges) + "\n"


def cmd_orbit(args) -> Result:
    orbit = lc_orbit(_load_graph(args))
    reps = sorted((r.n, r.edges) for r in orbit.representatives)  # edges derived once

    def render(fmt):
        if fmt == "json":
            return {"size": orbit.size,
                    "representatives": [_graph_dict(n, edges) for n, edges in reps]}
        lines = [f"orbit size: {orbit.size}"] + [_inline(n, edges) for n, edges in reps]
        return "\n".join(lines) + "\n"

    return 0, render


def cmd_equiv(args) -> Result:
    g1 = _load_graph(args)
    g2 = _load_graph(args, suffix="2")
    verdict = are_lc_equivalent(g1, g2)
    return 0, lambda fmt: ({"equivalent": verdict} if fmt == "json"
                           else ("equivalent" if verdict else "inequivalent") + "\n")


def cmd_classify(args) -> Result:
    report = build_report(args.measure,
                          measure_values(args.measure, GemConfig(seed=args.seed)))
    renderers = {"json": report_to_dict, "csv": report_csv_rows,
                 "table": render_report_text}
    return 0, lambda fmt: renderers[fmt](report)


def cmd_rp_table(args) -> Result:
    table = build_rp_table(GemConfig(seed=args.seed))
    renderers = {"json": rp_table_to_dict, "csv": rp_table_csv_rows,
                 "table": render_rp_table_text}
    return 0, lambda fmt: renderers[fmt](table)


def cmd_verify_catalog(args) -> Result:
    entries = all_entries()
    pairs = len(entries) * (len(entries) - 1) // 2
    checks = []

    connected = [e.id for e in entries if not is_connected(e.graph)]
    checks.append(("connected", not connected,
                   f"disconnected ids: {connected}" if connected
                   else f"{len(entries)}/{len(entries)}"))

    forms = {}
    for e in entries:
        forms.setdefault(canonical_form(e.graph), []).append(e.id)
    dupes = [ids for ids in forms.values() if len(ids) > 1]
    checks.append(("pairwise-non-isomorphic", not dupes,
                   f"isomorphic: {dupes}" if dupes else f"{pairs}/{pairs} pairs distinct"))

    stab, lc = [], []
    for e in entries:
        psi = build_graph_state(e.graph)
        for a in range(1, e.n + 1):
            stab.append(abs(stabilizer_expectation(psi, e.graph, a) - 1.0))
            direct = build_graph_state(local_complement(e.graph, a))
            moved = lc_unitary_apply(psi, e.graph, a)
            lc.append(abs(abs(inner_product(direct, moved)) - 1.0))
    worst_stab, worst_lc = max(stab), max(lc)
    checks.append(("stabilizers", worst_stab < 1e-12,
                   f"max deviation {worst_stab:.2e}"))
    checks.append(("lc-unitary", worst_lc < 1e-10, f"max deviation {worst_lc:.2e}"))

    shared = [(a.id, b.id) for a, b in itertools.combinations(entries, 2)
              if are_lc_equivalent(a.graph, b.graph)]
    checks.append(("lc-pairwise", not shared,
                   f"shared orbits: {shared}" if shared
                   else f"{pairs}/{pairs} pairs disjoint"))

    passed = all(ok for _, ok, _ in checks)

    def render(fmt):
        if fmt == "json":
            return {"checks": [{"name": name, "passed": ok, "detail": detail}
                               for name, ok, detail in checks],
                    "passed": passed}
        if fmt == "csv":
            return [["check", "passed", "detail"]] + [
                [name, str(ok).lower(), detail] for name, ok, detail in checks]
        lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
                 for name, ok, detail in checks]
        lines.append("catalog OK" if passed else "catalog verification FAILED")
        return "\n".join(lines) + "\n"

    return (0 if passed else 1), render


def _add_source_flags(p: argparse.ArgumentParser, suffix: str = "") -> None:
    tag = " (second graph)" if suffix else ""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--graph{suffix}", type=int, metavar="N",
                       help=f"catalog graph id 1..{catalog_size()}{tag}")
    group.add_argument(f"--edges{suffix}", type=str, metavar="STR",
                       help=f'inline edges like "1 2,1 3"{tag}')
    group.add_argument(f"--file{suffix}", type=str, metavar="PATH",
                       help=f"edge-list file{tag}")


def _add_output_flags(p: argparse.ArgumentParser, formats=("table", "json", "csv")) -> None:
    p.add_argument("--format", choices=formats, default="table",
                   help="output format (default: table)")
    p.add_argument("--out", type=str, metavar="PATH",
                   help="write output to a file instead of stdout")


def _add_gem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=GemConfig.seed, metavar="S",
                   help=f"restart stream seed (default {GemConfig.seed})")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The graphent argument parser, built once per process: parsing
    leaves it unchanged, and each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="graphent",
        description="Graph states, entanglement measures, and LC orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="amplitudes of a graph state")
    _add_source_flags(p)
    _add_output_flags(p, formats=("table", "json"))
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("gcm", help="closed-form concurrence-type measure")
    _add_source_flags(p)
    _add_output_flags(p, formats=("table", "json"))
    p.set_defaults(func=lambda a: cmd_measure(a, "GCM"))

    p = sub.add_parser("gem", help="geometric measure via bounds or seeded see-saw")
    _add_source_flags(p)
    _add_gem_flags(p)
    _add_output_flags(p, formats=("table", "json"))
    p.set_defaults(func=lambda a: cmd_measure(a, "GEM"))

    p = sub.add_parser("lc", help="local complementation at a vertex")
    _add_source_flags(p)
    p.add_argument("--vertex", type=int, required=True, metavar="K")
    _add_output_flags(p, formats=("table", "json"))
    p.set_defaults(func=cmd_lc)

    p = sub.add_parser("orbit", help="closure under local complementation")
    _add_source_flags(p)
    _add_output_flags(p, formats=("table", "json"))
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("equiv", help="are two graphs linked by LC moves?")
    _add_source_flags(p)
    _add_source_flags(p, suffix="2")
    _add_output_flags(p, formats=("table", "json"))
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("classify", help="equal-measure classes over the catalog")
    p.add_argument("--measure", choices=("gcm", "gem"), required=True)
    _add_gem_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rp-table", help="resolution power of both measures")
    _add_gem_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_rp_table)

    p = sub.add_parser("verify-catalog", help="catalog integrity checks")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify_catalog)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, write its output in the chosen format, and
    return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        code, render = args.func(args)
        out = render(args.format)
        if args.format == "json":
            out = _json(out) + "\n"
        elif args.format == "csv":
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(out)
            out = buf.getvalue()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return code
    except (ValueError, OrbitBudgetExceeded, DegenerateContractionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
