"""Spans around graphent's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function in every graphent module
namespace that bound it by name (so `measures.subset_purity`,
`cli.gem` and `classify.gem` are all caught), and `uninstall` puts the
originals back. Each call appends one span (name, start, end, parent
span index, item id) to an in-memory list; nothing is written until the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _gem_counts(result) -> dict[str, float]:
    d = result.diagnostics
    return {
        "sweeps": d.iterations,
        "restart_sweeps": d.restarts_used * d.iterations,
        "unconverged": 0 if d.converged else 1,
        "restarts_at_best": d.restarts_at_best,
        "restarts_used": d.restarts_used,
        "redraws": d.degenerate_redraws,
    }


def _orbit_counts(result) -> dict[str, float]:
    return {"reps": result.size}


# Work counts read off a traced function's return value.
RESULT_COUNTS = {"measures.gem": _gem_counts, "graphs.lc_orbit": _orbit_counts}


class Tracer:
    def __init__(self, layers):
        self.layers = list(layers)
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.item: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.item]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    self.counts[name][key] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every layer function everywhere graphent bound it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "graphent" or key.startswith("graphent.")]
        for name in self.layers:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules["graphent." + module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans, layers) -> dict[str, dict[str, float]]:
    """calls and self_s per layer; a layer that never fired reports zeros."""
    totals = {name: {"calls": 0, "self_s": 0.0} for name in layers}
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["self_s"] += own
    return totals
