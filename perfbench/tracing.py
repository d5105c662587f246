"""Span tracing around the public functions of each dpierce layer.

`Tracer.install` replaces each traced function by a wrapper in every dpierce
module that binds it by name (`bounds` and `generators` import solver
functions directly, and `solvers` imports `solve_lp_max`), and `uninstall`
puts the originals back.  Nothing under `src/` is edited; spans are kept in
memory and written out once the run ends.

A span is `[name, start, end, parent, instance, counts]`: `parent` is the
index of the enclosing span (or None) and `instance` the id of the instance
being processed, so self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import time

import dpierce
from dpierce import bounds, generators, model, simplex, solvers, treewidth

_MODULES = (dpierce, model, simplex, solvers, generators, treewidth, bounds)


def _lp_counts(tracer, args, result):
    A, b, c = args
    key = (tuple(map(tuple, A)), tuple(b), tuple(c))
    solved = tracer.lp_keys.setdefault(tracer.instance, set())
    repeat = key in solved
    solved.add(key)
    return {"pivots": result.pivots, "cells": len(A) * len(c), "repeat_calls": int(repeat)}


def _nodes(tracer, args, result):
    return {"nodes": result.node_count}


def _edges(tracer, args, result):
    return {"edges": len(args[0].edges)}


def _points(tracer, args, result):
    return {"points": result.ground_size}


# (module holding the original, function name, span name, counter)
TRACED = (
    (simplex, "solve_lp_max", "simplex.solve_lp_max", _lp_counts),
    (solvers, "covering_number", "solvers.covering_number", _nodes),
    (solvers, "matching_number", "solvers.matching_number", _nodes),
    (solvers, "fractional_pair", "solvers.fractional_pair", None),
    (solvers, "pq_check", "solvers.pq_check", _edges),
    (model, "to_incidence", "model.to_incidence", _points),
    (bounds, "verify_bundle", "bounds.verify_bundle", None),
    (bounds, "evaluate_bound", "bounds.evaluate_bound", None),
    (bounds, "sharpness_probe", "bounds.sharpness_probe", None),
    (treewidth, "lift_family", "treewidth.lift_family", None),
    (treewidth, "lift_cover", "treewidth.lift_cover", None),
    (generators, "planted_pq_family", "generators", None),
    (generators, "planted_pq_subforests", "generators", None),
    (generators, "random_d_intervals", "generators", None),
    (generators, "random_tw_graph", "generators", None),
    (generators, "projective_instance", "generators", None),
)

# per-layer metric -> (span name, quantity, unit); quantities are 'calls',
# 's' (total span time), 'self_s' (span time not covered by child spans) or a
# counter recorded at the boundary
LAYER_METRICS = {
    f"{span}.{field}": (span, field, "s" if field in ("s", "self_s") else "count")
    for span, fields in (
        ("simplex.solve_lp_max", ("calls", "s", "pivots", "cells", "repeat_calls")),
        ("solvers.covering_number", ("calls", "s", "self_s", "nodes")),
        ("solvers.matching_number", ("calls", "s", "self_s", "nodes")),
        ("solvers.fractional_pair", ("calls", "s", "self_s")),
        ("solvers.pq_check", ("calls", "s", "edges")),
        ("model.to_incidence", ("calls", "s", "points")),
        ("bounds.verify_bundle", ("calls", "s", "self_s")),
        ("bounds.evaluate_bound", ("calls", "s")),
        ("bounds.sharpness_probe", ("calls", "s", "self_s")),
        ("treewidth.lift_family", ("calls", "s")),
        ("treewidth.lift_cover", ("calls", "s")),
        ("generators", ("calls", "s")),
    )
    for field in fields
}


class Tracer:
    """In-memory span recorder; `instance` is set by the caller per instance."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = None
        self.lp_keys: dict = {}
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.instance, None]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[5] = counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for home, attr, name, counter in TRACED:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in _MODULES:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self, phase, duration) -> dict:
        """Per-layer totals over the spans of instances `(phase, i)`.

        `duration(start, end)` gives the time a span counts for.
        """
        picked = [idx for idx, s in enumerate(self.spans) if s[4][0] == phase]
        took = {idx: duration(self.spans[idx][1], self.spans[idx][2]) for idx in picked}
        child_time = dict.fromkeys(picked, 0.0)
        for idx in picked:
            parent = self.spans[idx][3]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + took[idx]
        by_span: dict[str, list] = {}
        for metric, (span_name, field, _) in LAYER_METRICS.items():
            by_span.setdefault(span_name, []).append((metric, field))
        out = {metric: 0 for metric in LAYER_METRICS}
        for idx in picked:
            name, counts = self.spans[idx][0], self.spans[idx][5]
            for metric, field in by_span[name]:
                if field == "calls":
                    out[metric] += 1
                elif field == "s":
                    out[metric] += took[idx]
                elif field == "self_s":
                    out[metric] += took[idx] - child_time[idx]
                else:
                    out[metric] += counts[field]
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh, default=str)

