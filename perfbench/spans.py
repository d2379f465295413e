"""In-memory span recorder that times calls into fppgeo from outside the package.

``Recorder.install`` replaces each traced callable with a timing wrapper in
every fppgeo module namespace that binds it (``solve`` is imported by name
into ``geodesic_graph``, ``modification``, ``analysis``, ``cli`` and the
package itself, so patching ``geodesics.solve`` alone would miss most calls).
Methods are patched on their class.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, op)``; spans stay in memory until
``write`` at the end of the run.  Wrappers record only while an op is open,
so output checks made between ops are not traced.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_size(path):
    return os.path.getsize(path)


# (span name, fppgeo module, attribute, optional (count key, measure)).
# A measure gets (args, kwargs, result) and returns the amount to add.
TRACED = [
    ("environment.edge_weights", "environment", "WeightEnvironment.edge_weights",
     ("environment.edge_weights.edges", lambda a, k, r: len(r))),
    ("environment.weight_of", "environment", "WeightEnvironment.weight_of", None),
    ("environment.with_overrides", "environment", "with_overrides",
     ("environment.with_overrides.edges", lambda a, k, r: len(_arg(a, k, 1, "edges")))),
    ("geodesics.solve", "geodesics", "solve",
     ("geodesics.solve.vertices", lambda a, k, r: r.box.n_vertices)),
    # scipy's Dijkstra as seen from geodesics; analysis keeps its own binding
    ("geodesics.dijkstra", "geodesics", "dijkstra", None),
    ("geodesic_graph.build_graph", "geodesic_graph", "build_graph", None),
    ("geodesic_graph.components", "geodesic_graph", "components", None),
    ("geodesic_graph.backward_stats", "geodesic_graph", "backward_stats", None),
    ("geodesic_graph.encounter_points", "geodesic_graph", "encounter_points", None),
    ("geodesic_graph.graph_summary", "geodesic_graph", "graph_summary", None),
    ("geodesic_graph.graph_to_csv", "geodesic_graph", "graph_to_csv",
     ("geodesic_graph.graph_to_csv.bytes",
      lambda a, k, r: _file_size(_arg(a, k, 1, "path")))),
    ("geodesic_graph.forward_path", "geodesic_graph", "forward_path", None),
    ("geodesic_graph.forward_orbit", "geodesic_graph", "forward_orbit", None),
    ("analysis.estimate_shape", "analysis", "estimate_shape", None),
    ("analysis.backward_tail", "analysis", "backward_tail", None),
    ("analysis.intersection_radii", "analysis", "intersection_radii", None),
    ("analysis.build_torus_graph", "analysis", "build_torus_graph", None),
    ("analysis.mass_transport_balance", "analysis", "mass_transport_balance", None),
    ("modification.run_modification", "modification", "run_modification", None),
    ("modification.protected_vertices", "modification", "protected_vertices",
     ("modification.protected_vertices.size", lambda a, k, r: len(r))),
    ("modification.eligible_edges", "modification", "eligible_edges",
     ("modification.eligible_edges.edges", lambda a, k, r: len(r))),
    ("modification.check_event_A2prime", "modification", "check_event_A2prime", None),
    ("modification.verify_severing", "modification", "verify_severing", None),
    ("manifest.write_manifest", "manifest", "write_manifest",
     ("manifest.bytes_out", lambda a, k, r: _file_size(r))),
    ("manifest.export_csv", "manifest", "export_csv",
     ("manifest.bytes_out", lambda a, k, r: _file_size(_arg(a, k, 0, "path")))),
    ("manifest.export_json", "manifest", "export_json",
     ("manifest.bytes_out", lambda a, k, r: _file_size(_arg(a, k, 0, "path")))),
    ("cli.main", "cli", "main", None),
]

# Scalar tuple <-> index conversions: counted, not timed (they are too
# small and too frequent for a span each).
COUNTED = [
    ("lattice.Box.index_of", "lattice", "Box.index_of"),
    ("lattice.Box.vertex_at", "lattice", "Box.vertex_at"),
]


def covered(intervals, lo, hi):
    """Length of the part of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(start, end, children):
    """A span's duration minus the part of it that its direct children cover."""
    return (end - start) - covered(children, start, end)


class Recorder:
    """Spans and counts of one traced run, keyed by op id."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, op)
        self.ops = []            # (op, start, end)
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    # -- patching -------------------------------------------------------

    def _span_wrapper(self, name, fn, measure):
        rec = self
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if rec.op is None:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[sid] = (name, start, end, parent, rec.op)
            rec.counts[calls] += 1
            if measure is not None:
                rec.counts[measure[0]] += measure[1](args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        rec = self
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if rec.op is not None:
                rec.counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(f"fppgeo.{module_name}")
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[leaf]
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, make(original))
            return
        original = getattr(module, attr)
        if getattr(original, "__module__", "").startswith("fppgeo"):
            homes = [m for k, m in list(sys.modules.items())
                     if k == "fppgeo" or k.startswith("fppgeo.")]
        else:
            homes = [module]
        wrapper = make(original)
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    self._undo.append((home, key, original))
                    setattr(home, key, wrapper)

    def install(self):
        importlib.import_module("fppgeo.cli")
        for name, module, attr, measure in TRACED:
            self._patch(module, attr,
                        lambda fn, n=name, m=measure: self._span_wrapper(n, fn, m))
        for name, module, attr in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- ops ------------------------------------------------------------

    def begin(self, op):
        self.op = op

    def end(self, op, start, end):
        self.op = None
        self.ops.append((op, start, end))

    # -- analysis -------------------------------------------------------

    def summarize(self):
        """Per-name totals and self times, per-layer self times, per-op remainder.

        Returns ``(total_s, self_s, other_s)`` where ``self_s`` holds both
        span names and layer names (the first dotted component) and
        ``other_s`` maps each op to the part of its wall time that no
        top-level span covers.
        """
        children = defaultdict(list)
        roots = defaultdict(list)
        for name, start, end, parent, op in self.spans:
            (children[parent] if parent >= 0 else roots[op]).append((start, end))
        total_s = Counter()
        self_s = Counter()
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            own = self_time(start, end, children.get(sid, ()))
            total_s[name] += end - start
            self_s[name] += own
            self_s[name.split(".", 1)[0]] += own
        other_s = {op: self_time(start, end, roots.get(op, ()))
                   for op, start, end in self.ops}
        return total_s, self_s, other_s

    def write(self, path, other_s):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[ids[n], s, e, p, o] for n, s, e, p, o in self.spans],
            "ops": [[op, s, e, other_s[op]] for op, s, e in self.ops],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
