"""Metric definitions and the arithmetic that turns op timings and spans into them."""

from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Per-op values from the traced run.  A name ending in ".s" is the total
# time of that span, ".self_s" its time minus its child spans (a bare layer
# name sums every span of the layer); anything else is a count.
PER_LAYER = [
    ("environment.edge_weights.s", "s/op"),
    ("environment.edge_weights.edges", "count/op"),
    ("environment.weight_of.calls", "count/op"),
    ("environment.weight_of.s", "s/op"),
    ("environment.with_overrides.s", "s/op"),
    ("environment.with_overrides.edges", "count/op"),
    ("geodesics.solve.calls", "count/op"),
    ("geodesics.solve.vertices", "count/op"),
    ("geodesics.solve.self_s", "s/op"),
    ("geodesics.dijkstra.s", "s/op"),
    ("geodesic_graph.components.s", "s/op"),
    ("geodesic_graph.components.calls", "count/op"),
    ("geodesic_graph.backward_stats.s", "s/op"),
    ("geodesic_graph.encounter_points.s", "s/op"),
    ("geodesic_graph.graph_to_csv.s", "s/op"),
    ("geodesic_graph.graph_to_csv.bytes", "B/op"),
    ("geodesic_graph.forward_orbit.s", "s/op"),
    ("geodesic_graph.forward_path.calls", "count/op"),
    ("analysis.estimate_shape.self_s", "s/op"),
    ("analysis.backward_tail.self_s", "s/op"),
    ("analysis.intersection_radii.self_s", "s/op"),
    ("analysis.build_torus_graph.s", "s/op"),
    ("analysis.mass_transport_balance.s", "s/op"),
    ("modification.protected_vertices.s", "s/op"),
    ("modification.protected_vertices.hits", "count/op"),
    ("modification.protected_vertices.misses", "count/op"),
    ("modification.protected_vertices.size", "count/call"),
    ("modification.eligible_edges.s", "s/op"),
    ("modification.eligible_edges.edges", "count/op"),
    ("modification.check_event_A2prime.s", "s/op"),
    ("modification.verify_severing.s", "s/op"),
    ("manifest.write_manifest.s", "s/op"),
    ("manifest.export_csv.s", "s/op"),
    ("manifest.bytes_out", "B/op"),
    ("cli.main.self_s", "s/op"),
    ("lattice.Box.index_of.calls", "count/op"),
    ("lattice.Box.vertex_at.calls", "count/op"),
    ("environment.self_s", "s/op"),
    ("geodesics.self_s", "s/op"),
    ("geodesic_graph.self_s", "s/op"),
    ("analysis.self_s", "s/op"),
    ("modification.self_s", "s/op"),
    ("manifest.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("other.s", "s/op"),
    ("trace.spans", "count/op"),
    ("trace.overhead", "ratio"),
]

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def tail_percentile(samples, beyond=10):
    """Highest ladder percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, n_above)`` or None when there are fewer
    than ``2 * beyond`` samples.  ``value`` is the largest sample that still
    has ``n_above`` samples above it in sorted order.
    """
    data = sorted(samples)
    n = len(data)
    for p in TAIL_LADDER:
        n_above = int(n * (100.0 - p) / 100.0 + 1e-9)
        if n_above >= beyond:
            return p, data[n - n_above - 1], n_above
    return None


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as the benchmark's spread rule takes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def per_layer_values(total_s, self_s, counts, other_s, n_ops, overhead):
    """Per-op values of every PER_LAYER metric from a summarized traced run."""
    out = {}
    for name, _unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name == "trace.overhead":
            value = overhead
        elif name == "other.s":
            value = sum(other_s.values()) / n_ops
        elif name == "modification.protected_vertices.size":
            calls = counts.get("modification.protected_vertices.calls", 0)
            value = counts.get(name, 0) / calls if calls else 0.0
        elif kind == "s":
            value = total_s.get(base, 0.0) / n_ops
        elif kind == "self_s":
            value = self_s.get(base, 0.0) / n_ops
        else:
            value = counts.get(name, 0) / n_ops
        out[name] = value
    return out
