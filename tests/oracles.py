"""Independent oracles: brute-force implementations kept deliberately naive.

Nothing here shares code with the library's solvers; these exist so tests
can compare optimized implementations against first-principles computation.
The environment, point-field and truncation helpers at the end build test
inputs, and ``shape_over_seeds`` stacks shape estimates over seeds.
"""

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf
from pathlib import Path

import numpy as np

from fppgeo.analysis import estimate_shape
from fppgeo.environment import DistributionSpec, WeightEnvironment, override_edges, uniform
from fppgeo.geodesics import (DistanceField, HyperplaneTarget, _neighbor_table, solve,
                              successor_forest)


def neighbors(v):
    """The 2d nearest neighbors of v, in the fixed order +e1, -e1, +e2, -e2, ..."""
    out = []
    for i in range(len(v)):
        for s in (1, -1):
            w = list(v)
            w[i] += s
            out.append(tuple(w))
    return out


def path_weight(env, path):
    """Total weight of a vertex path under an environment, one edge at a time."""
    return sum(env.weight_of((u, v)) for u, v in zip(path, path[1:]))


def bellman_ford(env, box, targets):
    """Plain relax-until-fixpoint shortest paths to a target set."""
    verts = [box.vertex_at(i) for i in range(box.n_vertices)]
    edges = []
    for u in verts:
        for v in neighbors(u):
            if box.contains(v) and u < v:
                edges.append((u, v, env.weight_of((u, v))))
    dist = {v: inf for v in verts}
    for t in targets:
        dist[t] = 0.0
    changed = True
    while changed:
        changed = False
        for u, v, w in edges:
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
    return dist


def min_simple_path_weight(env, box, start, goal):
    """Exhaustive DFS over simple paths, pruned only by the running best."""
    best = [inf]

    def dfs(v, seen, acc):
        if acc >= best[0]:
            return
        if v == goal:
            best[0] = acc
            return
        for w in neighbors(v):
            if box.contains(w) and w not in seen:
                seen.add(w)
                dfs(w, seen, acc + env.weight_of((v, w)))
                seen.remove(w)

    dfs(start, {start}, 0.0)
    return best[0]


def reverse_reachable(succ_map, sources):
    """Transitive closure of the set ``sources`` on reversed out-edges, by repeated scanning."""
    cluster = set(sources)
    changed = True
    while changed:
        changed = False
        for v, s in succ_map.items():
            if s in cluster and v not in cluster:
                cluster.add(v)
                changed = True
    return cluster


def connected_components_bfs(vertices, edges):
    """Plain BFS connectivity over an undirected edge list."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    label = {}
    current = 0
    for v in vertices:
        if v in label:
            continue
        queue = [v]
        label[v] = current
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in label:
                    label[w] = current
                    queue.append(w)
        current += 1
    return label


def components_union_find(succ):
    """Weak components of an out-degree <= 1 graph: (labels, sizes, cycle_edges).

    Union by rank with path halving on numpy arrays, one edge and one find
    at a time; labels number the final roots in increasing index order.
    """
    n = len(succ)
    parent = np.arange(n, dtype=np.int64)
    rank = np.zeros(n, dtype=np.int8)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    cycle_edges = 0
    for i in np.flatnonzero(succ >= 0):
        rx, ry = find(int(i)), find(int(succ[i]))
        if rx == ry:
            cycle_edges += 1
            continue
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
    roots = np.array([find(i) for i in range(n)], dtype=np.int64)
    uniq, labels = np.unique(roots, return_inverse=True)
    return labels, np.bincount(labels, minlength=len(uniq)), cycle_edges


def max_pairwise_l1_scan(points):
    """The largest l1 distance between two of ``points``, over every pair."""
    pts = [tuple(int(c) for c in p) for p in points]
    return max(sum(abs(a - b) for a, b in zip(p, q)) for p in pts for q in pts)


def normalize_by_search(rho):
    """Divide a nonzero integer vector by the largest k that divides every component."""
    for k in range(max(abs(c) for c in rho), 0, -1):
        if all(c % k == 0 for c in rho):
            return tuple(c // k for c in rho)


def levels_with_lattice_points(theta, radius, level_range):
    """Which levels in level_range contain a lattice point within the cube."""
    found = set()
    d = len(theta)
    for z in itertools.product(range(-radius, radius + 1), repeat=d):
        dot = sum(c * t for c, t in zip(z, theta))
        if level_range[0] <= dot <= level_range[1]:
            found.add(dot)
    return found


MANIFEST_KEYS = {"tool_version": str, "command": list, "config": dict, "config_digest": str,
                 "seeds": list, "started": str, "finished": str, "outputs": dict,
                 "runtime_ms": float}


def check_manifest(path):
    """Read a written run manifest back and check it; returns it, or raises ValueError.

    Each required key must hold a value of its type.  ``config_digest`` must
    be the SHA-256 of ``config`` as sorted compact JSON, and each digest in
    ``outputs`` the SHA-256 of that file's bytes, both computed here.  An
    output key is a path relative to the manifest's directory.
    """
    with open(path) as fh:
        manifest = json.load(fh)
    for key, kind in MANIFEST_KEYS.items():
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"{key}: missing or not a {kind.__name__}")
    if not all(isinstance(c, str) for c in manifest["command"]):
        raise ValueError("command: not a list of strings")
    if not all(type(s) is int for s in manifest["seeds"]):
        raise ValueError("seeds: not a list of integers")
    text = json.dumps(manifest["config"], sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(text.encode()).hexdigest() != manifest["config_digest"]:
        raise ValueError("config_digest: not the SHA-256 of config")
    for name, digest in manifest["outputs"].items():
        output = Path(path).parent / name
        with open(output, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                raise ValueError(f"outputs: {output} does not match its digest")
    return manifest


def strip_scan(theta, N, M, box_coords):
    """Brute predicate for the strip, via exact rational distance."""
    out = []
    nsq = sum(t * t for t in theta)
    for z in box_coords:
        dot = sum(int(c) * t for c, t in zip(z, theta))
        if not (0 <= dot <= N):
            continue
        dist_sq = Fraction(sum(int(c) ** 2 for c in z)) - Fraction(dot ** 2, nsq)
        if dist_sq <= Fraction(M) ** 2:
            out.append(tuple(int(c) for c in z))
    return out


def eligible_edges_scan(box, spec, succ, kept):
    """Sorted (u, v) pairs, v = u + e_axis, of the strip edges of ``box`` that
    no kept vertex follows: one edge at a time, with ``strip_scan`` for the strip."""
    strip = set(strip_scan(spec.theta, spec.N, spec.M, box.coords()))
    out = []
    for u in strip:
        for v in neighbors(u)[::2]:                   # the +e_axis neighbors
            if v not in strip:
                continue
            i, j = box.index_of(u), box.index_of(v)
            if not (kept[i] and succ[i] == j or kept[j] and succ[j] == i):
                out.append((u, v))
    return sorted(out)


def _frac_point_l1(u, axis, t, shift=None):
    """l1 norm of (u + t e_axis - shift) for rational t, exactly."""
    total = Fraction(0)
    for j, c in enumerate(u):
        base = Fraction(int(c) - (int(shift[j]) if shift is not None else 0))
        if j == axis:
            base += t
        total += abs(base)
    return total


def _segment_conditions(u, axis, spec, xi):
    """Which of the three protected-region conditions the edge (u, u+e_axis) meets."""
    theta = spec.theta
    a_u = sum(int(c) * t for c, t in zip(u, theta))
    step = theta[axis]
    N, M, Mp = spec.N, spec.M, spec.M_prime
    hit_a = hit_b = hit_c = False

    for level, shift, out in (("a", None, 0), ("b", xi, N)):
        if step == 0:
            if a_u == out:
                far = max(_frac_point_l1(u, axis, Fraction(0), shift),
                          _frac_point_l1(u, axis, Fraction(1), shift))
                if far >= Mp:
                    if level == "a":
                        hit_a = True
                    else:
                        hit_b = True
        else:
            t = Fraction(out - a_u, step)
            if 0 <= t <= 1 and _frac_point_l1(u, axis, t, shift) >= Mp:
                if level == "a":
                    hit_a = True
                else:
                    hit_b = True

    # condition (c): some point of the segment lies in the slab with
    # distance >= M from the axis line; dist^2 is convex in t, so the max
    # over the admissible t-interval sits at an endpoint.
    if step == 0:
        interval = [(Fraction(0), Fraction(1))] if 0 <= a_u <= N else []
    else:
        t0 = Fraction(0 - a_u, step)
        t1 = Fraction(N - a_u, step)
        lo, hi = min(t0, t1), max(t0, t1)
        lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
        interval = [(lo, hi)] if lo <= hi else []
    if interval:
        nsq = sum(t * t for t in theta)
        for t in interval[0]:
            w_dot = Fraction(a_u) + t * step
            norm_sq = sum(Fraction(int(c)) ** 2 for j, c in enumerate(u) if j != axis)
            norm_sq += (Fraction(int(u[axis])) + t) ** 2
            if norm_sq * nsq - w_dot ** 2 >= Fraction(M) ** 2 * nsq:
                hit_c = True
                break
    return hit_a, hit_b, hit_c


def protected_vertices_exact(box, spec, xi_N):
    """Protected vertices by exact rational arithmetic, one edge at a time.

    Scans every edge u -> u + e_axis with an endpoint in the box and marks
    both endpoints when the edge meets any protected-region condition.
    """
    xi = tuple(int(c) for c in xi_N)
    hit = set()
    ranges = [range(l - 1, h + 2) for l, h in zip(box.lower, box.upper)]
    for u in itertools.product(*ranges):
        for axis in range(len(u)):
            v = u[:axis] + (u[axis] + 1,) + u[axis + 1:]
            if (box.contains(u) or box.contains(v)) and any(
                    _segment_conditions(u, axis, spec, xi)):
                hit.update((u, v))
    return tuple(sorted(z for z in hit if box.contains(z)))


@dataclass
class BackwardCluster:
    vertices: list
    size: int
    depth: int
    touches_boundary: bool


def backward_cluster(g, x):
    """The set C^b_x of vertices whose forward chain meets x, by walking every chain.

    ``depth`` is the most hops from a member down to x, and
    ``touches_boundary`` says whether a member lies on a face of a plain box.
    """
    box = g.box
    start = box.index_of(x)
    members, depth = [], 0
    for i in range(g.n_vertices):
        j, hops = i, 0
        while j != start and g.succ[j] >= 0:
            j, hops = int(g.succ[j]), hops + 1
        if j == start:
            members.append(i)
            depth = max(depth, hops)
    vertices = [box.vertex_at(i) for i in members]
    on_face = [any(c in (l, u) for c, l, u in zip(v, box.lower, box.upper)) for v in vertices]
    return BackwardCluster(vertices=vertices, size=len(members), depth=depth,
                           touches_boundary=not box.periodic and any(on_face))


def sort_by_order(vertices, theta):
    """Progenitor oracle: full sort under (level, lexicographic)."""
    return sorted(vertices, key=lambda v: (sum(c * t for c, t in zip(v, theta)), v))


def last_attainment(dots, level):
    """Index pair (segment start, is_vertex) of the last path point on a level."""
    last = None
    for k in range(len(dots)):
        if dots[k] == level:
            last = (k, True)
        if k + 1 < len(dots) and min(dots[k], dots[k + 1]) < level < max(dots[k], dots[k + 1]):
            last = (k, False)
    return last


def first_attainment(dots, level, start):
    """Index pair (segment start, is_vertex) of the first path point on a level from ``start``."""
    for k in range(start, len(dots)):
        if dots[k] == level:
            return (k, True)
        if k + 1 < len(dots) and min(dots[k], dots[k + 1]) < level < max(dots[k], dots[k + 1]):
            return (k, False)
    return None


def encounter_indices(succ, threshold):
    """Vertices whose removal leaves >= 3 parts reaching distance >= threshold.

    Removes each vertex in turn and breadth-first searches every arm of the
    undirected forest from the neighbor it starts at.
    """
    adj = {i: [] for i in range(len(succ))}
    for i, s in enumerate(succ):
        if s >= 0:
            adj[i].append(int(s))
            adj[int(s)].append(i)
    out = []
    for v in adj:
        long_arms = 0
        for start in adj[v]:
            dist = {v: 0, start: 1}
            queue = [start]
            for u in queue:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            long_arms += max(dist.values()) >= threshold
        if long_arms >= 3:
            out.append(v)
    return out


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z):
    """The SplitMix64 finalizer of the Python int z, taken mod 2**64."""
    z &= _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def edge_id(min_endpoint, axis):
    """The canonical id of the edge (min_endpoint, min_endpoint + e_axis), one int at a
    time: the even coordinates fold into one lane, the odd ones and the axis into another."""
    lanes = [0, 0]
    for i, c in enumerate(min_endpoint):
        lanes[i % 2] = splitmix64(lanes[i % 2] ^ (c * _GOLDEN & _MASK64))
    lanes[1] = splitmix64(lanes[1] ^ (axis + _GOLDEN))
    return splitmix64(lanes[0] ^ lanes[1])


def edge_uniform(seed, min_endpoint, axis):
    """The uniform variate of an edge in [0, 1): the top 53 bits of its id mixed with
    the seed's word, the SplitMix64 of the seed's low 64 bits xor the golden ratio."""
    mixed = splitmix64(edge_id(min_endpoint, axis) ^ splitmix64(seed ^ _GOLDEN))
    return (mixed >> 11) * 2.0 ** -53


def _step_cells(coords, succ, i):
    if succ[i] >= 0:
        return [str(int(c)) for c in (coords[succ[i]] - coords[i])]
    return ["" for _ in range(coords.shape[1])]


def graph_csv_text(g):
    """Row-by-row rendering of ``geodesic_graph.graph_to_csv``."""
    d = g.box.dim
    coords = g.box.coords()
    lines = [",".join([f"x{i+1}" for i in range(d)] + [f"dx{i+1}" for i in range(d)])]
    for i in range(g.box.n_vertices):
        row = [str(int(c)) for c in coords[i]] + _step_cells(coords, g.succ, i)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def columns_csv_text(header, columns):
    """Row-by-row rendering of ``manifest.csv_cells``: ints and bools as digits,
    floats at 17 significant digits, masked entries empty."""
    lines = [",".join(header)]
    for i in range(len(columns[0])):
        row = []
        for col in columns:
            v = col[i]
            if v is np.ma.masked:
                row.append("")
            elif col.dtype.kind == "f":
                row.append(format(float(v), ".17g"))
            else:
                row.append(str(int(v)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def axis_edges(box):
    """Per-axis ``(tails, heads)`` flat-index arrays of the edges of ``box``.

    Entry ``axis`` pairs each tail u with its head u + e_axis, tails in
    increasing order.  On a periodic box the head of a tail on the upper
    face is the vertex of the lower face across the wrap.
    """
    coords = box.coords()
    n = box.n_vertices
    out = []
    stride = n
    for axis, side in enumerate(box.shape):
        stride //= side
        inner = coords[:, axis] < box.upper[axis]
        if box.periodic:
            tails = np.arange(n)
            heads = tails + np.where(inner, stride, -(side - 1) * stride)
        else:
            tails = np.flatnonzero(inner)
            heads = tails + stride
        out.append((tails, heads))
    return out


def per_edge_weights(env, box):
    """Weights of the edges of ``axis_edges``, hashed one (min endpoint, axis) row each."""
    coords = box.coords()
    return [env.edge_weights(coords[tails], np.full(len(tails), axis))
            for axis, (tails, _) in enumerate(axis_edges(box))]


def neighbor_table(edges, weights, n):
    """(n, 2d) neighbor indices and weights, scattered edge by edge from ``axis_edges``.

    Slots run -e1 < ... < -ed < +ed < ... < +e1; a missing neighbor is the
    vertex itself with weight inf, and indices are int32 below 2**31 entries.
    """
    slots = 2 * len(edges)
    nbr = np.empty((n, slots), dtype=np.int32 if n * slots < 2 ** 31 else np.int64)
    nbr[:] = np.arange(n, dtype=nbr.dtype)[:, None]
    wt = np.full((n, slots), np.inf)
    for axis, ((u, v), w) in enumerate(zip(edges, weights)):
        nbr[u, slots - 1 - axis] = v
        wt[u, slots - 1 - axis] = w
        nbr[v, axis] = u
        wt[v, axis] = w
    return nbr, wt


def override_box(env, box, value):
    """New environment with every edge inside ``box`` set to exactly ``value``."""
    coords = box.coords()
    return override_edges(env, np.concatenate([np.stack([coords[tails], coords[heads]], axis=1)
                                               for tails, heads in axis_edges(box)]), value)


def unit_environment(dim, box, seed=0):
    """Environment whose weights are exactly 1 on every edge of ``box``."""
    return override_box(WeightEnvironment(dim, uniform(0.0, 1.0), seed), box, 1.0)


def weight_environment(kind, dim, seed, box):
    """Uniform or exponential weights, or weights exactly 1 on the edges
    inside ``box``, so that passage times tie."""
    if kind == "unit":
        return unit_environment(dim, replace(box, periodic=False), seed)
    dist = uniform(0.0, 1.0) if kind == "uniform" else DistributionSpec("exponential", (1.0,))
    return WeightEnvironment(dim, dist, seed)


def point_field(env, box, p):
    """Distance field of the one-vertex target {p}: passage times T(x, p) and
    the successor forest of the point-to-point geodesics, from the library's
    ``successor_forest``.  Its ``target`` is the vertex p."""
    mask = np.zeros(box.n_vertices, dtype=bool)
    mask[box.index_of(p)] = True
    T, succ = successor_forest(box, _neighbor_table(env, box), mask)
    return DistanceField(box=box, target=tuple(p), T=T, succ=succ, target_mask=mask)


def target_field(env, box, target):
    """``solve`` toward a ``HyperplaneTarget``, or ``point_field`` toward a vertex tuple."""
    if isinstance(target, HyperplaneTarget):
        return solve(env, box, target)
    return point_field(env, box, target)


def shape_over_seeds(env, radius, directions, n_seeds):
    """``estimate_shape`` at ``n_seeds`` consecutive seeds from ``env.seed``,
    stacked as the shape CLI stacks its seeds: the first estimate, with one
    ``T_samples`` row per seed."""
    ests = [estimate_shape(replace(env, seed=env.seed + k), radius, directions)
            for k in range(n_seeds)]
    return replace(ests[0], T_samples=np.vstack([e.T_samples for e in ests]))


def successor_margin(env, field):
    """Gap between best and second-best successor candidate per non-target vertex
    of ``field``, solved under ``env``.

    Near-zero gaps indicate distribution atoms or hash defects; under
    continuous weights the successor is a.s. unique.
    """
    nbr, wt = _neighbor_table(env, field.box)
    keep = ~field.target_mask
    part = np.partition(wt[keep] + field.T[nbr[keep]], 1, axis=1)
    return part[:, 1] - part[:, 0]


def truncate(g, inner):
    """Keep only out-edges with both endpoints in ``inner`` (same vertex set)."""
    if not g.box.contains_box(inner):
        raise ValueError("inner box not contained in graph box")
    coords = g.box.coords()
    lo = np.asarray(inner.lower)
    hi = np.asarray(inner.upper)
    inside = ((coords >= lo) & (coords <= hi)).all(axis=1)
    succ = g.succ.copy()
    keep = (succ >= 0) & inside & inside[np.clip(succ, 0, None)]
    succ[~keep] = -1
    return replace(g, succ=succ)
