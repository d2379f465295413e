"""Finite-volume geodesic graphs: successor forests toward a hyperplane.

The graph holds one optional out-edge per box vertex (the successor chosen
by the distance field), a reverse-adjacency index for backward traversals,
and the passage times of the generating solve.  All structure queries
(forward paths, backward clusters, components, truncation) run on flat
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geodesics import HyperplaneTarget, solve
from .lattice import Box


class UnionFind:
    """Array union-find with path halving and union by rank."""

    def __init__(self, n):
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)
        self.cycle_edges = 0

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return int(x)

    def union(self, x, y):
        """Merge the classes of x and y; returns False when already joined."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            self.cycle_edges += 1
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True


@dataclass
class ComponentDecomposition:
    labels: np.ndarray
    sizes: np.ndarray
    n_components: int
    cycle_edges: int

    def label_of(self, box, v):
        return int(self.labels[box.index_of(v)])


@dataclass
class GeodesicGraph:
    """Out-degree <= 1 successor forest over a box, directed toward a hyperplane."""

    box: Box
    direction: tuple
    alpha: float
    succ: np.ndarray
    target_mask: np.ndarray
    boundary_touched: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        self._rev = None

    @property
    def n_vertices(self):
        return self.box.n_vertices

    @property
    def n_edges(self):
        return int((self.succ >= 0).sum())

    def out_edge(self, x):
        """Directed out-edge of x as (x, succ(x)), or None."""
        i = self.box.index_of(x)
        s = self.succ[i]
        if s < 0:
            return None
        return (tuple(x), self.box.vertex_at(int(s)))

    def reverse_index(self):
        """CSR-style (indptr, indices) of in-neighbors, built once per graph."""
        if self._rev is None:
            n = self.n_vertices
            has = self.succ >= 0
            heads = self.succ[has]
            tails = np.flatnonzero(has)
            order = np.argsort(heads, kind="stable")
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.add.at(indptr, heads + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._rev = (indptr, tails[order])
        return self._rev

    def in_degrees(self):
        indptr, _ = self.reverse_index()
        return np.diff(indptr)

    def descending_order(self):
        """Vertex indices by decreasing T: every in-neighbor precedes its successor."""
        return np.argsort(-self.T, kind="stable")


@dataclass
class Path:
    vertices: list
    indices: np.ndarray
    reached_target: bool


@dataclass
class BackwardCluster:
    vertices: list
    size: int
    depth: int
    touches_boundary: bool


def build_graph(field):
    """Geodesic graph of a hyperplane-target distance field."""
    if not isinstance(field.target, HyperplaneTarget):
        raise ValueError("wrong target: geodesic graphs require a hyperplane target")
    return GeodesicGraph(
        box=field.box,
        direction=field.target.direction,
        alpha=field.target.level,
        succ=field.succ.copy(),
        target_mask=field.target_mask.copy(),
        boundary_touched=field.boundary_touched.copy(),
        T=field.T.copy(),
    )


class BusemannField:
    """View over a distance field exposing B(x, y) = T(x, H) - T(y, H)."""

    def __init__(self, field):
        self.field = field

    def value(self, x, y):
        return float(self.field.T[self.field.box.index_of(x)]
                     - self.field.T[self.field.box.index_of(y)])

    def relative_to(self, origin):
        """Array of B(origin, x) over all box vertices."""
        return self.field.T[self.field.box.index_of(origin)] - self.field.T


def busemann(field, x, y):
    return BusemannField(field).value(x, y)


def forward_path(g, x):
    """Out-edge chain from x until a target vertex or a missing out-edge."""
    idx = g.box.index_of(x)
    seq = [idx]
    limit = g.n_vertices
    while True:
        s = g.succ[seq[-1]]
        if s < 0 or len(seq) > limit:
            break
        seq.append(int(s))
    indices = np.asarray(seq, dtype=np.int64)
    return Path(
        vertices=[g.box.vertex_at(i) for i in seq],
        indices=indices,
        reached_target=bool(g.target_mask[seq[-1]]),
    )


def forward_orbit(g, source_indices):
    """Mask of vertices lying on the forward path of any source."""
    mark = np.zeros(g.n_vertices, dtype=bool)
    cur = np.unique(np.asarray(source_indices, dtype=np.int64))
    mark[cur] = True
    while cur.size:
        nxt = g.succ[cur]
        nxt = np.unique(nxt[nxt >= 0])
        nxt = nxt[~mark[nxt]]
        mark[nxt] = True
        cur = nxt
    return mark


def backward_cluster(g, x):
    """The set C^b_x of vertices with a directed path to x (BFS on in-edges)."""
    indptr, indices = g.reverse_index()
    start = g.box.index_of(x)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        nxt = []
        for i in frontier:
            for j in indices[indptr[i]:indptr[i + 1]]:
                j = int(j)
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        if nxt:
            depth += 1
        frontier = nxt
    boundary = g.box.boundary_mask()
    members = sorted(seen)
    return BackwardCluster(
        vertices=[g.box.vertex_at(i) for i in members],
        size=len(members),
        depth=depth,
        touches_boundary=bool(boundary[members].any()),
    )


def backward_stats(g):
    """Vectorized per-vertex backward-cluster size, depth, and boundary contact.

    One pass in decreasing-T order accumulates each vertex into its
    successor; agrees with per-vertex BFS.
    """
    n = g.n_vertices
    sizes = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    touch = g.box.boundary_mask().copy()
    succ = g.succ
    for i in g.descending_order():
        s = succ[i]
        if s >= 0:
            sizes[s] += sizes[i]
            if depth[i] + 1 > depth[s]:
                depth[s] = depth[i] + 1
            if touch[i]:
                touch[s] = True
    return sizes, depth, touch


def sample_level(n, rng_seed):
    """The deterministic uniform level on [0, n] used by the averaged sampler."""
    if not n > 0:
        raise ValueError("n must be positive")
    return float(np.random.default_rng(rng_seed).uniform(0.0, n))


def sample_averaged_graph(env, n, box, direction, rng_seed):
    """Draw alpha ~ Uniform[0, n] from rng_seed and build the graph at that level."""
    alpha = sample_level(n, rng_seed)
    field = solve(env, box, HyperplaneTarget(direction, alpha, mode="halfspace_frontier"))
    return alpha, build_graph(field)


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


def components(g):
    """Weak components of the forest via union-find over undirected out-edges."""
    n = g.n_vertices
    uf = UnionFind(n)
    for i in np.flatnonzero(g.succ >= 0):
        uf.union(int(i), int(g.succ[i]))
    roots = np.fromiter((uf.find(i) for i in range(n)), dtype=np.int64, count=n)
    uniq, labels = np.unique(roots, return_inverse=True)
    sizes = np.bincount(labels, minlength=len(uniq))
    return ComponentDecomposition(labels=labels, sizes=sizes,
                                  n_components=len(uniq), cycle_edges=uf.cycle_edges)


def encounter_points(g, threshold=None):
    """Vertices whose removal splits their component into >= 3 long parts.

    A part counts when it contains a vertex at undirected graph distance at
    least ``threshold`` from the removed vertex (finite proxy for infinite
    branches; default is half the box radius).
    """
    if threshold is None:
        radius = min(u - l for l, u in zip(g.box.lower, g.box.upper)) // 2
        threshold = max(2, radius // 2)
    n = g.n_vertices
    succ = g.succ
    indptr, indices = g.reverse_index()
    desc = g.descending_order()

    down = np.zeros(n, dtype=np.int64)   # height of the backward subtree
    for i in desc:
        s = succ[i]
        if s >= 0 and down[i] + 1 > down[s]:
            down[s] = down[i] + 1

    up = np.full(n, -1, dtype=np.int64)  # farthest distance through the out-edge
    for i in desc[::-1]:
        s = succ[i]
        if s < 0:
            continue
        best = 1 if up[s] < 0 else up[s] + 1
        for j in indices[indptr[s]:indptr[s + 1]]:
            if j != i and down[j] + 2 > best:
                best = down[j] + 2
        up[i] = best

    out = []
    for i in range(n):
        arms = [1 + down[j] for j in indices[indptr[i]:indptr[i + 1]]]
        if up[i] >= 0:
            arms.append(up[i])
        if sum(1 for a in arms if a >= threshold) >= 3:
            out.append(g.box.vertex_at(i))
    return out


def graph_summary(g):
    comp = components(g)
    _, depth, _ = backward_stats(g)
    return {
        "alpha": g.alpha,
        "n_vertices": int(g.n_vertices),
        "n_edges": int(g.n_edges),
        "n_components": int(comp.n_components),
        "max_backward_depth": int(depth.max()) if len(depth) else 0,
    }


def graph_to_csv(g, path):
    """CSV dump: x1..xd, dx1..dxd (out-edge displacement, empty for roots)."""
    box = g.box
    d = box.dim
    coords = box.coords()
    with open(path, "w", newline="") as fh:
        head = [f"x{i+1}" for i in range(d)] + [f"dx{i+1}" for i in range(d)]
        fh.write(",".join(head) + "\n")
        for i in range(box.n_vertices):
            row = [str(int(c)) for c in coords[i]]
            s = g.succ[i]
            if s >= 0:
                row.extend(str(int(c)) for c in (coords[s] - coords[i]))
            else:
                row.extend("" for _ in range(d))
            fh.write(",".join(row) + "\n")
