"""Finite-volume geodesic graphs: successor forests toward a hyperplane.

A geodesic graph is the ``geodesics.DistanceField`` of a hyperplane target:
one optional out-edge per vertex (its successor) and the passage times of
the solve.  The functions here take any distance field, on a plain or a
periodic box: forward paths and orbits, the backward-cluster statistics,
weak components, encounter points, and the averaged graph at a random
level.  The sweeps run over the cached ``DistanceField.generations``, the
vertices grouped by hop count, leaves first or roots first.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .geodesics import HyperplaneTarget, fold_chains, solve
from .manifest import csv_cells


def build_graph(field):
    """Geodesic graph of a hyperplane-target distance field: the field itself, as
    ``solve`` builds it; the public and benchmark entry point that checks the target."""
    if not isinstance(field.target, HyperplaneTarget):
        raise ValueError("wrong target: geodesic graphs require a hyperplane target")
    return field


def forward_path(g, x):
    """Vertex indices of the out-edge chain from x up to its root, as an int64 array.

    The chain ends at a target vertex, or at a vertex whose out-edge was cut.
    A chain of a forest holds at most n vertices, so a longer one runs into
    a cycle, and that raises ValueError.
    """
    step, v = g.succ.item, g.box.index_of(x)
    chain = [v]
    for _ in range(len(g.succ)):    # a forest's chain has at most n - 1 steps before its root
        v = step(v)
        if v < 0:
            return np.asarray(chain, dtype=np.int64)
        chain.append(v)
    raise ValueError("successor cycle")


def forward_orbit(g, source_indices):
    """Mask of vertices lying on the forward path of any source.

    A frontier walk marks the chains of the sources, each walker stopping at a
    root or a marked vertex.  The marked set then holds the successor of each
    of its vertices, so a chain that runs into a cycle leaves the cycle in it,
    and ``fold_chains`` over the marked vertices raises ValueError.
    """
    succ, n = g.succ, g.n_vertices
    mark = np.zeros(n + 1, dtype=bool)
    mark[n] = True                  # entry n, read at index -1, stops a walker off a root
    front = np.asarray(source_indices, dtype=np.int64).ravel()
    while front.size:
        mark[front] = True
        front = succ[front]
        front = front[~mark[front]]
    orbit = np.flatnonzero(mark[:n])
    nxt = succ[orbit]
    local = np.cumsum(mark) - 1     # the position of each marked vertex in ``orbit``
    fold_chains(np.where(nxt >= 0, local[nxt], -1), np.zeros(len(orbit), dtype=np.int8),
                np.maximum)
    return mark[:n]


def backward_stats(g):
    """Per-vertex backward-cluster size, depth, and boundary contact.

    The backward cluster of x holds the vertices whose forward chain meets
    x.  Sweeps the generations leaves first, accumulating each generation
    into its successors.
    """
    n = g.n_vertices
    sizes = np.ones(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    touch = g.box.boundary_mask()
    for gen in g.generations()[:0:-1]:
        s = g.succ[gen]
        np.add.at(sizes, s, sizes[gen])
        np.maximum.at(depth, s, depth[gen] + 1)
        touch[s[touch[gen]]] = True     # an OR of True values: repeats do no harm
    return sizes, depth, touch


def sample_level(n, rng_seed):
    """The deterministic uniform level on [0, n] used by the averaged sampler."""
    if not n > 0:
        raise ValueError("n must be positive")
    return float(np.random.default_rng(rng_seed).uniform(0.0, n))


def sample_averaged_graph(env, n, box, direction, rng_seed):
    """Draw alpha ~ Uniform[0, n] from rng_seed and build the graph at that level."""
    alpha = sample_level(n, rng_seed)
    return alpha, solve(env, box, HyperplaneTarget(direction, alpha, mode="halfspace_frontier"))


def components(g):
    """Int64 weak-component label of every vertex: labels 0, 1, ... number the
    roots of union by rank over the out-edges x -> succ[x] in increasing x, a
    tie going to the root of x, in increasing index order.  That numbering is
    kept because ``radii.csv`` prints the labels.

    The unions run level by level, with no loop over edges.  The nodes of a
    level all have one rank: at level 0 they are the vertices, at rank 0.  An
    edge whose ends lie in one node is dropped (union-find's skip).  An edge is
    fresh when it is the earliest edge, by tail index, at one of its ends; a
    node first touched by it still has the level's rank, and every other node
    a higher one.  So a fresh edge never moves a root: with both ends fresh
    the ranks tie and the tail's node wins, and a node fresh at one end joins
    the other end's component.  The fresh edges make trees (the atoms), each
    of whose edges is first at one end, and the earliest at both: that edge's
    tail node is the atom's root, at the next rank.  The atoms are the next
    level's nodes, and the other edges join them.  Each level drops its
    earliest edge at least, and halves the nodes that have edges.
    """
    n = g.n_vertices
    t = np.flatnonzero(g.succ >= 0)     # each edge's time: the turn of its union
    a, b = t, g.succ[t]                 # the nodes of its ends: vertices at level 0
    roots, ups = [np.arange(n)], []     # each level's root vertex of a node, and its atom
    while True:
        keep = a != b                   # union-find's skip
        if not keep.all():              # a forest drops none at level 0: no copies
            t, a, b = t[keep], a[keep], b[keep]
        if not t.size:
            break
        m = len(roots[-1])
        first = np.full(m, n)
        np.minimum.at(first, a, t)
        np.minimum.at(first, b, t)
        fresh_a, fresh_b = first[a] == t, first[b] == t
        del first, keep                 # freed before scipy builds its graph
        # compress, not a mask index: several times faster on a mixed mask
        fresh = fresh_a | fresh_b
        joins = csr_matrix((np.ones(np.count_nonzero(fresh)),
                            (a.compress(fresh), b.compress(fresh))), shape=(m, m))
        atom = connected_components(joins, connection="weak")[1]
        del joins
        multi = np.bincount(atom) > 1   # the atoms: a node with an edge has a fresh one
        up = np.where(multi, np.cumsum(multi) - 1, -1)[atom]
        tie = a[fresh_a & fresh_b]
        root = np.empty(multi.sum(), dtype=np.int64)
        root[up[tie]] = roots[-1][tie]
        roots.append(root)
        ups.append(up)
        stale = ~fresh
        t, a, b = t.compress(stale), up[a.compress(stale)], up[b.compress(stale)]
    root = roots.pop()
    for up, level_root in zip(ups[::-1], roots[::-1]):
        root = np.where(up >= 0, root[up], level_root)
    is_root = np.zeros(n, dtype=bool)
    is_root[root] = True
    return (np.cumsum(is_root) - 1)[root]


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
    down = np.zeros(n, dtype=np.int64)  # height of the backward subtree
    for gen in g.generations()[:0:-1]:
        np.maximum.at(down, g.succ[gen], down[gen] + 1)
    child = np.flatnonzero(g.succ >= 0)
    par = g.succ[child]
    # highest sibling subtree of each child: the highest child subtree of its
    # parent, or the second highest for a child that alone holds the highest
    top = np.full(n, -1, dtype=np.int64)
    np.maximum.at(top, par, down[child])
    is_top = down[child] == top[par]
    second = np.full(n, -1, dtype=np.int64)
    np.maximum.at(second, par[~is_top], down[child[~is_top]])
    alone = is_top & (np.bincount(par[is_top], minlength=n)[par] == 1)
    sibling = np.full(n, -1, dtype=np.int64)
    sibling[child] = np.where(alone, second[par], top[par])

    up = np.full(n, -1, dtype=np.int64)  # farthest distance through the out-edge
    for gen in g.generations()[1:]:
        up[gen] = np.maximum(up[g.succ[gen]] + 1, sibling[gen] + 2)

    long_arms = (up >= threshold).astype(np.int64)
    # int64 counts, not bools: ufunc.at takes its fast path only without a cast
    np.add.at(long_arms, par, (down[child] + 1 >= threshold).astype(np.int64))
    return [g.box.vertex_at(i) for i in np.flatnonzero(long_arms >= 3)]


def graph_summary(g):
    """Sizes of the forest: one component per root, and the deepest backward
    cluster, seen from a root, is as deep as the last generation."""
    return {
        "alpha": g.target.level,
        "n_vertices": int(g.n_vertices),
        "n_edges": int(g.n_edges),
        "n_components": int(g.n_vertices - g.n_edges),
        "max_backward_depth": len(g.generations()) - 1,
    }


def graph_to_csv(g, path):
    """CSV dump: x1..xd, dx1..dxd (out-edge displacement, empty for roots).

    The file is written in binary mode from the bytes of ``csv_cells``,
    which formats each distinct value of a column block once, keyed by its bits.
    """
    d = g.box.dim
    head = [f"x{i+1}" for i in range(d)] + [f"dx{i+1}" for i in range(d)]
    coords = g.box.coords()
    steps = np.ma.masked_array(coords[g.succ] - coords)
    steps[g.succ < 0] = np.ma.masked
    with open(path, "wb") as fh:
        fh.writelines(csv_cells(head, [*coords.T, *steps.T]))
