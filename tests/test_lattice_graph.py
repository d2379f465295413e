"""Property tests of the lattice-graph core against independent oracles.

The edge enumeration ``oracles.axis_edges`` is checked against
``oracles.neighbors``; the neighbor table, hashed slab by slab, against the
per-edge scatter of ``oracles``, and the axis weights it holds against the
per-edge hashing of ``oracles``, overrides included; passage times on
boxes and tori against a networkx multi-source Dijkstra over a graph built
edge by edge from ``weight_of``; the successor of every vertex against a
scan of its neighbors in the documented tie order, under weights 1 and 2 so
that ties are common; and the ``halfspace_frontier`` target against its
definition, on directions and levels exact in binary.
"""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fppgeo import geodesics
from fppgeo.analysis import build_torus_graph
from fppgeo.environment import (DistributionSpec, WeightEnvironment, override_edges, uniform,
                                with_overrides)
from fppgeo.geodesics import HyperplaneTarget, _neighbor_table, target_mask
from fppgeo.lattice import Box

from oracles import (axis_edges, neighbor_table, neighbors, override_box, per_edge_weights,
                     target_field)

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def boxes(draw, dims=st.integers(2, 3), sides=st.integers(1, 5)):
    dim = draw(dims)
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    return Box(lower, tuple(l + draw(sides) - 1 for l in lower))


def _brute_axis_edges(box, periodic):
    """Per-axis sorted (tail, head) index pairs, from the +e_axis neighbor of each vertex."""
    lower, shape = np.asarray(box.lower), np.asarray(box.shape)
    out = [[] for _ in range(box.dim)]
    for i in range(box.n_vertices):
        v = box.vertex_at(i)
        for axis in range(box.dim):
            w = neighbors(v)[2 * axis]
            if periodic:
                w = tuple(int(c) for c in lower + (np.asarray(w) - lower) % shape)
            if box.contains(w):
                out[axis].append((i, box.index_of(w)))
    return [sorted(pairs) for pairs in out]


def _pairs(edges):
    return [sorted(zip(t.tolist(), h.tolist())) for t, h in edges]


@SETTINGS
@given(boxes())
def test_axis_edges_match_neighbor_enumeration(box):
    assert _pairs(axis_edges(box)) == _brute_axis_edges(box, periodic=False)


@SETTINGS
@given(boxes(sides=st.integers(3, 5)))
def test_periodic_axis_edges_match_wrapped_neighbors(box):
    torus = Box(box.lower, box.upper, periodic=True)
    assert _pairs(axis_edges(torus)) == _brute_axis_edges(box, periodic=True)


def test_periodic_axis_edges_reject_short_sides():
    with pytest.raises(ValueError):
        Box((0, 0), (1, 5), periodic=True)


@st.composite
def grid_boxes(draw):
    """A plain box in d = 2..4, side-1 axes included, or a periodic one."""
    dim = draw(st.integers(2, 4))
    periodic = draw(st.booleans())
    sides = st.integers(3 if periodic else 1, 5 if dim < 4 else 3)
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    return Box(lower, tuple(l + draw(sides) - 1 for l in lower), periodic=periodic)


DISTS = [uniform(0.0, 1.0), DistributionSpec("exponential", (1.5,)),
         uniform(0.5, 2.5)]


def _sliced_table(env, box, slab):
    """The neighbor table of ``box`` under ``env``, hashed in slabs of about ``slab`` edges.

    Slabs of a few edges put every seam inside the box, and split a torus's
    wrap layer too.
    """
    with mock.patch.object(geodesics, "SLAB_EDGES", slab):
        return _neighbor_table(env, box)


@SETTINGS
@given(grid_boxes(), st.integers(0, 2 ** 64 - 1), st.integers(1, 12))
@example(Box((0,) * 4, (2,) * 4, periodic=True), 5, 1)     # one edge per slab, every wrap layer
@example(Box((-1, 0, 2), (2, 0, 4)), 6, 4)                  # a side-1 axis has no edges
def test_sliced_neighbor_table_equals_the_per_edge_scatter(box, seed, slab):
    env = WeightEnvironment(box.dim, uniform(0.5, 2.0), seed)
    nbr, wt = _sliced_table(env, box, slab)
    expect_nbr, expect_wt = neighbor_table(axis_edges(box), per_edge_weights(env, box),
                                           box.n_vertices)
    assert (nbr.dtype, wt.dtype) == (expect_nbr.dtype, expect_wt.dtype)
    assert np.array_equal(nbr, expect_nbr) and np.array_equal(wt, expect_wt)


@SETTINGS
@given(grid_boxes(), st.sampled_from(DISTS), st.integers(0, 2 ** 64 - 1), st.integers(1, 12),
       st.data())
def test_axis_weights_equal_the_per_edge_hashing(box, dist, seed, slab, data):
    env = WeightEnvironment(box.dim, dist, seed)
    # overrides on some edges of the box, wrap edges included: (tail, tail + e_axis)
    tails = np.repeat(box.coords(), box.dim, axis=0)
    heads = tails + np.tile(np.eye(box.dim, dtype=np.int64), (box.n_vertices, 1))
    chosen = data.draw(st.lists(st.integers(0, len(tails) - 1), max_size=6))
    if chosen:
        env = override_edges(env, np.stack([tails[chosen], heads[chosen]], axis=1),
                             1.0 + np.arange(len(chosen)))
    _, wt = _sliced_table(env, box, slab)
    # the weights of each axis, read off the +e slots of the tails and the
    # -e slots of the heads
    slots = 2 * box.dim
    for axis, ((u, v), expect) in enumerate(zip(axis_edges(box), per_edge_weights(env, box))):
        for got in (wt[u, slots - 1 - axis], wt[v, axis]):
            assert (got.dtype, got.shape) == (expect.dtype, expect.shape)
            assert np.array_equal(got, expect)


def _nx_passage_times(env, vertices, head, targets):
    """networkx distances over the edges (v, head(v + e_axis)); head None drops an edge."""
    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    for v in vertices:
        for w in neighbors(v)[::2]:                   # the +e_axis neighbors
            if head(w) is not None:
                graph.add_edge(v, head(w), weight=env.weight_of((v, w)))
    dist = nx.multi_source_dijkstra_path_length(graph, set(targets))
    return [dist.get(v, np.inf) for v in vertices]


@SETTINGS
@given(boxes(sides=st.integers(2, 5)), st.integers(0, 2 ** 32), st.data())
def test_solve_matches_networkx(box, seed, data):
    env = WeightEnvironment(box.dim, uniform(0.1, 1.0), seed)
    vertices = [box.vertex_at(i) for i in range(box.n_vertices)]
    anchor = data.draw(st.sampled_from(vertices))
    if data.draw(st.booleans()):
        target = anchor
    else:
        theta = data.draw(st.sampled_from([(1,) + (0,) * (box.dim - 1),
                                           (1, -1) + (0,) * (box.dim - 2)]))
        target = HyperplaneTarget(theta, sum(c * t for c, t in zip(anchor, theta)))
    field = target_field(env, box, target)
    targets = [v for v, hit in zip(vertices, field.target_mask) if hit]
    expect = _nx_passage_times(env, vertices, lambda w: w if box.contains(w) else None,
                               targets)
    np.testing.assert_allclose(field.T, expect, rtol=1e-12)


@SETTINGS
@given(st.lists(st.integers(3, 6), min_size=2, max_size=3), st.integers(0, 2 ** 32),
       st.integers(0, 2))
def test_torus_graph_matches_networkx(dims, seed, level):
    dims = tuple(dims)
    env = WeightEnvironment(len(dims), uniform(0.1, 1.0), seed)
    theta = (1,) + (0,) * (len(dims) - 1)
    g = build_torus_graph(env, dims, theta, level)
    vertices = [tuple(int(c) for c in np.unravel_index(i, dims)) for i in range(g.n_vertices)]
    targets = [v for v in vertices if v[0] == level]
    # a vertex of [0, L) owns the edge to its +e_axis neighbor, so weight_of of the
    # unwrapped edge is the torus weight
    expect = _nx_passage_times(env, vertices,
                               lambda w: tuple(c % L for c, L in zip(w, dims)), targets)
    np.testing.assert_allclose(g.T, expect, rtol=1e-12)


def _one_or_two_weights(box, seed):
    """Weights 1 or 2, at random, on every edge whose tail lies in ``box``."""
    reach = Box(box.lower, tuple(u + 1 for u in box.upper))
    env = override_box(WeightEnvironment(box.dim, uniform(0.1, 1.0), seed), reach, 1.0)
    points = reach.coords().tolist()
    edges = [(tuple(points[u]), tuple(points[v]))
             for tails, heads in axis_edges(reach) for u, v in zip(tails, heads)]
    heavy = np.random.default_rng(seed).random(len(edges)) < 0.5
    return with_overrides(env, [e for e, h in zip(edges, heavy) if h], 2.0)


def _first_argmin_neighbor(env, box, T, x):
    """min of w(x, y) + T(y) over the neighbors y of x, and the first y attaining it.

    Neighbors are scanned in the order -e1, -e2, ..., -ed, +ed, ..., +e1; on
    a periodic box they wrap around.  The weight of the edge {tail, tail + e}
    is read edge by edge from ``edge_weights`` at the tail.
    """
    lower, shape = np.asarray(box.lower), np.asarray(box.shape)
    best, arg = np.inf, None
    order = [(a, -1) for a in range(box.dim)] + [(a, 1) for a in reversed(range(box.dim))]
    for axis, sign in order:
        e = np.eye(box.dim, dtype=np.int64)[axis]
        tail, y = (x - e, x - e) if sign < 0 else (x, x + e)
        if box.periodic:
            tail, y = (lower + (p - lower) % shape for p in (tail, y))
        if not box.contains(y):
            continue
        cost = env.edge_weights(tail[None], np.array([axis]))[0] + T[box.index_of(y)]
        if cost < best:
            best, arg = cost, box.index_of(y)
    return best, arg


@SETTINGS
@given(boxes(sides=st.integers(3, 5)), st.booleans(), st.integers(0, 2 ** 32), st.data())
def test_successor_is_first_argmin_in_direction_order(box, periodic, seed, data):
    box = Box(box.lower, box.upper, periodic=periodic)
    env = _one_or_two_weights(box, seed)
    anchor = box.vertex_at(data.draw(st.integers(0, box.n_vertices - 1)))
    target = data.draw(st.sampled_from([anchor,
                                        HyperplaneTarget((1,) + (0,) * (box.dim - 1), anchor[0])]))
    field = target_field(env, box, target)
    for i in range(box.n_vertices):
        if field.target_mask[i]:
            assert field.succ[i] == -1
        else:
            best, arg = _first_argmin_neighbor(env, box, field.T, np.array(box.vertex_at(i)))
            assert (field.succ[i], field.T[i]) == (arg, best)


@SETTINGS
@given(boxes(sides=st.integers(1, 5)), st.lists(st.integers(-8, 8), min_size=3, max_size=3),
       st.integers(-8, 8), st.data())
def test_halfspace_frontier_is_inner_layer_of_upper_halfspace(box, quarters, offset, data):
    """The target is every vertex of {z . direction >= level} with a lattice neighbor outside it."""
    direction = tuple(q / 4 for q in quarters[:box.dim])
    assume(any(direction))
    vertices = [box.vertex_at(i) for i in range(box.n_vertices)]

    def dot(z):
        return sum(c * t for c, t in zip(z, direction))

    level = dot(data.draw(st.sampled_from(vertices))) + offset / 4
    mask = target_mask(HyperplaneTarget(direction, level, mode="halfspace_frontier"), box)
    expect = [dot(z) >= level and any(dot(w) < level for w in neighbors(z)) for z in vertices]
    assert mask.tolist() == expect
