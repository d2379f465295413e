"""Property tests of the lattice-graph core against independent oracles.

Edge enumeration is checked against ``lattice.neighbors``; passage times on
boxes and tori against a networkx multi-source Dijkstra over a graph built
edge by edge from ``weight_of``.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppgeo.analysis import build_torus_graph
from fppgeo.environment import TorusEnvironment, WeightEnvironment, uniform
from fppgeo.geodesics import HyperplaneTarget, PointTarget, solve
from fppgeo.lattice import Box, neighbors

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
    assert _pairs(box.axis_edges()) == _brute_axis_edges(box, periodic=False)


@SETTINGS
@given(boxes(sides=st.integers(3, 5)))
def test_periodic_axis_edges_match_wrapped_neighbors(box):
    assert _pairs(box.axis_edges(periodic=True)) == _brute_axis_edges(box, periodic=True)


def test_periodic_axis_edges_reject_short_sides():
    with pytest.raises(ValueError):
        Box((0, 0), (1, 5)).axis_edges(periodic=True)


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
        target = PointTarget(anchor)
    else:
        theta = data.draw(st.sampled_from([(1,) + (0,) * (box.dim - 1),
                                           (1, -1) + (0,) * (box.dim - 2)]))
        target = HyperplaneTarget(theta, sum(c * t for c, t in zip(anchor, theta)))
    field = solve(env, box, target)
    targets = [v for v, hit in zip(vertices, field.target_mask) if hit]
    expect = _nx_passage_times(env, vertices, lambda w: w if box.contains(w) else None,
                               targets)
    np.testing.assert_allclose(field.T, expect, rtol=1e-12)


@SETTINGS
@given(st.lists(st.integers(3, 6), min_size=2, max_size=3), st.integers(0, 2 ** 32),
       st.integers(0, 2))
def test_torus_graph_matches_networkx(dims, seed, level):
    dims = tuple(dims)
    tenv = TorusEnvironment(WeightEnvironment(len(dims), uniform(0.1, 1.0), seed), dims)
    theta = (1,) + (0,) * (len(dims) - 1)
    g = build_torus_graph(tenv, theta, level)
    vertices = [tuple(int(c) for c in np.unravel_index(i, dims)) for i in range(g.n_vertices)]
    targets = [v for v in vertices if v[0] == level]
    # a vertex of [0, L) owns the edge to its +e_axis neighbor, so weight_of of the
    # unwrapped edge is the torus weight
    expect = _nx_passage_times(tenv.env, vertices,
                               lambda w: tuple(c % L for c, L in zip(w, dims)), targets)
    np.testing.assert_allclose(g.T, expect, rtol=1e-12)
