"""Property tests of the successor-forest traversals against independent oracles.

Backward statistics and forward orbits are checked against networkx
ancestors, descendants and path lengths on the successor DiGraph, and the
orbits also against a walk along each chain, cycles included; the
severing closure against ``oracles.reverse_reachable``; encounter points
against removing each vertex and searching every arm of the forest;
component labels against ``oracles.components_union_find`` and networkx
weak components.  Branching-process forests add the bushy trees with tied
subtree heights that small geodesic graphs rarely have.  On tori the two
sweeps must balance: each vertex lies in the backward cluster of every
vertex of its forward chain, so the cluster sizes sum to the chain lengths.
The breadth-first generations are checked against the pointer-doubling hop
counts, which are built independently of them.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from fppgeo.analysis import build_torus_graph, mass_transport_balance
from fppgeo.environment import WeightEnvironment, uniform
from fppgeo.geodesic_graph import (backward_stats, build_graph, components, encounter_points,
                                   forward_orbit, graph_summary)
from fppgeo.geodesics import DistanceField, HyperplaneTarget, solve
from fppgeo.lattice import Box, is_integer_direction
from fppgeo.modification import StripSpec, violating_sources

from oracles import components_union_find, encounter_indices, reverse_reachable, truncate

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def forests(draw):
    """A geodesic graph on a random small 2-d or 3-d box, optionally truncated."""
    dim = draw(st.integers(2, 3))
    sides = st.integers(2, 8) if dim == 2 else st.integers(2, 4)
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    box = Box(lower, tuple(l + draw(sides) - 1 for l in lower))
    theta = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
    if not is_integer_direction(theta):
        theta = (1,) + (0,) * (dim - 1)
    anchor = box.vertex_at(draw(st.integers(0, box.n_vertices - 1)))
    level = sum(c * t for c, t in zip(anchor, theta))
    mode = draw(st.sampled_from(["exact_lattice", "halfspace_frontier"]))
    env = WeightEnvironment(dim, uniform(0.1, 1.0), draw(st.integers(0, 2 ** 32)))
    g = build_graph(solve(env, box, HyperplaneTarget(theta, level, mode)))
    if draw(st.booleans()) and min(box.shape) >= 3:
        g = truncate(g, box.shrink(1))
    return g, theta


@st.composite
def branching_forests(draw):
    """A Galton-Watson forest on a small box, numbered breadth first.

    Vertex k takes the next 0-3 unnumbered vertices as children; a vertex
    that no earlier vertex took is a root.
    """
    dim = draw(st.integers(2, 3))
    box = Box.cube(draw(st.integers(1, 4 if dim == 2 else 2)), dim)
    n = box.n_vertices
    kids = np.random.default_rng(draw(st.integers(0, 2 ** 32))).integers(0, 4, size=n)
    succ = np.full(n, -1)
    taken = 1
    for k in range(n):
        start = max(taken, k + 1)
        taken = min(start + kids[k], n)
        succ[start:taken] = k
    g = _graph_on(box, succ)
    return g, g.target.direction


def _graph_on(box, succ):
    n = box.n_vertices
    return DistanceField(box=box, target=HyperplaneTarget((1,) + (0,) * (box.dim - 1), 0),
                         T=np.zeros(n), succ=succ, target_mask=succ < 0)


FORESTS = st.one_of(forests(), branching_forests())


@st.composite
def torus_forests(draw):
    """A geodesic forest on a random small 2-d or 3-d torus."""
    dim = draw(st.integers(2, 3))
    dims = tuple(draw(st.integers(3, 8 if dim == 2 else 4)) for _ in range(dim))
    theta = (1,) + (0,) * (dim - 1)
    env = WeightEnvironment(dim, uniform(0.1, 1.0), draw(st.integers(0, 2 ** 32)))
    return build_torus_graph(env, dims, theta, draw(st.integers(0, dims[0] - 1)))


@st.composite
def successor_arrays(draw):
    """Any out-degree <= 1 graph on a small box: self-loops and cycles allowed."""
    box = Box.cube(draw(st.integers(0, 4)), 2)
    n = box.n_vertices
    succ = np.random.default_rng(draw(st.integers(0, 2 ** 32))).integers(-1, n, size=n)
    return _graph_on(box, succ)


def _digraph(g):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(g.n_vertices))
    graph.add_edges_from((i, int(s)) for i, s in enumerate(g.succ) if s >= 0)
    return graph


@SETTINGS
@given(FORESTS)
def test_backward_stats_match_networkx_ancestors(forest):
    g, _ = forest
    graph = _digraph(g)
    boundary = g.box.boundary_mask()
    sizes, depth, touch = backward_stats(g)
    for i in range(g.n_vertices):
        anc = nx.ancestors(graph, i)
        assert sizes[i] == len(anc) + 1
        assert depth[i] == max((nx.shortest_path_length(graph, a, i) for a in anc), default=0)
        assert touch[i] == (boundary[i] or any(boundary[a] for a in anc))


@SETTINGS
@given(FORESTS, st.data())
def test_forward_orbit_is_union_of_descendants(forest, data):
    g, _ = forest
    graph = _digraph(g)
    sources = data.draw(st.lists(st.integers(0, g.n_vertices - 1), max_size=4))
    expect = set(sources).union(*(nx.descendants(graph, s) for s in sources))
    assert set(np.flatnonzero(forward_orbit(g, sources)).tolist()) == expect


def _chain_walk(succ, sources):
    """The vertices of the forward chains of ``sources``, one chain at a time;
    None if a chain runs into a cycle."""
    seen = set()
    for x in sources:
        chain = set()
        while x >= 0:
            if x in chain:
                return None
            chain.add(x)
            x = succ[x]
        seen |= chain
    return seen


@SETTINGS
@given(st.one_of(FORESTS.map(lambda forest: forest[0]), successor_arrays()), st.data())
def test_forward_orbit_matches_a_chain_walk(g, data):
    # many sources, repeats and sources on each other's chains included; on a
    # graph with cycles the orbit raises exactly when a chain runs into one
    sources = data.draw(st.lists(st.integers(0, g.n_vertices - 1), max_size=3 * g.n_vertices))
    expect = _chain_walk(g.succ.tolist(), sources)
    if expect is None:
        with pytest.raises(ValueError, match="successor cycle"):
            forward_orbit(g, sources)
    else:
        assert set(np.flatnonzero(forward_orbit(g, sources)).tolist()) == expect


@SETTINGS
@given(FORESTS, st.data())
def test_violating_sources_match_reverse_reachable(forest, data):
    g, theta = forest
    xi = g.box.vertex_at(data.draw(st.integers(0, g.n_vertices - 1)))
    spec = StripSpec(theta, N=3, M=2.0, M_prime=1, epsilon=0.1, delta=0.1)
    vertex = g.box.vertex_at
    succ_map = {vertex(i): (vertex(int(s)) if s >= 0 else None) for i, s in enumerate(g.succ)}
    path = [xi]
    while succ_map[path[-1]] is not None:
        path.append(succ_map[path[-1]])
    closure = reverse_reachable(succ_map, path)
    expect = sorted(z for z in closure if sum(c * t for c, t in zip(z, theta)) <= 0)
    found = violating_sources(g, spec, xi)
    assert found.dtype == np.int64
    assert found.tolist() == [g.box.index_of(z) for z in expect]


@settings(max_examples=100, deadline=None)
@given(FORESTS)
def test_encounter_points_match_arm_search(forest):
    g, _ = forest
    for threshold in range(7):
        expect = [g.box.vertex_at(i) for i in encounter_indices(g.succ, threshold)]
        found = encounter_points(g, threshold)
        assert found == expect
        assert all(type(c) is int for z in found for c in z)     # not np.int64


def _doubling_forest(box):
    """A forest on 2**k vertices whose union by rank reaches rank k, one rank per level.

    Stage s joins pairs of blocks of 2**s vertices from each block's one free
    vertex; the vertices are numbered in stage order, so every tie of a stage
    is met before the stage above it."""
    k = box.n_vertices.bit_length() - 1
    assert box.n_vertices == 2 ** k
    order = [(2 * j + 1 << s) - 1 for s in range(k) for j in range(2 ** (k - s - 1))]
    number = {v: i for i, v in enumerate(order + [2 ** k - 1])}
    succ = np.full(2 ** k, -1)
    for v in order:
        # v + 1 = (2j + 1) 2**s, and v + 2**s is the free vertex of the next block
        succ[number[v]] = number[v + ((v + 1) & -(v + 1))]
    return _graph_on(box, succ)


# the union-by-rank roots 1 of {1, 2}, 3 of {3} and 4 of {0, 4, 5} run in another
# order than the least indices 1, 3 and 0, which number scipy's labels
ROOTS_OUT_OF_INDEX_ORDER = _graph_on(Box.cube(1, 2), np.array([-1, 2, -1, -1, 5, 0, -1, -1, -1]))


def test_union_by_rank_labels_are_not_scipy_labels():
    g = ROOTS_OUT_OF_INDEX_ORDER
    up = np.where(g.succ >= 0, g.succ, np.arange(g.n_vertices))
    graph = csr_matrix((np.ones(g.n_vertices), (np.arange(g.n_vertices), up)))
    scipy_labels = connected_components(graph, connection="weak")[1]
    labels = components_union_find(g.succ)[0]
    assert labels.tolist() == [2, 0, 0, 1, 2, 2, 3, 4, 5]
    assert scipy_labels.tolist() != labels.tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(FORESTS.map(lambda forest: forest[0]), torus_forests(), successor_arrays()))
@example(_doubling_forest(Box((0, 0), (7, 7))))        # rank 6: six levels of unions
@example(ROOTS_OUT_OF_INDEX_ORDER)
# a 2-cycle 0 <-> 1 with a tree 2 -> 1, 3 -> 2 off it, and a self-loop 4 with a leaf 5
@example(_graph_on(Box.cube(1, 2), np.array([1, 0, 1, 2, 4, 4, -1, 8, -1])))
def test_components_match_union_find_oracle_and_networkx(g):
    comp = components(g)
    labels, sizes, _ = components_union_find(g.succ)
    assert comp.tolist() == labels.tolist()
    assert np.bincount(comp).tolist() == sizes.tolist()
    assert comp.max() + 1 == len(sizes)
    blocks = {frozenset(np.flatnonzero(comp == k).tolist()) for k in range(comp.max() + 1)}
    assert blocks == set(map(frozenset, nx.weakly_connected_components(_digraph(g))))


@SETTINGS
@given(FORESTS)
def test_generations_are_the_hop_levels(forest):
    g, _ = forest
    gens = g.generations()
    assert np.array_equal(np.sort(np.concatenate(gens)), np.arange(g.n_vertices))
    assert np.array_equal(np.sort(gens[0]), np.flatnonzero(g.succ < 0))
    for gen, deeper in zip(gens, gens[1:]):
        assert np.isin(g.succ[deeper], gen).all()
    level = np.empty(g.n_vertices, dtype=np.int64)
    for k, gen in enumerate(gens):
        level[gen] = k
    assert np.array_equal(level, g.hops())


def _cycle_on_3x3(*arrows):
    succ = np.full(9, -1)
    for i, s in arrows:
        succ[i] = s
    return _graph_on(Box.cube(1, 2), succ)


@pytest.mark.parametrize("g", [
    _cycle_on_3x3((4, 4), (5, 4)),
    _graph_on(Box.cube(1, 2), np.roll(np.arange(9), -1)),
    _cycle_on_3x3((0, 1), (1, 0), (2, 1)),
], ids=["self-loop", "no-root", "two-cycle-with-chain"])
def test_generations_raise_on_a_successor_cycle(g):
    with pytest.raises(ValueError, match="successor cycle"):
        g.generations()


@SETTINGS
@given(torus_forests())
def test_torus_sweeps_balance_and_touch_no_boundary(g):
    sizes, _, touch = backward_stats(g)
    assert sizes.sum() == (g.hops() + 1).sum()
    assert not g.box.boundary_mask().any()
    assert not touch.any()


@SETTINGS
@given(FORESTS)
def test_graph_summary_matches_components_and_backward_depth(forest):
    g, _ = forest
    summary = graph_summary(g)
    assert summary["n_components"] == components(g).max() + 1
    assert summary["max_backward_depth"] == backward_stats(g)[1].max()


@SETTINGS
@given(torus_forests())
def test_mass_transport_trees_are_the_weak_components(g):
    report = mass_transport_balance(g, g.target.direction)
    assert report.n_components == components(g).max() + 1
    assert report.total_sent == report.total_received == g.n_vertices
