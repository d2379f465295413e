import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppgeo.environment import WeightEnvironment, uniform
from fppgeo.geodesic_graph import forward_path
from fppgeo.geodesics import HyperplaneTarget, solve, target_mask
from fppgeo.lattice import Box, lattice_point_on_level, normalize_direction

from oracles import axis_edges, levels_with_lattice_points, neighbors, normalize_by_search


def hyperplane_vertices(theta, n, box):
    """The box vertices z with z . theta = n, in lexicographic order, by ``target_mask``."""
    hit = box.coords()[target_mask(HyperplaneTarget(theta, n), box)]
    return [tuple(int(c) for c in row) for row in hit]


def test_neighbors_d2_order():
    assert neighbors((0, 0)) == [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_neighbors_d3_count_and_distance():
    ns = neighbors((1, 1, 1))
    assert len(ns) == 6
    assert all(sum(abs(a - b) for a, b in zip(v, (1, 1, 1))) == 1 for v in ns)


def test_neighbors_count_random_dims():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        v = tuple(int(c) for c in rng.integers(-50, 50, size=d))
        assert len(neighbors(v)) == 2 * d


def test_box_validation_and_indexing():
    box = Box((-2, -1), (3, 4))
    assert box.n_vertices == 6 * 6
    assert box.vertex_at(box.index_of((0, 2))) == (0, 2)
    # lexicographic flat ordering
    idx = [box.vertex_at(i) for i in range(box.n_vertices)]
    assert idx == sorted(idx)
    with pytest.raises(ValueError):
        Box((1, 0), (0, 0))
    with pytest.raises(ValueError):
        box.index_of((9, 9))


@pytest.mark.parametrize("call", [
    lambda box: box.contains((1,)),
    lambda box: box.index_of((1,)),
    lambda box: box.index_of((1, 0, 99)),
    lambda box: box.indices_of([[1], [2]]),
    lambda box: box.indices_of([[1, 0, 0]]),
    lambda box: box.indices_of([1, 0]),         # one point, not an (m, d) array
    lambda box: box.levels((1, 0, 0)),
], ids=["contains", "index_of-short", "index_of-long", "indices_of-short", "indices_of-long",
        "indices_of-flat", "levels"])
def test_points_of_the_wrong_dimension_raise(call):
    with pytest.raises(ValueError, match="on a 2-d box"):
        call(Box.cube(2, 2))


def test_no_box_contains_a_box_of_another_dimension():
    assert Box.cube(4, 2).contains_box(Box.cube(1, 2))
    assert not Box.cube(4, 2).contains_box(Box.cube(1, 3))
    assert not Box.cube(4, 3).contains_box(Box.cube(1, 2))


@pytest.mark.parametrize("idx", [9, -1, np.int64(9), np.int64(-1)])
def test_vertex_at_rejects_an_index_outside_the_box(idx):
    with pytest.raises(ValueError, match="outside box"):
        Box.cube(1, 2).vertex_at(idx)


def test_vertex_at_returns_python_ints():
    box = Box.cube(1, 2)
    for idx in (7, np.int64(7), np.intp(7)):
        v = box.vertex_at(idx)
        assert v == (1, 0) and all(type(c) is int for c in v)
    with pytest.raises(TypeError):
        box.vertex_at(7.0)


def test_forward_path_from_a_short_point_raises():
    box = Box.cube(3, 2)
    g = solve(WeightEnvironment(2, uniform(0, 1), 0), box, HyperplaneTarget((1, 0), 3))
    with pytest.raises(ValueError, match="a 1-d point on a 2-d box"):
        forward_path(g, (1,))


@st.composite
def boxes(draw, periodic=st.booleans()):
    """Plain or periodic boxes, d = 2..4, with corners on both sides of the origin."""
    d = draw(st.integers(2, 4))
    periodic = draw(periodic)
    lower = draw(st.lists(st.integers(-6, 3), min_size=d, max_size=d))
    sides = draw(st.lists(st.integers(3 if periodic else 1, 7 if d < 4 else 4),
                          min_size=d, max_size=d))
    return Box(tuple(lower), tuple(l + s - 1 for l, s in zip(lower, sides)), periodic)


@settings(max_examples=60, deadline=None)
@given(box=boxes(), data=st.data())
def test_levels_match_a_per_vertex_scan(box, data):
    theta = data.draw(st.lists(st.integers(-3, 3), min_size=box.dim, max_size=box.dim)
                      .filter(any))
    # the wrap of the docstring: mod m = gcd_i(theta_i L_i), into [b, b + m)
    m = math.gcd(*(t * L for t, L in zip(theta, box.shape)))
    base = sum(t * l for t, l in zip(theta, box.lower))
    expect = []
    for i in range(box.n_vertices):
        level = sum(t * c for t, c in zip(theta, box.vertex_at(i)))
        expect.append(base + (level - base) % m if box.periodic else level)
    levels = box.levels(theta)
    assert levels.dtype == np.int64 and levels.tolist() == expect
    with pytest.raises(ValueError, match=f"a {box.dim + 1}-d direction on a {box.dim}-d box"):
        box.levels((*theta, 1))


@settings(max_examples=40, deadline=None)
@given(box=boxes(periodic=st.just(False)))
def test_edge_ends_pair_the_tails_with_their_heads(box):
    index = np.arange(box.n_vertices)
    for axis, (tails, heads) in enumerate(axis_edges(box)):
        got = box.edge_ends(axis, index)
        assert [end.ravel().tolist() for end in got] == [tails.tolist(), heads.tolist()]
        # writing through the views writes the per-vertex array
        values, expect = np.zeros(box.n_vertices, dtype=np.int64), np.zeros(box.n_vertices)
        tail, head = box.edge_ends(axis, values)
        tail += 1
        head += 10
        np.add.at(expect, tails, 1)
        np.add.at(expect, heads, 10)
        assert values.tolist() == expect.tolist()


def test_edge_ends_reject_a_torus():
    with pytest.raises(ValueError, match="torus"):
        Box((0, 0), (2, 2), periodic=True).edge_ends(0, np.arange(9))


def test_normalize_direction_examples():
    assert normalize_direction((-6, 9)) == (-2, 3)
    assert normalize_direction((2, 4)) == (1, 2)
    assert normalize_direction((1, 0)) == (1, 0)
    # a component that is not an integer raises instead of being truncated
    for rho in ((0.5, 1.5), (1, 2.0), ((1, 2), (3, 2))):
        with pytest.raises(TypeError, match="must be integers"):
            normalize_direction(rho)


def test_normalize_direction_zero_vector():
    with pytest.raises(ValueError):
        normalize_direction((0, 0, 0))


def test_normalize_direction_matches_oracle_and_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        while True:
            # a common factor makes most draws non-coprime; components may be negative
            rho = tuple(int(c) for c in rng.integers(-9, 10, size=d) * rng.integers(1, 5))
            if any(rho):
                break
        theta = normalize_direction(rho)
        assert theta == normalize_by_search(rho)
        assert math.gcd(*(abs(c) for c in theta)) == 1
        # idempotent and invariant under positive integer scaling
        assert normalize_direction(theta) == theta
        c = int(rng.integers(1, 7))
        assert normalize_direction(tuple(c * r for r in rho)) == theta


def test_normalized_direction_levels_are_all_integers():
    # output theta reaches every integer level inside a finite search cube
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = tuple(int(c) for c in rng.integers(-5, 6, size=2) * rng.integers(1, 4))
        if not any(rho):
            continue
        theta = normalize_direction(rho)
        radius = max(15, max(abs(c) for c in theta))
        found = levels_with_lattice_points(theta, radius, (-5, 5))
        assert set(range(-5, 6)) <= found


def test_lattice_point_on_level():
    for theta in [(1, 0), (1, 2), (3, -2), (2, 3, 5)]:
        for n in range(-10, 11):
            z = lattice_point_on_level(theta, n)
            assert sum(c * t for c, t in zip(z, theta)) == n


def test_hyperplane_vertices_diagonal():
    box = Box.cube(2, 2)
    got = hyperplane_vertices((1, 1), 0, box)
    assert got == [(-2, 2), (-1, 1), (0, 0), (1, -1), (2, -2)]


def test_hyperplane_vertices_skew_matches_bruteforce():
    box = Box.cube(2, 2)
    got = hyperplane_vertices((1, 2), 0, box)
    brute = sorted(v for v in (tuple(r) for r in np.array(box.coords()))
                   if v[0] + 2 * v[1] == 0)
    assert got == [(-2, 1), (0, 0), (2, -1)]
    assert got == brute


def test_hyperplane_vertices_nonempty_for_coprime():
    box = Box.cube(8, 2)
    for theta in [(1, 1), (2, 3), (5, -3)]:
        for n in (-2, 0, 3):
            assert hyperplane_vertices(theta, n, box)

