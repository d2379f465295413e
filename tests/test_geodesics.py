import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fppgeo import geodesics
from fppgeo.analysis import direction_grid, estimate_shape, intersection_radii, padded_solve_box
from fppgeo.environment import WeightEnvironment, edge_ids, override_edges, uniform, with_overrides
from fppgeo.geodesic_graph import components, forward_path
from fppgeo.geodesics import (HyperplaneTarget, _neighbor_table, _shortest_paths, passage_times,
                              solve)
from fppgeo.lattice import Box

from oracles import (bellman_ford, min_simple_path_weight, path_weight, point_field,
                     successor_margin, unit_environment, weight_environment)


def passage_time(f, x):
    return float(f.T[f.box.index_of(x)])


def geodesic(f, x):
    """The successor chain from x as vertex tuples; it must end on the target."""
    chain = forward_path(f, x)
    assert f.target_mask[chain[-1]]
    return [f.box.vertex_at(int(i)) for i in chain]


def test_unit_weights_point_target_is_l1():
    box = Box.cube(4, 2)
    env = unit_environment(2, box)
    f = point_field(env, box, (0, 0))
    coords = box.coords()
    assert np.array_equal(f.T, np.abs(coords).sum(axis=1).astype(float))


def test_unit_weights_hyperplane_is_level_distance():
    box = Box.cube(4, 2)
    env = unit_environment(2, box)
    f = solve(env, box, HyperplaneTarget((1, 0), 0))
    coords = box.coords()
    assert np.array_equal(f.T, np.abs(coords[:, 0]).astype(float))


def test_passage_time_zero_iff_target():
    box = Box.cube(3, 2)
    env = WeightEnvironment(2, uniform(0, 1), 3)
    f = point_field(env, box, (1, -1))
    assert passage_time(f, (1, -1)) == 0.0
    assert passage_time(f, (0, 0)) > 0.0
    with pytest.raises(ValueError):
        passage_time(f, (9, 9))


def test_solve_matches_bellman_ford_small_boxes():
    box = Box.cube(2, 2)
    for seed in range(25):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        f = point_field(env, box, (0, 0))
        oracle = bellman_ford(env, box, [(0, 0)])
        for i in range(box.n_vertices):
            v = box.vertex_at(i)
            assert f.T[i] == pytest.approx(oracle[v], rel=1e-12)


def test_solve_hyperplane_matches_bellman_ford():
    box = Box.cube(2, 2)
    for seed in range(10):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        target = HyperplaneTarget((1, 1), 0)
        f = solve(env, box, target)
        targets = [box.vertex_at(i) for i in np.flatnonzero(f.target_mask)]
        oracle = bellman_ford(env, box, targets)
        for i in range(box.n_vertices):
            assert f.T[i] == pytest.approx(oracle[box.vertex_at(i)], rel=1e-12)


@pytest.mark.parametrize("box, theta, level", [
    (Box((-4, -3, -5), (3, 4, 2)), (1, 2, -1), 3),
    (Box((0, 0, 0), (3, 4, 5), periodic=True), (1, 2, 3), 1),
], ids=["plain", "torus"])
def test_solve_builds_no_coordinate_table(monkeypatch, box, theta, level):
    expect = solve(WeightEnvironment(3, uniform(0, 1), 0), box, HyperplaneTarget(theta, level))

    def coords(self):
        raise AssertionError("solve built the coordinate table")

    monkeypatch.setattr(Box, "coords", coords)
    g = solve(WeightEnvironment(3, uniform(0, 1), 0), box, HyperplaneTarget(theta, level))
    assert g.T.tobytes() == expect.T.tobytes() and g.succ.tobytes() == expect.succ.tobytes()


def test_no_target_in_box_raises():
    box = Box.cube(2, 2)
    env = WeightEnvironment(2, uniform(0, 1), 0)
    with pytest.raises(ValueError):
        solve(env, box, HyperplaneTarget((1, 0), 99))
    with pytest.raises(ValueError):
        solve(env, box, HyperplaneTarget((1.0, 0.5), 50.0, mode="halfspace_frontier"))


def test_extract_geodesic_trivial_and_forced():
    box = Box.cube(3, 2)
    env = unit_environment(2, box)
    f = point_field(env, box, (0, 0))
    assert geodesic(f, (0, 0)) == [(0, 0)]
    # deterministic tie-break forces the straight path
    assert geodesic(f, (2, 0)) == [(2, 0), (1, 0), (0, 0)]


def test_extract_geodesic_weight_and_simplicity():
    box = Box.cube(3, 2)
    for seed in range(20):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        f = point_field(env, box, (0, 0))
        path = geodesic(f, (3, 3))
        assert len(set(path)) == len(path)
        assert path_weight(env, path) == pytest.approx(passage_time(f, (3, 3)), rel=1e-9)


def test_geodesic_matches_exhaustive_enumeration():
    box = Box((0, 0), (3, 3))
    for seed in range(5):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        f = point_field(env, box, (0, 0))
        path = geodesic(f, (3, 3))
        best = min_simple_path_weight(env, box, (3, 3), (0, 0))
        assert path_weight(env, path) == pytest.approx(best, rel=1e-12)
        assert passage_time(f, (3, 3)) == pytest.approx(best, rel=1e-12)


def test_point_target_symmetry():
    box = Box.cube(4, 2)
    env = WeightEnvironment(2, uniform(0, 1), 17)
    x, y = (3, -2), (-1, 4)
    fx = point_field(env, box, x)
    fy = point_field(env, box, y)
    assert passage_time(fx, y) == pytest.approx(passage_time(fy, x), rel=1e-12)


def test_triangle_inequality():
    box = Box.cube(4, 2)
    env = WeightEnvironment(2, uniform(0, 1), 23)
    rng = np.random.default_rng(1)
    pts = [tuple(int(c) for c in rng.integers(-4, 5, size=2)) for _ in range(12)]
    fields = {p: point_field(env, box, p) for p in pts[:4]}
    for y, fy in fields.items():
        for x in pts:
            for z, fz in fields.items():
                assert passage_time(fz, x) <= passage_time(fy, x) + passage_time(fz, y) + 1e-9


def test_successor_uniqueness_surrogate():
    # over many continuous-weight instances, no near-tied successor choice
    box = Box.cube(2, 2)
    worst = np.inf
    for seed in range(1000):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        f = point_field(env, box, (0, 0))
        worst = min(worst, successor_margin(env, f).min())
    assert worst > 1e-12


def test_subpath_property():
    box = Box.cube(4, 2)
    env = WeightEnvironment(2, uniform(0, 1), 5)
    f = solve(env, box, HyperplaneTarget((1, 0), 2))
    path = geodesic(f, (-4, -3))
    for k in range(1, len(path)):
        assert geodesic(f, path[k]) == path[k:]


def test_upward_modification_never_decreases_T():
    box = Box.cube(4, 2)
    for seed in range(10):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        f = point_field(env, box, (0, 0))
        edges = [((0, 0), (1, 0)), ((1, 1), (1, 2)), ((-2, 0), (-2, 1))]
        env2 = with_overrides(env, edges, 0.9)
        f2 = point_field(env2, box, (0, 0))
        assert np.all(f2.T >= f.T - 1e-12)


def test_invariant_T_equals_weight_plus_successor_T():
    box = Box.cube(3, 2)
    env = WeightEnvironment(2, uniform(0, 1), 8)
    f = point_field(env, box, (0, 0))
    for i in range(box.n_vertices):
        s = f.succ[i]
        if s < 0:
            continue
        u, v = box.vertex_at(i), box.vertex_at(int(s))
        assert f.T[i] == env.weight_of((u, v)) + f.T[s]


def test_zero_weights_rejected():
    env = override_edges(WeightEnvironment(2, uniform(0, 1), 0), [((0, 0), (1, 0))], 0.0)
    with pytest.raises(ValueError, match="weights must be > 0"):
        solve(env, Box.cube(2, 2), HyperplaneTarget((1, 0), 0))
    # a NaN weight, written into the table by hand, would leave a successor cycle
    env = WeightEnvironment(2, uniform(0, 1), 0, (edge_ids([[0, 0]], [0]), np.array([np.nan])))
    with pytest.raises(ValueError, match="weights must be > 0"):
        solve(env, Box.cube(2, 2), HyperplaneTarget((1, 0), 0))


def test_infinite_weights_rejected():
    # every edge of (1, 1) at inf once gave T = inf and a successor along an inf edge
    box = Box.cube(2, 2)
    edges = [((1, 1), v) for v in ((2, 1), (0, 1), (1, 2), (1, 0))]
    env = WeightEnvironment(2, uniform(0, 1), 0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        override_edges(env, edges, np.inf)
    ids = np.sort(edge_ids([[1, 1], [0, 1], [1, 1], [1, 0]], [0, 0, 1, 1]))
    env = WeightEnvironment(2, uniform(0, 1), 0, (ids, np.full(4, np.inf)))
    assert env.weight_of(edges[0]) == np.inf
    with pytest.raises(ValueError, match="weights must be > 0 and finite"):
        solve(env, box, HyperplaneTarget((1, 0), 0))


@st.composite
def point_problems(draw):
    """An environment, a plain or periodic 2-d or 3-d box, a source and points in it."""
    dim = draw(st.integers(2, 3))
    periodic = draw(st.booleans())
    sides = st.integers(3 if periodic else 1, 8 if dim == 2 else 5)
    lower = tuple(draw(st.integers(-4, 0)) for _ in range(dim))
    box = Box(lower, tuple(l + draw(sides) - 1 for l in lower), periodic=periodic)
    env = weight_environment(draw(st.sampled_from(["uniform", "exponential", "unit"])),
                             dim, draw(st.integers(0, 2 ** 16)), box)
    vertex = st.integers(0, box.n_vertices - 1).map(box.vertex_at)
    source = draw(vertex)
    points = np.array(draw(st.lists(vertex, min_size=1, max_size=6)), dtype=np.int64)
    return env, box, source, points


def _point_problem(kind, seed, box, source, points):
    return (weight_environment(kind, box.dim, seed, box), box, source,
            np.array(points, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(point_problems())
# the hull shares two faces with the box, and the margins of the other two are capped
@example(_point_problem("uniform", 1, Box((0, 0), (7, 4)), (0, 0), [[3, 2]]))
@example(_point_problem("exponential", 2, Box((-1, 0, 0), (4, 3, 3)), (0, 1, 1), [[3, 3, 1], [4, 2, 0]]))
# a flat hull, and a torus, search the whole box: on 3 x 3 a wrap edge is a short cut
@example(_point_problem("uniform", 5, Box((-2, -2), (8, 3)), (0, 0), [[6, 0]]))
@example(_point_problem("uniform", 3, Box((0, 0), (2, 2), periodic=True), (0, 0), [[1, 1]]))
@example(_point_problem("exponential", 4, Box((-2, -2), (2, 2), periodic=True), (0, 0), [[2, 2], [-1, 1]]))
def test_passage_times_equal_the_full_solve(problem):
    env, box, source, points = problem
    full = point_field(env, box, source).T[box.indices_of(points)]
    assert np.array_equal(passage_times(env, box, source, points), full)
    # the bound: the hull's paths are paths of the box
    hull = Box.hull(np.vstack([source, points]))
    assert np.all(passage_times(env, hull, source, points) >= full)


@settings(max_examples=40, deadline=None)
@given(point_problems(), st.data())
def test_bounded_dijkstra_is_the_full_one_cut_at_its_limit(problem, data):
    env, box, source, _ = problem
    args = (_neighbor_table(env, box), box.index_of(source))
    T = _shortest_paths(*args)
    # a drawn time, and the farthest one: a cut just below it leaves that vertex at inf
    for limit in (data.draw(st.sampled_from(sorted(set(T.tolist())))), T.max()):
        for cut in (limit, np.nextafter(limit, 0.0)):
            assert np.array_equal(_shortest_paths(*args, limit=cut),
                                  np.where(T <= cut, T, np.inf))


def _record_searches(monkeypatch):
    """Lists that fill with the box of every neighbor table that ``geodesics``
    builds and the times of every Dijkstra that it runs, in call order."""
    boxes, searches = [], []
    neighbor_table, dijkstra = geodesics._neighbor_table, geodesics.dijkstra

    def recording_table(env, box):
        boxes.append(box)
        return neighbor_table(env, box)

    def recording_dijkstra(*args, **kwargs):
        searches.append(dijkstra(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(geodesics, "_neighbor_table", recording_table)
    monkeypatch.setattr(geodesics, "dijkstra", recording_dijkstra)
    return boxes, searches


def _inner_faces(sub, box):
    """(end, axis) of each face of ``sub`` that is not a face of ``box``, for ``take``."""
    return [(end, axis) for axis in range(box.dim)
            for end, own, outer in ((0, sub.lower, box.lower), (-1, sub.upper, box.upper))
            if own[axis] != outer[axis]]


def test_shape_solve_leaves_the_far_box_unsettled(monkeypatch):
    boxes, searches = _record_searches(monkeypatch)
    env = WeightEnvironment(3, uniform(0, 1), 0)
    est = estimate_shape(env, 4, direction_grid(3, 8))
    monkeypatch.undo()
    origin = (0, 0, 0)
    hull = Box.hull(np.vstack([origin, est.eval_points]))
    padded = padded_solve_box(hull)
    assert boxes[0] == hull
    assert np.isfinite(searches[0]).all()       # the hull, unbounded
    sub, T = boxes[-1], searches[-1].reshape(boxes[-1].shape)
    assert padded.contains_box(sub) and not sub.periodic
    assert sub.n_vertices < padded.n_vertices
    # the certificate: no path of time <= L leaves the last sub-box
    inner = _inner_faces(sub, padded)
    assert inner and not any(np.isfinite(T.take(end, axis=axis)).any() for end, axis in inner)
    full = point_field(env, padded, origin).T[padded.indices_of(est.eval_points)]
    assert np.array_equal(est.T_samples[0], full)


def test_passage_times_grow_a_face_that_a_light_corridor_leaves_by(monkeypatch):
    # Unit weights, but a corridor of weight 1e-3 from the source up past the
    # first sub-box's upper face, across, down and into the point from outside
    # the hull: the point's box time (0.039) is far below its hull time (7).
    box, source, point = Box((-2, -2), (9, 16)), (0, 1), (6, 0)
    corridor = ([(0, y) for y in range(1, 17)] + [(x, 16) for x in range(1, 8)]
                + [(7, y) for y in range(15, -1, -1)] + [point])
    env = override_edges(unit_environment(2, box), list(zip(corridor, corridor[1:])), 1e-3)
    boxes, searches = _record_searches(monkeypatch)
    T = passage_times(env, box, source, [point])
    monkeypatch.undo()
    # margins 13 on the faces whose least hull time is 0 (the source's), 12 on the
    # -y face (least time 1) and 3 on the +x face (6): all but the +y face are capped
    first = Box((-2, -2), (9, 14))
    assert boxes == [Box((0, 0), (6, 1)), first, box]
    assert np.isfinite(searches[0]).all()
    assert np.isfinite(searches[1].reshape(first.shape)[:, -1]).any()    # the certificate fails
    assert np.array_equal(T, point_field(env, box, source).T[[box.index_of(point)]])
    assert np.isclose(T[0], 0.039)


def test_passage_times_certify_a_face_reached_above_the_points_times(monkeypatch):
    # Unit weights, and a corridor of weight 1e-3 around the hull, from the source
    # out by -x, up to y = 2 and back in to the point: the point's time in the
    # first sub-box (0.011) is far below its hull time L = 7.  The search settles
    # the sub-box's +x face at about 3, below L but above the point's time, so no
    # box path through that face is shorter: the sub-box is certified as it is,
    # where a certificate against L alone would grow the face and search again.
    box, source, point = Box.cube(20, 2), (0, 0), (6, 1)
    corridor = [(0, 0), (-1, 0), (-1, 1), (-1, 2)] + [(x, 2) for x in range(7)] + [point]
    env = override_edges(unit_environment(2, box), list(zip(corridor, corridor[1:])), 1e-3)
    boxes, searches = _record_searches(monkeypatch)
    T = passage_times(env, box, source, [point])
    monkeypatch.undo()
    # margins 13 on the faces through the source, 12 on +y (least hull time 1), 3 on +x (6)
    first = Box((-13, -13), (9, 13))
    assert boxes == [Box((0, 0), (6, 1)), first]
    face = searches[1].reshape(first.shape)[-1, :]
    assert 3.0 < face.min() <= 7.0
    assert np.array_equal(T, point_field(env, box, source).T[[box.index_of(point)]])
    assert np.isclose(T[0], 0.011)


def _traced_peak(fn):
    """Bytes that ``fn()`` holds at its peak, above what was held before, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_solve_and_passage_times_peak_bytes_per_vertex():
    # The neighbor table is 72 B/vertex in 3-d (int32 indices, float64
    # weights, 6 slots); the peak may add T, succ and the Dijkstra's own
    # arrays, not a second table's worth of temporaries.  passage_times
    # hashes only its certified sub-box, so it holds less than one table of
    # the box.  Measured with numpy 2.4 and scipy 1.17: 94.6 (solve) and
    # 70.5 (passage_times) B/vertex; the bounds leave about 11% over them.
    # Hashing the whole box read 86.7 for passage_times; the old build, with
    # whole-axis weight arrays and a full T[nbr] temporary, read 153.3 and 107.6.
    env = WeightEnvironment(3, uniform(0, 1), 0)
    box = Box.cube(24, 3)       # n = 117,649: fixed overheads stay near 4 B/vertex
    n = box.n_vertices
    solve_peak = _traced_peak(lambda: solve(env, box, HyperplaneTarget((1, 0, 0), 0))) / n
    points = [[12, 0, 0], [0, -12, 5]]      # a hull inside the box: a sub-box search
    times_peak = _traced_peak(lambda: passage_times(env, box, (0, 0, 0), points)) / n
    assert solve_peak <= 105.0, solve_peak
    assert times_peak <= 78.0, times_peak


def test_components_and_intersection_radii_peak_bytes_per_vertex():
    # The level sweeps of components hold the edge times and end nodes, a
    # node array or two per level and scipy's graph of the fresh edges, and
    # the radii only add the window on top.  Measured with numpy 2.4 and
    # scipy 1.17: 65.0 (components) and 66.0 (intersection_radii) B/vertex;
    # the bounds leave about 10% over them, below the solve's 105.  The
    # union-find over Python lists read 93.5 and 94.5.
    box = Box.cube(24, 3)
    n = box.n_vertices
    g = solve(WeightEnvironment(3, uniform(0, 1), 0), box, HyperplaneTarget((1, 0, 0), 0))
    labels_peak = _traced_peak(lambda: components(g)) / n
    radii_peak = _traced_peak(lambda: intersection_radii(g, (1, 0, 0), [0, -3])) / n
    assert labels_peak <= 72.0, labels_peak
    assert radii_peak <= 73.0, radii_peak
