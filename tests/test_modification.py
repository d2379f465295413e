import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixtures_mod as fx
from fppgeo import geodesics, modification
from fppgeo.environment import WeightEnvironment, parse_dist, uniform, with_overrides
from fppgeo.geodesic_graph import build_graph, forward_orbit, forward_path, graph_summary
from fppgeo.geodesics import DistanceField, HyperplaneTarget, solve
from fppgeo.lattice import Box, is_integer_direction, lattice_point_on_level
from fppgeo.modification import (ParameterError, StripSpec, eligible_edges, protected_vertices,
                                 run_modification, verify_severing, violating_sources)

from oracles import (axis_edges, eligible_edges_scan, first_attainment, last_attainment,
                     neighbor_table, neighbors, per_edge_weights, protected_vertices_exact,
                     reverse_reachable, sort_by_order, strip_scan, unit_environment)


def _nothing_kept(box, spec):
    """An ``eligible_cases`` case with no successor and no kept vertex."""
    return box, spec, np.full(box.n_vertices, -1), np.zeros(box.n_vertices, dtype=bool)


def strip_edges(spec, box):
    """``eligible_edges`` with nothing kept: the edges of ``box`` with both ends in
    the strip, as sorted (u, v) pairs, and ``oracles.eligible_edges_scan``'s pairs."""
    _, _, succ, kept = _nothing_kept(box, spec)
    g = DistanceField(box=box, target=None, T=np.zeros(box.n_vertices), succ=succ,
                      target_mask=~kept)
    edges = sorted(tuple(map(tuple, e)) for e in eligible_edges(g, spec, kept).tolist())
    return edges, eligible_edges_scan(box, spec, succ, kept)


def path_vertices(g, x):
    return [g.box.vertex_at(int(i)) for i in forward_path(g, x)]


def protected_list(box, spec, xi):
    """``protected_vertices`` as vertex tuples, in the order of its indices."""
    return tuple(map(tuple, box.coords()[protected_vertices(box, spec, xi)].tolist()))


def succ_map(g):
    vertex = g.box.vertex_at
    return {vertex(i): (vertex(int(s)) if s >= 0 else None) for i, s in enumerate(g.succ)}


def test_strip_spec_validation():
    with pytest.raises(ValueError):
        StripSpec((2, 4), 10, 5.0, 3, 0.1, 0.1)   # non-coprime direction
    with pytest.raises(ValueError):
        StripSpec((1, 0), 0, 5.0, 3, 0.1, 0.1)
    # the margins are checked where the experiment runs
    with pytest.raises(ValueError):
        run_modification(WeightEnvironment(2, uniform(0, 1), 0),
                         StripSpec((1, 0), 10, -5.0, 3, 0.1, 0.1), (0, 1), (10, 0))


def test_strip_contains_origin_and_excludes_far_points():
    spec = StripSpec((1, 0), 10, 3.0, 2, 0.1, 0.1)
    edges, expect = strip_edges(spec, Box.cube(12, 2))
    assert edges == expect
    ends = {v for e in edges for v in e}
    assert ((0, 0), (1, 0)) in edges and ((0, 0), (0, 1)) in edges
    for k in range(0, 11):
        assert (k, 3) in ends           # distance M off the axis: inside
        assert (k, 4) not in ends       # distance M+1 off the axis
    assert (-1, 0) not in ends
    assert (11, 0) not in ends


def test_strip_matches_bruteforce_scan():
    # the float-M boundary cases are examples of test_eligible_edges_match_per_edge_scan
    for theta, N, M, box in [
            ((1, 0), 8, 2.5, Box.cube(10, 2)), ((1, 2), 6, 3.0, Box.cube(10, 2)),
            ((2, -1), 7, 2.0, Box.cube(10, 2)), ((1, 1, -1), 4, 1.5, Box.cube(4, 3))]:
        edges, expect = strip_edges(StripSpec(theta, N, M, 2, 0.1, 0.1), box)
        assert edges and edges == expect


def test_protected_vertices_geometry():
    xi = (fx.N, 0)
    prot = set(protected_list(fx.BOX, fx.SPEC, xi))
    # far side of the level-0 hyperplane
    assert (0, 5) in prot
    assert (0, -5) in prot
    # near the origin on level 0: not protected
    assert (0, 0) not in prot
    # crossing the level-N hyperplane far from xi
    assert (fx.N, 5) in prot
    # cylinder boundary inside the slab
    assert (10, 13) in prot
    assert (10, 0) not in prot
    # the cache shares one read-only array between callers
    idx = protected_vertices(fx.BOX, fx.SPEC, xi)
    assert idx.dtype == np.int64
    with pytest.raises(ValueError):
        idx[0] = 0
    assert protected_vertices(fx.BOX, fx.SPEC, xi) is idx


@st.composite
def protected_cases(draw):
    """Small boxes and strips: coprime theta with zero and negative entries,
    non-dyadic M, and xi_N inside or outside the box."""
    dim = draw(st.integers(2, 4))
    theta = draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(is_integer_direction))
    N = draw(st.integers(1, 12))
    M = draw(st.sampled_from([0.1 * N, 1 / 3, 0.5, 2.0, 0.25 * N + 1]))
    spec = StripSpec(theta, N, M, draw(st.integers(1, 5)), 0.1, 0.1)
    side = {2: 9, 3: 4, 4: 2}[dim]
    lower = tuple(draw(st.integers(-6, 3)) for _ in range(dim))
    box = Box(lower, tuple(l + draw(st.integers(0, side)) for l in lower))
    if draw(st.booleans()):
        xi = box.vertex_at(draw(st.integers(0, box.n_vertices - 1)))
    else:
        xi = tuple(draw(st.integers(-20, 20)) for _ in range(dim))
    return box, spec, xi


@settings(max_examples=60, deadline=None)
@given(protected_cases())
# the slab part of an edge is its head alone, or it starts at the head
@example((Box((-2, -2), (-2, -2)), StripSpec((2, -1), 1, 0.1, 5, 0.1, 0.1), (-3, 5)))
@example((Box((-1, 0), (-1, 5)), StripSpec((2, 1), 2, 0.2, 3, 0.1, 0.1), (-1, 4)))
# an edge lying in level N whose head is outside the box
@example((Box((1, 0), (3, 1)), StripSpec((1, 0), 2, 2.0, 4, 0.1, 0.1), (3, -2)))
# level 0 met at l1 distance exactly M'
@example((Box((0, -1), (0, 0)), StripSpec((-1, -1), 3, 1.75, 2, 0.1, 0.1), (0, 3)))
# level N crossed at t = 1/2, far from xi_N
@example((Box((0, -3), (2, -3)), StripSpec((1, -2), 6, 2.0, 5, 0.1, 0.1), (-4, -3)))
# theta_1 = 0: edges along axis 1 lie in a level, here level 0, at l1 distance M' and more
@example((Box((-1, 2, -1), (1, 3, 0)), StripSpec((1, 0, -1), 2, 1.5, 3, 0.1, 0.1), (2, 0, 0)))
def test_protected_vertices_match_exact_rational_oracle(case):
    box, spec, xi = case
    assert protected_list(box, spec, xi) == protected_vertices_exact(box, spec, xi)


def test_protected_vertices_far_from_origin_and_overflow_guard():
    # corners near 1e9 still fit int64 for theta = e1, and level N crosses the box
    box = Box((10 ** 9, -2), (10 ** 9 + 2, 2))
    N = 10 ** 9 + 1
    spec = StripSpec((1, 0), N, 1.5, 2, 0.1, 0.1)
    prot = protected_list(box, spec, (N, 0))
    assert prot and prot == protected_vertices_exact(box, spec, (N, 0))
    # for theta = (1, 1) at corners near 1.6e9, |p|^2 |theta|^2 reaches
    # 4 * 1.6e9^2 > 2^63: an error, not a wrapped value
    far = Box((16 * 10 ** 8, -16 * 10 ** 8 - 2), (16 * 10 ** 8 + 2, -16 * 10 ** 8))
    with pytest.raises(ValueError, match="int64"):
        protected_vertices(far, StripSpec((1, 1), 2, 1.5, 2, 0.1, 0.1), far.upper)


def test_eligible_edges_exclude_kept_paths_and_match_bruteforce():
    out = fx.run_fixture(fx.fixture_env(0))
    g = out.g
    prot = protected_list(fx.BOX, fx.SPEC, fx.XI)
    pairs = [tuple(map(tuple, e)) for e in out.edge_set.tolist()]
    edge_set = set(pairs)

    # y's highway edges inside the strip are kept out of the raise set
    for k in range(0, fx.N):
        assert ((k, 1), (k + 1, 1)) not in edge_set

    # brute-force filter: strip edges minus edges on kept forward paths
    verts = strip_scan(fx.SPEC.theta, fx.SPEC.N, fx.SPEC.M, fx.BOX.coords())
    kept_path_edges = set()
    for z in list(prot) + [fx.Y]:
        p = path_vertices(g, z)
        kept_path_edges.update(tuple(sorted((u, v))) for u, v in zip(p, p[1:]))
    brute = []
    strip_set = set(verts)
    for u in verts:
        for axis in range(2):
            v = list(u)
            v[axis] += 1
            v = tuple(v)
            if v in strip_set and tuple(sorted((u, v))) not in kept_path_edges:
                brute.append((u, v))
    assert sorted(pairs) == sorted(brute)


@st.composite
def eligible_cases(draw):
    """A plain 2-d or 3-d box, an off-axis strip, a random successor along a
    lattice edge (or none) at each vertex, with one edge followed both ways,
    and a random kept mask."""
    dim = draw(st.integers(2, 3))
    lower = tuple(draw(st.integers(-3, 1)) for _ in range(dim))
    box = Box(lower, tuple(l + draw(st.integers(1, 7 if dim == 2 else 4)) - 1 for l in lower))
    theta = draw(st.sampled_from([(1, 1), (2, -1), (1, 2)]))
    theta += tuple(draw(st.integers(-1, 1)) for _ in range(dim - 2))
    spec = StripSpec(theta, draw(st.integers(1, 6)), draw(st.sampled_from([0.5, 1.0, 1.5, 2.5])),
                     3, 0.1, 0.1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    succ = np.full(box.n_vertices, -1, dtype=np.int64)
    for i in range(box.n_vertices):
        v = neighbors(box.vertex_at(i))[rng.integers(2 * dim)]
        if box.contains(v) and rng.random() < 0.8:
            succ[i] = box.index_of(v)
    i = draw(st.integers(0, box.n_vertices - 1))
    ups = [v for v in neighbors(box.vertex_at(i))[::2] if box.contains(v)]
    if ups:                                         # out-edges both ways along one edge
        j = box.index_of(ups[draw(st.integers(0, len(ups) - 1))])
        succ[i], succ[j] = j, i
    kept = rng.random(box.n_vertices) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    return box, spec, succ, kept


@settings(max_examples=60, deadline=None)
@given(eligible_cases())
# float M just below the root of an integer: in floating point M^2 |theta|^2 rounds
# up to the squared distance of (0, 1), resp. (0, -5, -4), which the exact square
# misses, so the edge to (0, 0), resp. (0, -5, -3), is not a strip edge
@example(_nothing_kept(Box.cube(3, 2), StripSpec((3, 1), 2, 0.9486832980505138, 3, 0.1, 0.1)))
@example(_nothing_kept(Box.cube(6, 3), StripSpec((1, 0, 0), 6, 6.4031242374328485, 3, 0.1, 0.1)))
def test_eligible_edges_match_per_edge_scan(case):
    box, spec, succ, kept = case
    g = DistanceField(box=box, target=None, T=np.zeros(box.n_vertices), succ=succ,
                      target_mask=succ < 0)
    edges = eligible_edges(g, spec, kept)
    assert edges.dtype == np.int64 and edges.shape[1:] == (2, box.dim)
    assert sorted(tuple(map(tuple, e)) for e in edges.tolist()) == eligible_edges_scan(
        box, spec, succ, kept)
    # axis by axis, each axis in the C order of its grid of tails
    axes = np.argmax(edges[:, 1] - edges[:, 0], axis=1).tolist()
    keys = [(a, *t) for a, (t, _) in zip(axes, edges.tolist())]
    assert keys == sorted(set(keys))


def test_run_modification_builds_no_coordinate_table(monkeypatch):
    def refuse(self):
        raise AssertionError("Box.coords called")

    monkeypatch.setattr(Box, "coords", refuse)
    protected_vertices.cache_clear()            # the run computes its protected set anew
    out = fx.run_fixture(fx.fixture_env(0))
    assert len(out.edge_set) > 0
    spec = StripSpec((2, -1, 1), 6, 2.0, 4, 0.1, 0.1)     # off-axis, in 3-d
    out = run_modification(WeightEnvironment(3, uniform(0, 1), 0), spec, (0, 1, 1), (3, 0, 0))
    assert len(out.edge_set) > 0


def test_strip_without_edges_raises_nothing():
    # at M = 0.5 the strip of theta = (1, 1) is the diagonal points alone: no edge joins two
    spec = StripSpec((1, 1), 4, 0.5, 3, 0.1, 0.1)
    out = run_modification(WeightEnvironment(2, uniform(0, 1), 0), spec, (0, 0), (2, 2))
    assert out.edge_set.shape == (0, 2, 2)


@pytest.mark.parametrize("env, spec, y, xi", [
    # here the path of y keeps 8 strip edges that the protected orbit does not
    (WeightEnvironment(2, uniform(0, 1), 1), StripSpec((1, 0), 24, 6.0, 3, 0.1, 0.1), (0, -1),
     (24, 0)),
    # the strip of theta = (1, 1) at M = 0.5 holds no edge (``modify --theta 1,1 --M-rule
    # const:0.5``): the rows of no edge
    (WeightEnvironment(2, uniform(0, 1), 0), StripSpec((1, 1), 4, 0.5, 3, 0.1, 0.1), (0, 0),
     (2, 2))], ids=["N24", "no-strip-edge"])
def test_edge_set_is_read_off_the_run(env, spec, y, xi):
    # edge_set is computed when read, from the masks the run raised: the eligible edges
    # of the same run, those off the protected orbit and the path of y
    out = run_modification(env, spec, y, xi)
    g = out.g
    kept = forward_orbit(g, protected_vertices(g.box, spec, xi))
    kept[forward_path(g, y)] = True
    expect = eligible_edges(g, spec, kept)
    assert out.edge_set.dtype == np.int64 and out.edge_set.shape == expect.shape
    assert np.array_equal(out.edge_set, expect)
    assert out.edge_set.shape == (0, 2, 2) if spec.M < 1 else len(expect) > 0


def test_forward_path_from_a_cycle_raises():
    # a walk that starts on a 2-cycle, not only one that runs into it
    box = Box.cube(1, 2)
    succ = np.full(box.n_vertices, -1)
    succ[[0, 1]] = [1, 0]
    g = DistanceField(box=box, target=None, T=np.zeros(box.n_vertices), succ=succ,
                      target_mask=succ < 0)
    for start in (box.vertex_at(0), box.vertex_at(1)):
        with pytest.raises(ValueError, match="successor cycle"):
            forward_path(g, start)
    assert forward_path(g, box.vertex_at(2)).tolist() == [2]


def test_fixture_geometry_is_the_derived_one():
    # fixture_env places its corridor, highways and walls for this box and level
    g = fx.run_fixture(fx.fixture_env(0)).g
    assert g.box == fx.BOX
    assert g.target.level == fx.ALPHA


def test_event_passes_on_engineered_fixture():
    for seed in range(5):
        rep = fx.run_fixture(fx.fixture_env(seed)).event
        assert rep.exit_and_stay
        assert rep.approach_but_disjoint
        assert rep.speed_bound
        assert rep.protected_disjoint
        assert rep.passed


def test_event_speed_bound_fails_on_unit_weights():
    # unit weights saturate the support supremum, so the margin condition fails
    rep = fx.run_fixture(unit_environment(2, fx.BOX, seed=0)).event
    assert not rep.speed_bound
    assert "speed_violation" in rep.witnesses


def test_event_detects_path_intersection():
    rep = fx.run_fixture(fx.fixture_env(0, bridge=True)).event
    assert not rep.approach_but_disjoint
    assert rep.witnesses["y_meets_xi_path"] == (30, 0)


_UNIFORM = WeightEnvironment(2, uniform(0, 1), 0)


def _spec(M=12.0, M_prime=3, epsilon=0.1, delta=0.1):
    return StripSpec((1, 0), fx.N, M, M_prime, epsilon, delta)


@pytest.mark.parametrize("name, env, spec, y, xi, kwargs", [
    ("M", _UNIFORM, _spec(M=0.0), fx.Y, fx.XI, {}),
    ("M", _UNIFORM, _spec(M=math.inf), fx.Y, fx.XI, {}),
    ("M", _UNIFORM, _spec(M=math.nan), fx.Y, fx.XI, {}),
    ("M_prime", _UNIFORM, _spec(M_prime=0), (0, 0), fx.XI, {}),
    ("epsilon", _UNIFORM, _spec(epsilon=0.0), fx.Y, fx.XI, {}),
    ("delta", _UNIFORM, _spec(delta=-0.1), fx.Y, fx.XI, {}),
    ("y", _UNIFORM, fx.SPEC, (1, 1), fx.XI, {}),                  # off level 0
    ("xi", _UNIFORM, fx.SPEC, fx.Y, (fx.N - 1, 0), {}),           # off level N
    ("y", _UNIFORM, fx.SPEC, (0, 9), fx.XI, {}),                  # |y|_1 > M'
    ("lam", _UNIFORM, fx.SPEC, fx.Y, fx.XI, {"mode": "unbounded"}),
    ("lam", _UNIFORM, fx.SPEC, fx.Y, fx.XI, {"mode": "unbounded", "lam": -1.0}),
    ("lam", _UNIFORM, fx.SPEC, fx.Y, fx.XI, {"mode": "unbounded", "lam": math.inf}),
    ("mode", _UNIFORM, fx.SPEC, fx.Y, fx.XI, {"mode": "sideways"}),
    ("distribution", WeightEnvironment(2, parse_dist("exponential:1"), 0), fx.SPEC, fx.Y,
     fx.XI, {}),
    ("delta", _UNIFORM, _spec(delta=0.3), fx.Y, fx.XI, {}),      # mean 0.5 > S - 2 delta
], ids=["M", "M-inf", "M-nan", "M_prime", "epsilon", "delta", "y-level", "xi-level", "y-l1",
        "lam-missing", "lam-negative", "lam-inf", "mode", "distribution", "delta-bounded"])
def test_parameter_errors_raise_before_any_solve(monkeypatch, name, env, spec, y, xi, kwargs):
    calls = []
    # the hash of the run, and the solve behind its ``distance_field`` calls
    for module, attr in ((modification, "_neighbor_table"), (geodesics, "successor_forest")):
        def counting(*args, fn=getattr(module, attr)):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(module, attr, counting)
    with pytest.raises(ParameterError) as exc:
        run_modification(env, spec, y, xi, **kwargs)
    assert exc.value.name == name
    assert str(exc.value).startswith(f"{name}: ")
    assert calls == []


def test_run_modification_hashes_the_box_once(monkeypatch):
    hashed = []
    edge_weights = WeightEnvironment.edge_weights

    def counting(self, *args):
        w = edge_weights(self, *args)
        hashed.append(len(w))
        return w

    monkeypatch.setattr(WeightEnvironment, "edge_weights", counting)
    out = fx.run_fixture(fx.fixture_env(0))
    assert len(out.edge_set) > 0
    # one open-grid hash of every vertex's edge along every axis (one slab; the
    # last layer of each axis is discarded): no second solve's hash and no
    # per-row hash of the raised edges
    assert hashed == [fx.BOX.n_vertices * fx.BOX.dim]


_DIRECTIONS_2D = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 30), st.sampled_from(_DIRECTIONS_2D),
       st.sampled_from([0.5, 1.0, 2.5, None]),
       st.sampled_from([("bounded", None), ("unbounded", 0.0), ("unbounded", 0.3)]))
@example(5, 96, (1, 1), None, ("bounded", None))        # the raise at a benchmark size
def test_raise_equals_a_solve_under_the_override_table_2d(seed, N, theta, M, mode):
    # in 2-d edge ids do not repeat, so the override table raises exactly the
    # eligible edges, and the solve under it is the raise's oracle bit for bit
    env = WeightEnvironment(2, uniform(0, 1), seed)
    M = 0.25 * N + 1 if M is None else M
    y = (-theta[1], theta[0])
    spec = StripSpec(theta, N, M, sum(map(abs, y)) + 2, 0.1, 0.1)
    out = run_modification(env, spec, y, lattice_point_on_level(theta, N), mode=mode[0],
                           lam=mode[1])
    expect = solve(with_overrides(env, out.edge_set, out.lam), out.g.box, out.g.target)
    assert out.g_mod.T.tobytes() == expect.T.tobytes()
    assert out.g_mod.succ.tobytes() == expect.succ.tobytes()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(2, 10), st.sampled_from([(1, 0, 0), (1, 1, 0),
                                                                     (0, 1, -1), (1, 1, 1)]),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_raise_touches_only_the_eligible_edges_3d(seed, N, theta, M):
    # in d >= 3 edge ids repeat, so no override table is an oracle here; the
    # raised weights are built edge by edge, and the raised field must solve
    # the Bellman equations under them exactly
    env = WeightEnvironment(3, uniform(0, 1), seed)
    y = (-theta[1], theta[0], 0)
    spec = StripSpec(theta, N, M, sum(map(abs, y)) + 2, 0.1, 0.1)
    out = run_modification(env, spec, y, lattice_point_on_level(theta, N))
    g = out.g_mod
    box = g.box
    edges = axis_edges(box)
    weights = per_edge_weights(env, box)
    rows = out.edge_set
    axes = np.argmax(rows[:, 1] - rows[:, 0], axis=1)
    for axis, ((tails, _), w) in enumerate(zip(edges, weights)):
        at = np.searchsorted(tails, box.indices_of(rows[axes == axis, 0]))
        w[at] = np.maximum(w[at], out.lam)
    nbr, wt = neighbor_table(edges, weights, box.n_vertices)
    x = np.flatnonzero(~g.target_mask)
    cost = wt[x] + g.T[nbr[x]]
    assert (g.T[g.target_mask] == 0).all()
    slot = cost.argmin(axis=1)          # the first least slot is the successor's
    assert (nbr[x, slot] == g.succ[x]).all()
    assert (g.T[x] == cost[np.arange(len(x)), slot]).all()      # T(x) = w'(x, succ x) + T(succ x)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16), st.sampled_from([(1, 0), (2, -1), (1, 0, 0), (1, 1, 0)]),
       st.integers(2, 12))
def test_raise_changes_exactly_the_two_slots_of_each_eligible_edge(seed, theta, N):
    tables = []

    def recording(box, table, tmask):
        tables.append((table, [a.copy() for a in table]))
        return successor_forest(box, table, tmask)

    successor_forest = geodesics.successor_forest
    dim = len(theta)
    y = (-theta[1], theta[0]) + (0,) * (dim - 2)
    spec = StripSpec(theta, N, 0.25 * N + 1, sum(map(abs, y)) + 2, 0.1, 0.1)
    with mock.patch.object(geodesics, "successor_forest", recording):
        out = run_modification(WeightEnvironment(dim, uniform(0, 1), seed), spec, y,
                               lattice_point_on_level(theta, N))
    (table, (nbr, wt)), (again, (nbr_mod, wt_mod)) = tables
    assert again is table                   # one table, raised in place
    assert nbr_mod.tobytes() == nbr.tobytes()
    box, rows = out.g.box, out.edge_set
    tails, heads = box.indices_of(rows[:, 0]), box.indices_of(rows[:, 1])
    axes = np.argmax(rows[:, 1] - rows[:, 0], axis=1)
    expect = wt.copy()
    for at, slot in ((tails, 2 * dim - 1 - axes), (heads, axes)):
        expect[at, slot] = np.maximum(wt[at, slot], out.lam)
    assert wt_mod.tobytes() == expect.tobytes()


def test_run_modification_lambda_and_weights():
    env = fx.fixture_env(1)
    out = run_modification(env, fx.SPEC, fx.Y, fx.XI, mode="bounded")
    assert out.lam == pytest.approx(0.95)
    env_mod = with_overrides(env, out.edge_set, out.lam)
    for e in out.edge_set[::17]:
        assert env_mod.weight_of(e) >= 0.95


def test_run_modification_low_lambda_identity():
    env = fx.fixture_env(2)
    out = run_modification(env, fx.SPEC, fx.Y, fx.XI, mode="unbounded", lam=0.0)
    assert graph_summary(out.g) == graph_summary(out.g_mod)


def test_run_modification_default_box_contains_y_and_xi():
    env = WeightEnvironment(2, uniform(0, 1), 0)
    # theta = e1: y and xi_N already lie in the slab box, which stays as it was
    out = run_modification(env, StripSpec((1, 0), 48, 12.0, 3, 0.1, 0.1), (0, -1), (48, 0))
    assert out.g.box == Box((-16, -16), (72, 16))
    # theta = (1, 1): y = (-20, 20) and xi_N = (0, 48) sit outside the slab box,
    # which grows just enough to hold them
    out = run_modification(env, StripSpec((1, 1), 48, 12.0, 40, 0.1, 0.1), (-20, 20), (0, 48))
    assert out.g.box == Box((-20, -16), (72, 48))
    assert out.g_mod.box == out.g.box


def test_severing_on_fixture_true_with_margin():
    for seed in range(5):
        env = fx.fixture_env(seed)
        out = run_modification(env, fx.SPEC, fx.Y, fx.XI, mode="bounded")
        assert out.event.passed
        assert out.severed
        assert out.verdict.bound_value == pytest.approx(0.925 * fx.N)


def test_severing_false_on_bridge_fixture_with_witness():
    env = fx.fixture_env(0, bridge=True)
    out = run_modification(env, fx.SPEC, fx.Y, fx.XI, mode="bounded")
    assert not out.event.passed
    assert not out.severed
    assert out.verdict.witness is not None
    wz = out.verdict.witness
    assert sum(c * t for c, t in zip(wz, fx.SPEC.theta)) <= 0
    v1, v2 = out.verdict.crossing
    assert out.verdict.crossing_time is not None
    # the leak rides the cheap corridor, far below the severing bound
    assert out.verdict.crossing_time < out.verdict.bound_value


def test_progenitor_of_severed_component_above_zero():
    # when severing holds, every vertex reaching the xi path sits at level > 0
    env = fx.fixture_env(3)
    out = run_modification(env, fx.SPEC, fx.Y, fx.XI, mode="bounded")
    assert out.severed
    env_mod = with_overrides(env, out.edge_set, out.lam)
    field_mod = solve(env_mod, fx.BOX, HyperplaneTarget((1, 0), fx.ALPHA))
    g_mod = build_graph(field_mod)
    members = reverse_reachable(succ_map(g_mod), path_vertices(g_mod, fx.XI))
    prog = sort_by_order(members, fx.SPEC.theta)[0]
    assert sum(c * t for c, t in zip(prog, fx.SPEC.theta)) > 0


@pytest.mark.parametrize("seed", range(3))
def test_violating_sources_ignore_a_cycle_off_the_xi_path(seed):
    # a forward path meets the path of xi_N exactly when it ends at the root of
    # xi_N, so a cycle between two vertices of other trees changes nothing; a
    # fold over every chain of the box (``DistanceField.hops``) raises on it
    g = fx.run_fixture(fx.fixture_env(seed, bridge=True)).g_mod
    closure = reverse_reachable(succ_map(g), path_vertices(g, fx.XI))
    u = next(v for v in map(g.box.vertex_at, range(g.n_vertices))
             if {v, (v[0], v[1] + 1)}.isdisjoint(closure) and g.box.contains((v[0], v[1] + 1)))
    i, j = g.box.index_of(u), g.box.index_of((u[0], u[1] + 1))
    succ = g.succ.copy()
    succ[i], succ[j] = j, i
    field = DistanceField(g.box, g.target, g.T, succ, g.target_mask)
    with pytest.raises(ValueError, match="successor cycle"):
        field.hops()
    assert reverse_reachable(succ_map(field), path_vertices(field, fx.XI)) == closure
    expect = sorted(z for z in closure if z[0] <= 0)       # theta = e1
    assert expect                                           # the bridge leaks
    got = violating_sources(field, fx.SPEC, fx.XI)
    assert [field.box.vertex_at(int(k)) for k in got] == expect


def test_monotone_severing_with_pinned_reference():
    # raising lambda only shrinks the violating set when the reference path
    # is held fixed; verified 0/50 violations in the pilot
    for seed in range(12):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        out = fx.run_fixture(env)
        edges = out.edge_set
        ref = path_vertices(out.g, fx.XI)

        def vset(lam):
            env2 = with_overrides(env, edges, lam)
            g2 = build_graph(solve(env2, fx.BOX, HyperplaneTarget((1, 0), fx.ALPHA)))
            closure = reverse_reachable(succ_map(g2), ref)
            return {z for z in closure if sum(c * t for c, t in zip(z, fx.SPEC.theta)) <= 0}

        assert vset(0.95) <= vset(0.6)


def test_xi_segment_passage_time_bound():
    # every path segment inside the raised set costs at least lambda per edge
    env = fx.fixture_env(4)
    out = run_modification(env, fx.SPEC, fx.Y, fx.XI, mode="bounded")
    env_mod = with_overrides(env, out.edge_set, out.lam)
    edge_set = {tuple(map(tuple, e)) for e in out.edge_set.tolist()}
    field_mod = solve(env_mod, fx.BOX, HyperplaneTarget((1, 0), fx.ALPHA))
    g_mod = build_graph(field_mod)
    for start in [(5, 5), (10, -7), (20, 3)]:
        p = path_vertices(g_mod, start)
        run = 0
        t = 0.0
        for u, v in zip(p, p[1:]):
            if tuple(sorted((u, v))) in edge_set:
                run += 1
                t += env_mod.weight_of((u, v))
            else:
                if run:
                    assert t >= out.lam * run - 1e-12
                run, t = 0, 0.0
        if run:
            assert t >= out.lam * run - 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 12), min_size=1, max_size=12), st.integers(1, 8))
# steps above 1 that cross level 0 and level N strictly inside a segment
@example([-3, 2, -1, 5, 9, 3], 4)
@example([0, -2, 3, 0, 7], 5)
def test_severing_crossing_matches_attainment_oracles(levels, N):
    # one chain through the vertices (k, levels[k]) under theta = e2, ending
    # at xi; every other vertex is a root, so the violators are the chain
    # vertices at level <= 0 and the witness is the first of them
    box = Box((0, min(levels)), (len(levels) - 1, max(levels)))
    chain = box.indices_of(list(enumerate(levels)))
    succ = np.full(box.n_vertices, -1)
    succ[chain[:-1]] = chain[1:]
    g = DistanceField(box=box, target=HyperplaneTarget((0, 1), N), T=np.zeros(box.n_vertices),
                      succ=succ, target_mask=succ < 0)
    xi = (len(levels) - 1, levels[-1])
    verdict = verify_severing(g, StripSpec((0, 1), N, 1.0, 1, 0.1, 0.1), xi, 1.0)
    low = [k for k, level in enumerate(levels) if level <= 0]
    assert verdict.severed == (not low)
    if not low:
        return
    start = low[0]
    dots = levels[start:]
    w1 = last_attainment(dots, 0)
    k1 = 0 if w1 is None else (w1[0] if w1[1] else w1[0] + 1)
    w2 = first_attainment(dots, N, k1)
    k2 = w2[0] if w2 is not None else len(dots) - 1
    assert verdict.witness == (start, levels[start])
    assert verdict.crossing == ((start + k1, dots[k1]), (start + k2, dots[k2]))
