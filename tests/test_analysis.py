import itertools
import math
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppgeo.analysis import (_max_pairwise_l1, backward_tail, build_torus_graph,
                             crossing_counts, direction_grid, estimate_busemann_vector,
                             estimate_shape, intersection_radii, mass_transport_balance,
                             padded_solve_box, required_pad)
from fppgeo.environment import WeightEnvironment, uniform
from fppgeo.geodesic_graph import backward_stats, build_graph, components
from fppgeo.geodesics import (DistanceField, HyperplaneTarget, ParameterError, passage_times,
                              solve, target_mask)
from fppgeo.lattice import Box, is_integer_direction

from oracles import (max_pairwise_l1_scan, override_box, point_field, shape_over_seeds,
                     unit_environment, weight_environment)


def test_direction_grid_shapes():
    g2 = direction_grid(2, 16)
    g3 = direction_grid(3, 32)
    assert g2.shape == (16, 2) and g3.shape == (32, 3)
    assert np.allclose(np.linalg.norm(g2, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(g3, axis=1), 1.0)


def test_estimate_shape_unit_weights_exact():
    r = 12
    box = Box.cube(r + 16, 2)      # the padded solve box of the points' hull [-12, 12]^2
    env = unit_environment(2, box, seed=0)
    est = shape_over_seeds(env, r, direction_grid(2, 16), 2)
    l1 = np.abs(est.eval_points).sum(axis=1)
    assert np.array_equal(est.T_samples, np.tile(l1.astype(float), (2, 1)))
    assert np.array_equal(est.g_hat * r, l1.astype(float))


@st.composite
def shape_problems(draw):
    """An environment, a radius, directions, whether the solve box is padded
    unevenly, and that box: else it is the padded box of ``estimate_shape``."""
    dim = draw(st.integers(2, 3))
    r = draw(st.integers(1, 8 if dim == 2 else 2))
    directions = direction_grid(dim, draw(st.integers(1, 8)))
    points = np.floor(r * directions).astype(np.int64)
    window = Box.hull(np.vstack([np.zeros((1, dim), dtype=np.int64), points]))
    uneven = draw(st.booleans())
    if uneven:
        box = Box(tuple(l - 16 - draw(st.integers(0, 3)) for l in window.lower),
                  tuple(u + 16 + draw(st.integers(0, 3)) for u in window.upper))
    else:
        box = padded_solve_box(window)
    env = weight_environment(draw(st.sampled_from(["uniform", "exponential", "unit"])),
                             dim, draw(st.integers(0, 2 ** 16)), box)
    return env, r, directions, uneven, box


@settings(max_examples=20, deadline=None)
@given(shape_problems())
def test_estimate_shape_equals_full_solves(problem):
    env, r, directions, uneven, box = problem
    points = np.floor(r * directions).astype(np.int64)
    origin = (0,) * env.dim
    seeds = [replace(env, seed=env.seed + k) for k in range(2)]
    if uneven:
        # the bounded Dijkstra of estimate_shape, in a box it does not pick
        samples = [passage_times(e, box, origin, points) for e in seeds]
    else:
        est = shape_over_seeds(env, r, directions, 2)
        assert np.array_equal(est.eval_points, points)
        samples = est.T_samples
    idx = box.indices_of(points)
    for e, row in zip(seeds, samples):
        assert np.array_equal(row, point_field(e, box, origin).T[idx])


def test_estimate_shape_lattice_symmetry():
    env = WeightEnvironment(2, uniform(0, 1), 0)
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    r = 30
    a = shape_over_seeds(env, r, e1, 12)
    b = shape_over_seeds(env, r, e2, 12)
    pooled = np.sqrt(a.g_stderr[0] ** 2 + b.g_stderr[0] ** 2)
    assert abs(a.g_hat[0] - b.g_hat[0]) < 3 * pooled


def test_estimate_shape_mean_bound_small_scale():
    # deterministic-path upper bound: g(e1) <= E t_e
    env = WeightEnvironment(2, uniform(0, 1), 0)
    est = shape_over_seeds(env, 40, np.array([[1.0, 0.0]]), 10)
    assert est.g_hat[0] <= 0.5 + 3 * est.g_stderr[0]


def test_estimate_shape_box_too_small():
    """The padded-region raise: the hull of radius-40 points in a box of
    radius 42, which ``estimate_shape`` no longer accepts, still raises where
    a window is checked."""
    env = WeightEnvironment(2, uniform(0, 1), 0)
    g = build_graph(solve(env, Box.cube(42, 2), HyperplaneTarget((1, 0), 40)))
    with pytest.raises(ValueError, match="not inside the analysis region"):
        backward_tail(g, Box.cube(40, 2))


def test_shape_estimate_moments_and_rows():
    env = WeightEnvironment(2, uniform(0, 1), 4)
    est = shape_over_seeds(env, 10, direction_grid(2, 5), 3)
    T = est.T_samples
    assert T.shape == (3, 5)
    assert est.g_hat.tolist() == [T[:, i].mean() / 10 for i in range(5)]
    assert np.allclose(est.g_stderr, T.std(axis=0, ddof=1) / np.sqrt(3) / 10, rtol=1e-12)
    rows = est.rows([7, 8, 9])
    assert rows[:5] == [("T_over_r", 7, i, T[0, i] / 10) for i in range(5)]
    assert rows[15:] == [row for i in range(5) for row in (("g_hat", "", i, est.g_hat[i]),
                                                           ("g_stderr", "", i, est.g_stderr[i]))]
    one = estimate_shape(env, 10, direction_grid(2, 5))
    assert one.T_samples.tolist() == T[:1].tolist()
    assert one.g_stderr.tolist() == [0.0] * 5


def test_busemann_vector_unit_weights_exact():
    box = Box.cube(40, 2)
    env = unit_environment(2, box, seed=0)
    f = solve(env, box, HyperplaneTarget((1, 0), 20))
    est = estimate_busemann_vector(f, Box.cube(4, 2))
    assert np.allclose(est.rho_fit, [1.0, 0.0], atol=1e-12)
    assert est.residual_rms < 1e-12


def test_busemann_vector_mirrored_window_consistent():
    # B antisymmetry: fitting over the mirrored window yields the same vector
    box = Box.cube(40, 2)
    env = unit_environment(2, box, seed=0)
    f = solve(env, box, HyperplaneTarget((1, 0), 20))
    a = estimate_busemann_vector(f, Box((2, -4), (6, 4)))
    b = estimate_busemann_vector(f, Box((-6, -4), (-2, 4)))
    assert np.allclose(a.rho_fit, b.rho_fit, atol=1e-12)


def test_busemann_vector_degenerate_window():
    box = Box.cube(40, 2)
    env = WeightEnvironment(2, uniform(0, 1), 0)
    f = solve(env, box, HyperplaneTarget((1, 0), 20))
    with pytest.raises(ValueError):
        estimate_busemann_vector(f, Box((-3, 0), (3, 0)))  # collinear design


def test_busemann_vector_direction_within_3_sigma():
    # pilot over 30 seeds: mean rho_fit ~ (0.325, 0.007), e2 z-score 0.76
    fits = []
    box = Box.cube(60, 2)
    for seed in range(30):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        f = solve(env, box, HyperplaneTarget((1, 0), 30))
        fits.append(estimate_busemann_vector(f, Box.cube(10, 2)).rho_fit)
    fits = np.array(fits)
    stderr = fits[:, 1].std(ddof=1) / np.sqrt(len(fits))
    assert abs(fits[:, 1].mean()) < 3 * stderr
    assert fits[:, 0].mean() > 0.1  # nonzero, oriented with theta


def test_crossing_counts_unit_weights():
    box = Box.cube(30, 2)
    env = unit_environment(2, box, seed=0)
    g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 10)))
    samples = [(1, 0), (3, 2), (5, -4)]
    rep = crossing_counts(g, (1, 0), [0], samples)
    assert np.all(rep.counts == 0)
    assert np.all(rep.counts.max(axis=1) <= rep.path_lengths)


def test_crossing_counts_padded_precondition():
    box = Box.cube(30, 2)
    env = WeightEnvironment(2, uniform(0, 1), 0)
    g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 10)))
    with pytest.raises(ValueError):
        crossing_counts(g, (1, 0), [0], [(29, 29)])


def test_crossing_counts_stable_under_box_doubling():
    # pilot: fixed 25^2 sample window; pooled max 39 at box 121, 43 at box 241
    win = Box.cube(12, 2)
    rng = np.random.default_rng(0)
    coords = win.coords()
    pick = sorted(rng.choice(len(coords), size=40, replace=False))
    samples = [tuple(map(int, coords[i])) for i in pick]
    maxes = {}
    for half, alpha in ((60, 30), (120, 60)):
        vals = []
        for seed in range(10):
            env = WeightEnvironment(2, uniform(0, 1), seed)
            g = build_graph(solve(env, Box.cube(half, 2), HyperplaneTarget((1, 0), alpha)))
            vals.append(crossing_counts(g, (1, 0), [-10, 0, 10], samples).max_count)
        maxes[half] = max(vals)
    assert maxes[120] <= 1.5 * maxes[60]


def test_backward_tail_identities():
    box = Box.cube(40, 2)
    env = WeightEnvironment(2, uniform(0, 1), 3)
    g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 15)))
    rep = backward_tail(g, Box.cube(10, 2))
    assert rep.p_size_ge[0] == 1.0
    assert np.all(np.diff(rep.p_size_ge) <= 0)
    assert np.all(np.diff(rep.p_depth_ge) <= 0)
    # tail-sum identity, exact on the empirical law
    assert rep.p_depth_ge[1:].sum() == pytest.approx(rep.mean_depth, rel=1e-12)
    assert 0.0 <= rep.censored_fraction < 1.0


def test_backward_tail_matches_per_k_mean():
    box = Box.cube(40, 2)
    g = build_graph(solve(WeightEnvironment(2, uniform(0, 1), 3), box,
                          HyperplaneTarget((1, 1), 15)))
    window = Box.cube(14, 2)
    rep = backward_tail(g, window)
    assert rep.n_censored > 0
    sizes, depth, touch = backward_stats(g)
    idx = box.indices_of(window.coords())
    keep = ~touch[idx]
    p_size = np.array([(sizes[idx][keep] >= k).mean() for k in rep.k_size])
    p_depth = np.array([(depth[idx][keep] >= k).mean() for k in rep.k_depth])
    assert rep.p_size_ge.tobytes() == p_size.tobytes()
    assert rep.p_depth_ge.tobytes() == p_depth.tobytes()
    assert rep.p_depth_ge[-1] == 0.0


def test_backward_tail_window_precondition():
    box = Box.cube(40, 2)
    env = WeightEnvironment(2, uniform(0, 1), 3)
    g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 15)))
    backward_tail(g, box.shrink(required_pad(box)))
    for window in (Box.cube(39, 2), Box.cube(21, 2)):
        with pytest.raises(ValueError, match="not inside the analysis region"):
            backward_tail(g, window)


def test_windowed_analyses_raise_parameter_errors_by_name():
    """A box whose analysis region is empty names ``box`` for each windowed
    analysis; a window outside its region, of another dimension, or one
    that fits no Busemann vector, names ``window``; a window whose clusters
    are all censored names ``box``."""
    env = WeightEnvironment(2, uniform(0, 1), 0)
    small = solve(env, Box.cube(15, 2), HyperplaneTarget((1, 0), 4))      # side 31, pad 16
    f = solve(env, Box.cube(20, 2), HyperplaneTarget((1, 0), 10))         # region cube(4)
    edge = solve(env, Box.cube(16, 2), HyperplaneTarget((1, 0), -16))     # region: the origin
    cases = [
        ("box", lambda: backward_tail(small)),
        ("box", lambda: estimate_busemann_vector(small)),
        ("box", lambda: intersection_radii(small, (1, 0), [0])),
        ("box", lambda: crossing_counts(small, (1, 0), [0], [(0, 0)])),
        ("window", lambda: backward_tail(f, Box.cube(5, 2))),
        ("window", lambda: estimate_busemann_vector(f, Box((0, 0), (5, 1)))),
        ("window", lambda: intersection_radii(f, (1, 0), [0], window=Box.cube(21, 2))),
        ("window", lambda: estimate_busemann_vector(f, Box((-3, 0), (3, 0)))),
        ("window", lambda: backward_tail(f, Box.cube(1, 3))),                 # a 3-d window
        ("window", lambda: estimate_busemann_vector(f, Box.cube(1, 3))),
        ("window", lambda: intersection_radii(f, (1, 0), [0], window=Box.cube(1, 3))),
        ("box", lambda: backward_tail(edge)),
        ("sample_vertices", lambda: crossing_counts(f, (1, 0), [0], [(0, 0), (5, 0)])),
    ]
    for name, call in cases:
        with pytest.raises(ParameterError) as exc:
            call()
        assert exc.value.name == name, exc.value


def test_windowed_analyses_default_to_the_analysis_region():
    f = solve(WeightEnvironment(2, uniform(0, 1), 1), Box.cube(20, 2), HyperplaneTarget((1, 1), 6))
    region = Box.cube(4, 2)
    assert backward_tail(f).rows() == backward_tail(f, region).rows()
    assert intersection_radii(f, (1, 1), [0, 2]) == intersection_radii(f, (1, 1), [0, 2], region)
    assert estimate_busemann_vector(f).rows() == estimate_busemann_vector(f, region).rows()


def test_intersection_radii_trivial_and_bounded():
    box = Box.cube(40, 2)
    env = WeightEnvironment(2, uniform(0, 1), 5)
    g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 20)))
    win = Box.cube(10, 2)
    rep = intersection_radii(g, (1, 0), [-5, 0, 5], window=win)
    diam = 40  # l1 diameter of the 21^2 window
    for level, label, count, radius in rep.records:
        assert radius >= 0
        assert radius <= diam
        if count == 1:
            assert radius == 0


def test_intersection_radii_level_symmetry():
    # pilot over 40 seeds: mean R 5.23 (+3) vs 6.06 (-3), z = -1.5
    box = Box.cube(40, 2)
    win = Box.cube(10, 2)
    pos, neg = [], []
    for seed in range(40):
        env = WeightEnvironment(2, uniform(0, 1), seed)
        g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 20)))
        rep = intersection_radii(g, (1, 0), [-3, 3], window=win)
        pos.extend(r for level, _, _, r in rep.records if level == 3)
        neg.extend(r for level, _, _, r in rep.records if level == -3)
    pos, neg = np.array(pos, float), np.array(neg, float)
    se = np.sqrt(pos.var(ddof=1) / len(pos) + neg.var(ddof=1) / len(neg))
    assert abs(pos.mean() - neg.mean()) < 3 * se


@st.composite
def radii_cases(draw):
    """A forest toward an off-axis hyperplane on a small plain 2-d or 3-d box,
    a random window inside it, and several levels, some off the window."""
    dim = draw(st.integers(2, 3))
    lower = tuple(draw(st.integers(-3, 1)) for _ in range(dim))
    box = Box(lower, tuple(l + draw(st.integers(1, 8 if dim == 2 else 4)) for l in lower))
    theta = draw(st.sampled_from([(1, 1), (2, -1), (1, 2), (-1, 3)]))
    theta += tuple(draw(st.integers(-1, 1)) for _ in range(dim - 2))
    anchor = box.vertex_at(draw(st.integers(0, box.n_vertices - 1)))
    env = WeightEnvironment(dim, uniform(0.1, 1.0), draw(st.integers(0, 2 ** 32)))
    g = solve(env, box, HyperplaneTarget(theta, int(np.dot(anchor, theta)),
                                         draw(st.sampled_from(["exact_lattice",
                                                               "halfspace_frontier"]))))
    corners = [box.vertex_at(draw(st.integers(0, box.n_vertices - 1))) for _ in range(2)]
    window = Box(tuple(map(min, *corners)), tuple(map(max, *corners)))
    span = window.coords() @ np.asarray(theta)
    levels = draw(st.lists(st.integers(int(span.min()) - 1, int(span.max()) + 1),
                           min_size=1, max_size=4, unique=True))
    return g, theta, levels, window


@settings(max_examples=60, deadline=None)
@given(radii_cases())
def test_intersection_radii_match_pairwise_scan_of_weak_components(case):
    g, theta, levels, window = case
    rep = intersection_radii(g, theta, levels, window=window)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(g.n_vertices))
    graph.add_edges_from((i, int(s)) for i, s in enumerate(g.succ) if s >= 0)
    block_of = {i: k for k, block in enumerate(nx.weakly_connected_components(graph))
                for i in block}
    expect = {}
    for lvl in levels:
        groups = {}
        for v in map(tuple, window.coords().tolist()):
            if np.dot(v, theta) == lvl:
                groups.setdefault(block_of[g.box.index_of(v)], []).append(v)
        for vs in groups.values():
            expect[lvl, frozenset(vs)] = max_pairwise_l1_scan(vs)
    labels = components(g)
    got = {}
    for lvl, lab, count, radius in rep.records:
        vs = frozenset(v for v in map(tuple, window.coords().tolist())
                       if np.dot(v, theta) == lvl and labels[g.box.index_of(v)] == lab)
        assert count == len(vs)
        got[lvl, vs] = radius
    assert len(got) == len(rep.records)
    assert got == expect


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-20, 20)] * d), min_size=1, max_size=12)))
def test_max_pairwise_l1_matches_pair_scan(points):
    assert _max_pairwise_l1(np.array(points, dtype=np.int64)) == max_pairwise_l1_scan(points)


def _manual_torus(dims, succ_pairs, targets):
    n = int(np.prod(dims))
    succ = np.full(n, -1, dtype=np.int64)
    T = np.zeros(n)
    tmask = np.zeros(n, dtype=bool)

    def idx(v):
        return int(np.ravel_multi_index(v, dims))

    for u, v in succ_pairs:
        succ[idx(u)] = idx(v)
    for t in targets:
        tmask[idx(t)] = True
    box = Box((0, 0), tuple(L - 1 for L in dims), periodic=True)
    return DistanceField(box=box, target=HyperplaneTarget((1, 0), 0), T=T,
                         succ=succ, target_mask=tmask)


def test_mass_transport_every_component_singleton():
    g = _manual_torus((4, 4), [], [(0, 0)])
    rep = mass_transport_balance(g, (1, 0))
    assert rep.total_sent == rep.total_received == 16
    assert rep.difference == 0


def test_mass_transport_single_spanning_component():
    dims = (4, 4)
    order = [(i, j) for i in range(4) for j in (range(4) if i % 2 == 0 else range(3, -1, -1))]
    pairs = list(zip(order, order[1:]))
    g = _manual_torus(dims, pairs, [order[-1]])
    rep = mass_transport_balance(g, (1, 0))
    assert rep.n_components == 1
    assert rep.total_sent == rep.total_received == 16


def test_mass_transport_random_torus_exact():
    g = build_torus_graph(WeightEnvironment(2, uniform(0, 1), 0), (16, 16), (1, 0), 0)
    rep = mass_transport_balance(g, (1, 0))
    assert rep.difference == 0
    assert rep.total_sent == g.n_vertices
    assert rep.mean_sent == 1.0


def test_mass_transport_catches_a_sweep_that_drops_a_generation(monkeypatch):
    # received mass comes from the generations sweep, sent mass from fold_chains:
    # a sweep that misses the deepest generation leaves its vertices unreceived
    g = build_torus_graph(WeightEnvironment(2, uniform(0, 1), 0), (16, 16), (1, 0), 0)
    gens = g.generations()
    monkeypatch.setattr(g, "generations", lambda: gens[:-1])
    rep = mass_transport_balance(g, (1, 0))
    assert rep.total_sent == g.n_vertices
    assert rep.difference == len(gens[-1]) > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(*[st.tuples(
    st.integers(3, 7), st.integers(-3, 3), st.integers(-3, 3))] * d)))
def test_level_sort_ranks_a_torus_by_the_lexsort_rule(axes):
    # mass_transport_balance ranks by a stable sort of the levels: the box's C order
    # must already be lexicographic, as in the (level, x1, ..., xd) lexsort
    sides, lower, theta = zip(*axes)
    if not is_integer_direction(theta):
        theta = (1,) + (0,) * (len(axes) - 1)
    box = Box(lower, tuple(l + s - 1 for l, s in zip(lower, sides)), periodic=True)
    levels, coords = box.levels(theta), box.coords()
    rule = np.lexsort(tuple(coords[:, j] for j in reversed(range(box.dim))) + (levels,))
    assert np.array_equal(np.argsort(levels, kind="stable"), rule)


def test_mass_transport_rejects_non_torus():
    box = Box.cube(10, 2)
    env = WeightEnvironment(2, uniform(0, 1), 0)
    g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 5)))
    with pytest.raises(ValueError):
        mass_transport_balance(g, (1, 0))


def test_build_torus_graph_structure():
    env = WeightEnvironment(2, uniform(0, 1), 9)
    g = build_torus_graph(env, (8, 8), (1, 0), 0)
    assert g.n_vertices == 64
    assert np.all(g.succ[g.target_mask] == -1)
    assert np.all(g.succ[~g.target_mask] >= 0)
    assert np.all(g.T[g.target_mask] == 0.0)
    with pytest.raises(ValueError):
        build_torus_graph(env, (8, 8), (1, 0), 99)
    with pytest.raises(ValueError, match="2-d environment on a 3-d box"):
        build_torus_graph(env, (8, 8, 8), (1, 0, 0), 0)


@st.composite
def torus_targets(draw):
    """A small torus from the origin, a coprime direction theta, m = gcd_i(theta_i L_i)
    and a wrapped level in [0, m)."""
    dim = draw(st.integers(2, 3))
    dims = tuple(draw(st.integers(3, 7 if dim == 2 else 5)) for _ in range(dim))
    theta = draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(is_integer_direction))
    m = math.gcd(*(t * L for t, L in zip(theta, dims)))
    return dims, theta, m, draw(st.integers(0, m - 1))


@settings(max_examples=40, deadline=None)
@given(torus_targets())
def test_torus_target_is_a_closed_hyperplane(case):
    dims, theta, m, level = case
    box = Box((0,) * len(dims), tuple(L - 1 for L in dims), periodic=True)
    mask = target_mask(HyperplaneTarget(theta, level), box).reshape(dims)
    # z -> z . theta mod m maps the torus onto Z_m, so every level holds n / m vertices
    assert mask.sum() == box.n_vertices // m
    # a translation tau keeps the target exactly when tau . theta = 0 mod m
    for tau in itertools.product(*map(range, dims)):
        shifted = np.roll(mask, tau, axis=tuple(range(len(dims))))
        assert np.array_equal(shifted, mask) == (np.dot(tau, theta) % m == 0)
    for outside in (-1, m):
        assert not target_mask(HyperplaneTarget(theta, outside), box).any()


def test_torus_target_of_a_diagonal_direction_wraps():
    env = WeightEnvironment(2, uniform(0, 1), 0)
    # m = gcd(64, 64) = 64: one target vertex per row, not only the origin
    assert build_torus_graph(env, (64, 64), (1, 1), 0).target_mask.sum() == 64
    # m = gcd(128, 64) = 64: level 5 holds 64 vertices, not 3
    assert build_torus_graph(env, (64, 64), (2, 1), 5).target_mask.sum() == 64


def test_torus_successor_tie_breaks_like_solve():
    # unit weights: (4, y) is 4 steps from level 0 both via -e1 and via +e1 around the wrap
    env = override_box(WeightEnvironment(2, uniform(0, 1), 0), Box((0, 0), (8, 8)), 1.0)
    g = build_torus_graph(env, (8, 8), (1, 0), 0)
    coords = g.box.coords()
    for y in range(8):
        i = 4 * 8 + y
        assert g.T[i] == 4.0
        assert tuple(coords[g.succ[i]]) == (3, y)
