import numpy as np
import pytest
from scipy import stats

from fppgeo.environment import WeightEnvironment, uniform
from fppgeo.geodesic_graph import (backward_stats, build_graph, components, encounter_points,
                                   forward_path, graph_summary, sample_averaged_graph,
                                   sample_level)
from fppgeo.geodesics import DistanceField, HyperplaneTarget, solve
from fppgeo.lattice import Box

from oracles import (backward_cluster, bellman_ford, connected_components_bfs, path_weight,
                     point_field, reverse_reachable, truncate, unit_environment)


def hyper_field(seed=0, radius=4, level=2, dist=None, d=2):
    box = Box.cube(radius, d)
    env = WeightEnvironment(d, dist or uniform(0, 1), seed)
    return env, box, solve(env, box, HyperplaneTarget((1,) + (0,) * (d - 1), level))


def busemann(f, x, y):
    """B(x, y) = T(x, H) - T(y, H), read from the field of the hyperplane H."""
    return float(f.T[f.box.index_of(x)] - f.T[f.box.index_of(y)])


def path_vertices(g, x):
    return [g.box.vertex_at(int(i)) for i in forward_path(g, x)]


def test_build_graph_requires_hyperplane_target():
    box = Box.cube(2, 2)
    env = WeightEnvironment(2, uniform(0, 1), 0)
    f = point_field(env, box, (0, 0))
    with pytest.raises(ValueError):
        build_graph(f)


def test_out_degree_one_off_target():
    env, box, f = hyper_field(3)
    g = build_graph(f)
    for i in range(g.n_vertices):
        if g.target_mask[i]:
            assert g.succ[i] == -1
        else:
            assert g.succ[i] >= 0


def test_unit_weight_graph_points_toward_hyperplane():
    box = Box.cube(3, 2)
    env = unit_environment(2, box)
    g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 0)))
    for x1 in range(1, 4):
        s = g.succ[box.index_of((x1, 1))]
        assert s >= 0
        assert abs(box.vertex_at(int(s))[0]) < x1  # steps decrease |x . e1|


def test_directed_paths_are_geodesics_bruteforce():
    env, box, f = hyper_field(7, radius=2, level=1)
    g = build_graph(f)
    targets = [box.vertex_at(i) for i in np.flatnonzero(f.target_mask)]
    oracle = bellman_ford(env, box, targets)
    for i in range(box.n_vertices):
        x = box.vertex_at(i)
        p = forward_path(g, x)
        assert g.target_mask[p[-1]]
        assert path_weight(env, path_vertices(g, x)) == pytest.approx(oracle[x], rel=1e-12)


def test_busemann_algebra():
    env, box, f = hyper_field(11)
    rng = np.random.default_rng(0)
    pts = [tuple(int(c) for c in rng.integers(-4, 5, size=2)) for _ in range(30)]
    for x in pts[:10]:
        assert busemann(f, x, x) == 0.0
    for x, y, z in zip(pts, pts[10:], pts[20:]):
        assert busemann(f, x, y) == -busemann(f, y, x)  # antisymmetry is exact
        assert busemann(f, x, y) + busemann(f, y, z) == pytest.approx(busemann(f, x, z),
                                                                      abs=1e-9)
    with pytest.raises(ValueError):
        busemann(f, (99, 0), (0, 0))


def test_busemann_bounded_by_T():
    env, box, f = hyper_field(13)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = tuple(int(c) for c in rng.integers(-4, 5, size=2))
        y = tuple(int(c) for c in rng.integers(-4, 5, size=2))
        fy = point_field(env, box, y)
        assert abs(busemann(f, x, y)) <= fy.T[box.index_of(x)] + 1e-9


def test_forward_path_trivial_at_target():
    env, box, f = hyper_field(5)
    g = build_graph(f)
    t = int(np.flatnonzero(g.target_mask)[0])
    p = forward_path(g, box.vertex_at(t))
    assert p.dtype == np.int64 and p.tolist() == [t]


def test_busemann_equals_T_along_graph_order():
    env, box, f = hyper_field(5)
    g = build_graph(f)
    p = path_vertices(g, (-4, -2))
    x = p[0]
    for y in p[1:4]:
        fy = point_field(env, box, y)
        assert busemann(f, x, y) == pytest.approx(fy.T[box.index_of(x)], abs=1e-9)


def test_forward_paths_coalesce_after_meeting():
    env, box, f = hyper_field(21)
    g = build_graph(f)
    pa = path_vertices(g, (-4, -4))
    pb = path_vertices(g, (-4, 4))
    common = set(pa) & set(pb)
    if common:
        first = min((pa.index(v), v) for v in common)[1]
        assert pa[pa.index(first):] == pb[pb.index(first):]


def test_backward_cluster_leaf_and_oracle():
    env, box, f = hyper_field(9, radius=2, level=1)
    g = build_graph(f)
    succ_map = {box.vertex_at(i): (box.vertex_at(int(s)) if s >= 0 else None)
                for i, s in enumerate(g.succ)}
    indeg = {v: 0 for v in succ_map}
    for v, s in succ_map.items():
        if s is not None:
            indeg[s] += 1
    leaves = [v for v, k in indeg.items() if k == 0]
    sizes, depth, _ = backward_stats(g)
    bc = backward_cluster(g, leaves[0])
    assert bc.vertices == [leaves[0]] and bc.depth == 0
    assert (sizes[box.index_of(leaves[0])], depth[box.index_of(leaves[0])]) == (1, 0)
    for x in list(succ_map)[::5]:
        oracle = reverse_reachable(succ_map, {x})
        assert set(backward_cluster(g, x).vertices) == oracle
        assert sizes[box.index_of(x)] == len(oracle)


def test_indegree_conservation():
    env, box, f = hyper_field(29)
    # the point target makes vertex 0 a root with in-edges
    for g in (build_graph(f), point_field(env, box, box.lower)):
        n_roots = int((g.succ < 0).sum())
        assert int(g.in_degrees().sum()) == g.n_vertices - n_roots
        heads = [int(s) for s in g.succ if s >= 0]
        assert g.in_degrees().tolist() == [heads.count(i) for i in range(g.n_vertices)]


def test_backward_stats_match_bfs():
    env, box, f = hyper_field(31, radius=3)
    g = build_graph(f)
    sizes, depth, touch = backward_stats(g)
    for i in range(0, g.n_vertices, 5):     # interior vertices too
        bc = backward_cluster(g, box.vertex_at(i))
        assert bc.size == sizes[i]
        assert bc.depth == depth[i]
        assert bc.touches_boundary == touch[i]


def test_sample_level_deterministic_and_uniform():
    assert sample_level(10, 99) == sample_level(10, 99)
    draws = np.array([sample_level(1.0, s) for s in range(10 ** 4)])
    lo = (draws < 0.5).sum()
    chi2 = stats.chisquare([lo, 10 ** 4 - lo]).statistic
    assert chi2 < stats.chi2.ppf(0.999, 1)
    with pytest.raises(ValueError):
        sample_level(0, 1)


def test_sample_averaged_graph_composition():
    box = Box.cube(4, 2)
    env = WeightEnvironment(2, uniform(0, 1), 6)
    alpha, g = sample_averaged_graph(env, 3.0, box, (1.0, 0.0), rng_seed=5)
    assert 0 <= alpha <= 3.0
    f = solve(env, box, HyperplaneTarget((1.0, 0.0), alpha, mode="halfspace_frontier"))
    g2 = build_graph(f)
    assert np.array_equal(g.succ, g2.succ)
    alpha_again, _ = sample_averaged_graph(env, 3.0, box, (1.0, 0.0), rng_seed=5)
    assert alpha == alpha_again


def test_truncate_identity_and_monotone():
    env, box, f = hyper_field(15)
    g = build_graph(f)
    assert np.array_equal(truncate(g, g.box).succ, g.succ)
    single = Box((0, 0), (0, 0))
    assert truncate(g, single).n_edges == 0
    b1, b2 = Box.cube(2, 2), Box.cube(3, 2)
    assert np.array_equal(truncate(truncate(g, b2), b1).succ, truncate(g, b1).succ)
    with pytest.raises(ValueError):
        truncate(g, Box.cube(9, 2))


def test_truncation_backward_clusters_stabilize():
    env, box, f = hyper_field(19, radius=10, level=5)
    g = build_graph(f)
    x = (0, 0)
    sizes = [backward_cluster(truncate(g, Box.cube(r, 2)), x).size for r in (2, 4, 6, 8, 10)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == backward_cluster(g, x).size


def test_components_edgeless_and_forest_identity():
    env, box, f = hyper_field(23)
    g = build_graph(f)
    comp = components(g)
    assert comp.max() + 1 == g.n_vertices - g.n_edges
    edgeless = truncate(g, Box((0, 0), (0, 0)))
    assert components(edgeless).max() + 1 == g.n_vertices


def test_components_match_bfs_oracle():
    env, box, f = hyper_field(27, radius=2, level=1)
    g = build_graph(f)
    verts = [box.vertex_at(i) for i in range(box.n_vertices)]
    edges = [(box.vertex_at(i), box.vertex_at(int(s)))
             for i, s in enumerate(g.succ) if s >= 0]
    oracle = connected_components_bfs(verts, edges)
    comp = components(g)
    for u in verts:
        for v in verts:
            same_oracle = oracle[u] == oracle[v]
            same_lib = comp[box.index_of(u)] == comp[box.index_of(v)]
            assert same_oracle == same_lib


def _manual_graph(box, succ_pairs, target):
    n = box.n_vertices
    succ = np.full(n, -1, dtype=np.int64)
    T = np.zeros(n)
    for u, v in succ_pairs:
        succ[box.index_of(u)] = box.index_of(v)
    # T consistent with edge count to target
    order = True
    changed = True
    while changed:
        changed = False
        for u, v in succ_pairs:
            iu, iv = box.index_of(u), box.index_of(v)
            if T[iu] != T[iv] + 1.0:
                T[iu] = T[iv] + 1.0
                changed = True
    tmask = np.zeros(n, dtype=bool)
    tmask[box.index_of(target)] = True
    return DistanceField(box=box, target=HyperplaneTarget((1, 0), 0), T=T,
                         succ=succ, target_mask=tmask)


def test_encounter_points_empty_without_branching():
    box = Box((0, 0), (6, 1))
    chain = [((k, 0), (k + 1, 0)) for k in range(6)]
    g = _manual_graph(box, chain, (6, 0))
    assert encounter_points(g, threshold=2) == []


def test_encounter_points_y_fixture():
    box = Box.cube(8, 2)
    arms = [((-k, 0), (-k + 1, 0)) for k in range(8, 0, -1)]
    arms += [((0, -k), (0, -k + 1)) for k in range(8, 0, -1)]
    arms += [((k, 0), (k + 1, 0)) for k in range(0, 8)]
    g = _manual_graph(box, arms, (8, 0))
    assert encounter_points(g, threshold=6) == [(0, 0)]
    assert encounter_points(g, threshold=9) == []


def test_encounter_density_decreases_with_threshold():
    # pilot over 50 seeds on 81x81 boxes: mean density 0.128 / 0.035 / 0.010
    box = Box.cube(40, 2)
    densities = []
    for threshold in (2, 5, 10):
        vals = []
        for seed in range(20):
            env = WeightEnvironment(2, uniform(0, 1), seed)
            g = build_graph(solve(env, box, HyperplaneTarget((1, 0), 20)))
            vals.append(len(encounter_points(g, threshold)) / g.n_vertices)
        densities.append(np.mean(vals))
    assert densities[0] > densities[1] > densities[2]


def test_graph_summary_fields():
    env, box, f = hyper_field(1)
    g = build_graph(f)
    s = graph_summary(g)
    assert set(s) == {"alpha", "n_vertices", "n_edges", "n_components",
                      "max_backward_depth"}
    assert s["n_vertices"] == box.n_vertices
