import warnings

import numpy as np
import pytest
from scipy import stats

from fppgeo.environment import (DistributionSpec, WeightEnvironment, edge_ids, override_edges,
                                parse_dist, uniform, with_overrides)
from fppgeo.geodesics import _neighbor_table
from fppgeo.lattice import Box

from oracles import axis_edges, edge_id, edge_uniform, override_box


def make_env(seed=0, dist=None):
    return WeightEnvironment(2, dist or uniform(0.0, 1.0), seed)


def test_weight_purity_bit_exact():
    env = make_env(123)
    e = ((4, -7), (5, -7))
    assert env.weight_of(e) == env.weight_of(e)
    assert env.weight_of(e) == env.weight_of(((5, -7), (4, -7)))


def test_uniform_range():
    env = make_env(5)
    w = env.edge_weights(np.stack([np.arange(5000), np.zeros(5000, int)], axis=1),
                         np.zeros(5000, int))
    assert np.all((w >= 0.0) & (w < 1.0))


def test_override_precedence():
    e = ((0, 0), (1, 0))
    env = override_edges(WeightEnvironment(2, uniform(0, 1), 0), [e], 7.5)
    assert env.weight_of(e) == 7.5
    # vectorized path honors the override too
    w = env.edge_weights(np.array([[0, 0]]), np.array([0]))
    assert w[0] == 7.5


def test_override_validation():
    env = override_edges(make_env(0), [((1, 0), (0, 0))], 2.0)
    ids, values = env.overrides
    assert ids.tolist() == edge_ids([[0, 0]], [0]).tolist() and values.tolist() == [2.0]
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            override_edges(make_env(0), [((0, 0), (1, 0))], bad)
    with pytest.raises(ValueError, match=r"^\(1, 1\) and \(0, 0\) are not nearest neighbors"):
        override_edges(make_env(0), [((0, 0), (0, 1)), ((1, 1), (0, 0))], 1.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        parse_dist("exponential:0")
    with pytest.raises(ValueError):
        parse_dist("uniform:0.5,0.5")
    with pytest.raises(ValueError):
        parse_dist("poisson:3")


@pytest.mark.parametrize("kind, params", [("uniform", (0.0, float("inf"))),
                                          ("uniform", (float("-inf"), 1.0)),
                                          ("uniform", (float("nan"), 1.0)),
                                          ("exponential", (float("inf"),)),
                                          ("exponential", (float("nan"),))])
def test_distribution_parameters_must_be_finite(kind, params):
    with pytest.raises(ValueError, match="parameters must be finite"):
        DistributionSpec(kind, params)


def test_sup_support_and_mean():
    assert uniform(0, 1).sup_support() == 1.0
    assert parse_dist("uniform:0.5,1.5").sup_support() == 1.5
    assert parse_dist("exponential:2").sup_support() == np.inf
    assert uniform(0, 1).mean() == 0.5
    assert parse_dist("exponential:2").mean() == 0.5


def test_with_overrides_empty_is_identity():
    env = make_env(9)
    env2 = with_overrides(env, [], 0.5)
    e = ((2, 2), (2, 3))
    assert env2.weight_of(e) == env.weight_of(e)


def test_with_overrides_low_lambda_keeps_weights():
    env = make_env(9)
    edges = [((0, 0), (1, 0)), ((3, 1), (3, 2))]
    env2 = with_overrides(env, edges, 0.0)
    for e in edges:
        assert env2.weight_of(e) == env.weight_of(e)


def test_with_overrides_raises_weights():
    env = make_env(9)
    edges = [((i, 0), (i + 1, 0)) for i in range(50)]
    env2 = with_overrides(env, edges, 0.95)
    for e in edges:
        assert env2.weight_of(e) >= 0.95
        assert env2.weight_of(e) == max(env.weight_of(e), 0.95)
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError):
            with_overrides(env, edges, bad)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.95])
def test_with_overrides_matches_per_edge_rule(lam):
    env = override_edges(WeightEnvironment(2, uniform(0, 1), 4),
                         [((0, 0), (1, 0)), ((2, 2), (2, 3))], [0.25, 0.75])
    rng = np.random.default_rng(11)
    edges = []
    for _ in range(200):
        u = tuple(int(c) for c in rng.integers(-6, 7, size=2))
        v = list(u)
        v[int(rng.integers(2))] += int(rng.choice([-1, 1]))
        edges.append((u, tuple(v)))          # either endpoint order
    edges += edges[:20] + [(v, u) for u, v in edges[20:30]]   # duplicates
    edges += [((1, 0), (0, 0)), ((2, 2), (2, 3))]            # already overridden
    env2 = with_overrides(env, edges, lam)
    for e in edges:
        assert env2.weight_of(e) == max(env.weight_of(e), lam)
    assert env2.weight_of(((9, 9), (9, 10))) == env.weight_of(((9, 9), (9, 10)))
    ids = env2.overrides[0]
    assert (ids[1:] > ids[:-1]).all()            # sorted and unique
    with pytest.raises(ValueError, match="nearest neighbors"):
        with_overrides(env, edges + [((0, 0), (1, 1))], lam)
    # override_edges: of an edge given twice the later entry wins, whatever
    # its endpoint order, and new entries win over the older overrides
    env3 = override_edges(env2, [((0, 0), (1, 0)), ((4, 4), (4, 5)), ((1, 0), (0, 0))],
                          [0.1, 0.2, 0.3])
    assert env3.weight_of(((0, 0), (1, 0))) == 0.3
    assert env3.weight_of(((4, 5), (4, 4))) == 0.2
    for e in edges:
        if set(e) != {(0, 0), (1, 0)} and set(e) != {(4, 4), (4, 5)}:
            assert env3.weight_of(e) == env2.weight_of(e)


def test_weight_of_reads_the_table_that_edge_weights_reads():
    # Distinct edges of a 3-d box can share an id (edge_ids folds coordinates
    # 0 and 2 through a symmetric XOR), and then one override sets both.
    # Whatever the table holds, weight_of must read the same entry as
    # edge_weights does in solve.  Mending the collisions themselves changes
    # every 3-d weight, so it waits for a change of the benchmark's digests.
    box = Box((0, 0, 0), (2, 2, 2))
    coords = box.coords()
    edges = np.concatenate([np.stack([coords[t], coords[h]], axis=1)
                            for t, h in axis_edges(box)])
    assert len(edges) == 54
    env = override_edges(WeightEnvironment(3, uniform(0, 1), 1), edges,
                         1.0 + np.arange(len(edges)))
    _, wt = _neighbor_table(env, box)
    for axis, (tails, heads) in enumerate(axis_edges(box)):
        table = env.edge_weights(coords[tails], np.full(len(tails), axis))
        # the +e_axis slot of the tail and the -e_axis slot of the head
        assert np.array_equal(wt[tails, 5 - axis], table) and np.array_equal(wt[heads, axis], table)
        for u, v, w in zip(coords[tails].tolist(), coords[heads].tolist(), table):
            assert env.weight_of((v, u)) == w


# (min endpoint, axis, id): a slip in the lane order or in the packing of a
# coordinate changes these without any reference to an older implementation
PINNED_IDS = [((0, 0), 0, 0x48218226FF3CD4BF), ((-3, 5), 1, 0xE186C098956D768F),
              ((7, -2), 0, 0x48E91ECFF96BFEDB), ((0, 0, 0), 2, 0xE60BBBF6CA094F3C),
              ((-1, 4, -9), 0, 0x0556486071CD2E46), ((2, -3, 1), 1, 0x04E18155C6E5A7E8)]


def test_edge_ids_are_pinned():
    for coords, axis, expect in PINNED_IDS:
        assert edge_ids([coords], [axis]).tolist() == [expect]
    rows = [coords for coords, _, _ in PINNED_IDS[:3]]
    assert edge_ids(rows, [0, 1, 0]).tolist() == [i for _, _, i in PINNED_IDS[:3]]
    # the grid form: an open grid of tails, one axis for all
    assert edge_ids(np.ix_([-2, 3], [-1, 0, 5]), 1).tolist() == [
        [0x2C3B88A3F83F2BC6, 0xA05F85AB803FDFA1, 0x38E411B9FDCB7D9F],
        [0x500BF2F5E74AFD9F, 0x0B1F3A78522375A5, 0x0325F4CCD260F8FF]]
    assert edge_ids(np.ix_([-1, 2], [0], [-4, 3]), 2).tolist() == [
        [[0x0092FAA86FB848FA, 0xE3D1ADE71070A03C]],
        [[0x6DC8933AE67C5D08, 0x7409301323E76615]]]


@pytest.mark.parametrize("seed", [0, -1, 2 ** 63, 2 ** 64 - 1, 2 ** 70])
def test_edge_hash_matches_splitmix64_oracle_without_warnings(seed):
    # every input form, at seeds that wrap around 64 bits: no overflow warning from the
    # wrapping uint64 arithmetic, and the ids and weights of the pure-Python reference
    a, b = 0.5, 2.25
    env = WeightEnvironment(3, uniform(a, b), seed)
    rows = np.array([[0, 0, 0], [-5, 3, 2 ** 40], [7, -9, 1], [-2 ** 62, 2 ** 62, -1]])
    grid = np.ix_([-2, 3], [-1, 0, 5], [4, -7])
    point = (np.int64(3), -2, 5)
    cases = [(rows, [0, 1, 2, 1], [(tuple(r), k) for r, k in zip(rows.tolist(), [0, 1, 2, 1])]),
             (grid, 1, [((i, j, k), 1) for i in (-2, 3) for j in (-1, 0, 5) for k in (4, -7)]),
             (point, 2, [((3, -2, 5), 2)])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for min_coords, axes, edges in cases:
            ids, weights = edge_ids(min_coords, axes), env.edge_weights(min_coords, axes)
            assert ids.ravel().tolist() == [edge_id(p, k) for p, k in edges]
            assert weights.tolist() == [a + (b - a) * edge_uniform(seed, p, k) for p, k in edges]
        assert np.shape(edge_ids(point, 2)) == () and ids.dtype == np.uint64


def test_override_box_unit_weights():
    box = Box.cube(3, 2)
    env = override_box(make_env(1), box, 1.0)
    assert env.weight_of(((0, 0), (0, 1))) == 1.0
    assert env.weight_of(((-3, -3), (-2, -3))) == 1.0


def _e1_weights(env, n):
    """Weights of the n edges (k, 0, ..., 0) -> (k + 1, 0, ..., 0), k = 0 .. n - 1."""
    coords = np.zeros((n, env.dim), dtype=np.int64)
    coords[:, 0] = np.arange(n)
    return env.edge_weights(coords, np.zeros(n, dtype=np.int64))


def test_ks_check_uniform():
    env = make_env(2)
    ks = stats.kstest(_e1_weights(env, 10 ** 5), stats.uniform(0.0, 1.0).cdf)
    assert ks.statistic < 0.01
    assert ks.pvalue > 0.01


def test_ks_check_exponential_mean():
    env = make_env(2, parse_dist("exponential:1"))
    w = _e1_weights(env, 10 ** 5)
    assert stats.kstest(w, stats.expon(scale=1.0).cdf).pvalue > 0.01
    # CLT bound: |mean - 1| within 3 sigma/sqrt(n) for Exp(1)
    assert abs(w.mean() - 1.0) < 3.0 / np.sqrt(10 ** 5)


def test_translation_covariance_of_ids():
    # weights of a translated edge queried directly match the translated id
    env = make_env(77)
    z = (13, -4)
    for e in [((0, 0), (1, 0)), ((2, 5), (2, 6))]:
        shifted = tuple(tuple(c + dz for c, dz in zip(v, z)) for v in e)
        assert env.weight_of(shifted) == env.weight_of(shifted)
        assert env.weight_of(shifted) != env.weight_of(e)  # distinct edges, distinct draws


def test_no_collisions_in_one_million_draws():
    # continuity surrogate: distinct edges never collide at float64 resolution
    env = make_env(31)
    n = 10 ** 6
    coords = np.zeros((n, 2), dtype=np.int64)
    coords[:, 0] = np.arange(n) % 1000
    coords[:, 1] = np.arange(n) // 1000
    w = env.edge_weights(coords, np.zeros(n, dtype=np.int64))
    assert len(np.unique(w)) == n


def test_seed_changes_weights():
    a, b = make_env(0), make_env(1)
    e = ((0, 0), (1, 0))
    assert a.weight_of(e) != b.weight_of(e)

