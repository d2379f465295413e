import numpy as np
import pytest

from fppgeo.environment import (TorusEnvironment, WeightEnvironment,
                                empirical_distribution_check, env_from_config,
                                env_to_config, exponential, override_box,
                                parse_dist, uniform, uniform_shifted,
                                with_overrides)
from fppgeo.lattice import Box


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
    env = WeightEnvironment(2, uniform(0, 1), 0, {e: 7.5})
    assert env.weight_of(e) == 7.5
    # vectorized path honors the override too
    w = env.edge_weights(np.array([[0, 0]]), np.array([0]))
    assert w[0] == 7.5


def test_override_validation():
    env = WeightEnvironment(2, uniform(0, 1), 0, {((1, 0), (0, 0)): 2.0})
    assert env.overrides == {((0, 0), (1, 0)): 2.0}
    with pytest.raises(ValueError, match="nonnegative"):
        WeightEnvironment(2, uniform(0, 1), 0, {((0, 0), (1, 0)): -1.0})
    with pytest.raises(ValueError, match="are not nearest neighbors"):
        WeightEnvironment(2, uniform(0, 1), 0, {((0, 0), (0, 1)): 1.0, ((1, 1), (0, 0)): 1.0})


def test_distribution_validation():
    with pytest.raises(ValueError):
        uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        exponential(0.0)
    with pytest.raises(ValueError):
        uniform_shifted(0.0, 1.0)
    with pytest.raises(ValueError):
        parse_dist("poisson:3")


def test_sup_support_and_mean():
    assert uniform(0, 1).sup_support() == 1.0
    assert uniform_shifted(0.5, 1.0).sup_support() == 1.5
    assert exponential(2.0).sup_support() == np.inf
    assert uniform(0, 1).mean() == 0.5
    assert exponential(2.0).mean() == 0.5


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
    with pytest.raises(ValueError):
        with_overrides(env, edges, -1.0)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.95])
def test_with_overrides_matches_per_edge_rule(lam):
    before = {((0, 0), (1, 0)): 0.25, ((2, 2), (2, 3)): 0.75}
    env = WeightEnvironment(2, uniform(0, 1), 4, before)
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
    assert all(u < v for u, v in env2.overrides)
    with pytest.raises(ValueError, match="nearest neighbors"):
        with_overrides(env, edges + [((0, 0), (1, 1))], lam)


def test_override_box_unit_weights():
    box = Box.cube(3, 2)
    env = override_box(make_env(1), box, 1.0)
    assert env.weight_of(((0, 0), (0, 1))) == 1.0
    assert env.weight_of(((-3, -3), (-2, -3))) == 1.0


def test_ks_check_uniform():
    env = make_env(2)
    rep = empirical_distribution_check(env, 10 ** 5)
    assert rep.ks_stat < 0.01
    assert rep.passed


def test_ks_check_exponential_mean():
    env = make_env(2, exponential(1.0))
    rep = empirical_distribution_check(env, 10 ** 5)
    # CLT bound: |mean - 1| within 3 sigma/sqrt(n) for Exp(1)
    assert abs(rep.sample_mean - 1.0) < 3.0 / np.sqrt(10 ** 5)


def test_ks_check_rejects_tiny_samples():
    with pytest.raises(ValueError):
        empirical_distribution_check(make_env(0), 0)


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


def test_config_roundtrip_bit_identical():
    env = WeightEnvironment(2, uniform(0, 1), 42, {((0, 0), (1, 0)): 2.5})
    env2 = env_from_config(env_to_config(env))
    for e in [((0, 0), (1, 0)), ((5, 5), (5, 6)), ((-3, 2), (-2, 2))]:
        assert env.weight_of(e) == env2.weight_of(e)


def test_torus_environment_periodicity():
    env = make_env(4)
    t = TorusEnvironment(env, (8, 8))
    base = np.array([[7, 3]])
    shifted = np.array([[15, 3]])  # same edge mod 8
    assert t.edge_weights(base, np.array([0]))[0] == t.edge_weights(shifted, np.array([0]))[0]
    with pytest.raises(ValueError):
        TorusEnvironment(env, (2, 8))
