"""Lazy, deterministic i.i.d. edge-weight environments.

Weights are a pure function of (seed, canonical edge id): the canonical id
of an undirected edge (min endpoint in lexicographic order, axis index) is
hashed with a SplitMix64-style finalizer, folded to 64 bits, and mapped
through the inverse CDF of the configured distribution.  Any edge of the
infinite lattice is addressable in O(1), and a finite override map takes
precedence over the hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import Box, edge_axis, undirected_edge

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_PHI = np.uint64(0x9E3779B97F4A7C15)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix(z):
    """SplitMix64 finalizer, elementwise on uint64 arrays (wrapping multiply)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def edge_ids(min_coords, axes):
    """64-bit canonical ids for edges given by (min endpoint, axis).

    Coordinates are packed into two accumulator lanes and folded to one
    word, so the id depends only on the canonical edge, not on the seed.
    """
    min_coords = np.atleast_2d(np.asarray(min_coords, dtype=np.int64))
    axes = np.asarray(axes, dtype=np.int64)
    lo = np.zeros(len(min_coords), dtype=np.uint64)
    hi = np.zeros(len(min_coords), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i in range(min_coords.shape[1]):
            lane = min_coords[:, i].astype(np.uint64) * _PHI
            if i % 2 == 0:
                lo = _mix(lo ^ lane)
            else:
                hi = _mix(hi ^ lane)
        hi = _mix(hi ^ (axes.astype(np.uint64) + _PHI))
    return _mix(lo ^ hi)


@dataclass(frozen=True)
class DistributionSpec:
    """Continuous nonnegative edge-weight distribution."""

    kind: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        k, p = self.kind, self.params
        if k == "uniform":
            if len(p) != 2 or not (0.0 <= p[0] < p[1]):
                raise ValueError("uniform requires 0 <= a < b")
        elif k == "uniform_shifted":
            if len(p) != 2 or not (p[0] > 0.0 and p[1] > 0.0):
                raise ValueError("uniform_shifted requires shift > 0 and width > 0")
        elif k == "exponential":
            if len(p) != 1 or not p[0] > 0.0:
                raise ValueError("exponential requires rate > 0")
        else:
            raise ValueError(f"unknown distribution kind {k!r}")

    def _bounds(self):
        if self.kind == "uniform":
            return self.params
        if self.kind == "uniform_shifted":
            return self.params[0], self.params[0] + self.params[1]
        return None

    def inverse_cdf(self, u):
        b = self._bounds()
        if b is not None:
            return b[0] + (b[1] - b[0]) * u
        return -np.log1p(-u) / self.params[0]

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        b = self._bounds()
        if b is not None:
            return np.clip((x - b[0]) / (b[1] - b[0]), 0.0, 1.0)
        return 1.0 - np.exp(-self.params[0] * x)

    def mean(self):
        b = self._bounds()
        if b is not None:
            return 0.5 * (b[0] + b[1])
        return 1.0 / self.params[0]

    def sup_support(self):
        b = self._bounds()
        return b[1] if b is not None else math.inf

    def label(self):
        return f"{self.kind}:" + ",".join(format(p, "g") for p in self.params)


def uniform(a, b):
    return DistributionSpec("uniform", (a, b))


def uniform_shifted(shift, width):
    return DistributionSpec("uniform_shifted", (shift, width))


def exponential(rate):
    return DistributionSpec("exponential", (rate,))


def parse_dist(text):
    """Parse a CLI distribution label like 'uniform:0,1' or 'exponential:1'."""
    try:
        kind, _, params = text.partition(":")
        values = tuple(float(p) for p in params.split(",")) if params else ()
        return DistributionSpec(kind.replace("-", "_"), values)
    except ValueError as exc:
        raise ValueError(f"bad dist {text!r}: {exc}") from exc


@dataclass(frozen=True)
class WeightEnvironment:
    """Immutable weight assignment on the edges of Z^d.

    ``overrides`` maps canonical undirected edges to exact weights and wins
    over the hashed value.  Construct upward modifications with
    :func:`with_overrides`.
    """

    dim: int
    spec: DistributionSpec
    seed: int
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("d >= 2 required")
        overrides = {(u, v) if u <= v else (v, u): float(w)
                     for (u, v), w in self.overrides.items()}
        object.__setattr__(self, "overrides", overrides)
        ends = np.array(list(overrides), dtype=np.int64).reshape(-1, 2, self.dim)
        steps = np.abs(ends[:, 1] - ends[:, 0])
        bad = np.flatnonzero(steps.sum(axis=1) != 1)
        if bad.size:
            raise ValueError("{} and {} are not nearest neighbors".format(
                *list(overrides)[bad[0]]))
        values = np.fromiter(overrides.values(), dtype=np.float64, count=len(overrides))
        if (values < 0).any():
            raise ValueError("override weights must be nonnegative")
        ids = edge_ids(ends[:, 0], steps.argmax(axis=1))
        order = np.argsort(ids, kind="stable")
        object.__setattr__(self, "_ov_ids", ids[order])
        object.__setattr__(self, "_ov_values", values[order])

    def _seed_word(self):
        return _mix(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF) ^ _PHI)

    def edge_weights(self, min_coords, axes):
        """Vectorized weights for edges given as (min endpoint, axis) arrays."""
        ids = edge_ids(min_coords, axes)
        u = (_mix(ids ^ self._seed_word()) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        w = self.spec.inverse_cdf(u)
        if len(self._ov_ids):
            pos = np.searchsorted(self._ov_ids, ids)
            pos = np.minimum(pos, len(self._ov_ids) - 1)
            hit = self._ov_ids[pos] == ids
            w[hit] = self._ov_values[pos[hit]]
        return w

    def weight_of(self, e):
        """Weight of a single undirected edge (endpoint order irrelevant)."""
        e = undirected_edge(*e)
        if e in self.overrides:
            return float(self.overrides[e])
        return float(self.edge_weights(
            np.asarray([e[0]], dtype=np.int64), np.asarray([edge_axis(e)]))[0])


def with_overrides(env, edges, lam):
    """New environment with t_e replaced by max(t_e, lam) on the given finite edge set."""
    if lam < 0:
        raise ValueError("invalid parameter: lambda must be nonnegative")
    ends = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2, env.dim)
    axes = np.abs(ends[:, 1] - ends[:, 0]).argmax(axis=1)
    raised = np.maximum(env.edge_weights(ends.min(axis=1), axes), float(lam))
    new = dict(env.overrides)
    new.update(zip(((tuple(u), tuple(v)) for u, v in edges), raised.tolist()))
    # the new environment puts every pair in canonical order and rejects
    # pairs that are not nearest neighbours
    return replace(env, overrides=new)


def override_box(env, box, value):
    """New environment with every edge inside ``box`` set to exactly ``value``."""
    if value < 0:
        raise ValueError("invalid parameter: weight must be nonnegative")
    new = dict(env.overrides)
    points = box.coords().tolist()
    for tails, heads in box.axis_edges():
        for u, v in zip(tails.tolist(), heads.tolist()):
            new[(tuple(points[u]), tuple(points[v]))] = float(value)
    return replace(env, overrides=new)


def unit_environment(dim, box, seed=0):
    """Environment whose weights are exactly 1 on every edge of ``box``."""
    return override_box(WeightEnvironment(dim, uniform(0.0, 1.0), seed), box, 1.0)


@dataclass(frozen=True)
class TorusEnvironment:
    """Periodic wrapper: canonical edge ids are taken mod the torus dimensions."""

    env: WeightEnvironment
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(L) for L in self.dims))
        if len(self.dims) != self.env.dim:
            raise ValueError("torus dims must match environment dimension")
        if any(L < 3 for L in self.dims):
            raise ValueError("torus dims must be >= 3 for unambiguous edge ids")

    def edge_weights(self, base_coords, axes):
        base = np.asarray(base_coords, dtype=np.int64) % np.asarray(self.dims, dtype=np.int64)
        return self.env.edge_weights(base, axes)


@dataclass(frozen=True)
class GoodnessOfFit:
    n_samples: int
    ks_stat: float
    ks_pvalue: float
    significance: float
    passed: bool
    sample_mean: float
    expected_mean: float


def empirical_distribution_check(env, n_samples, significance=0.01):
    """Kolmogorov-Smirnov check of hashed weights against the configured CDF."""
    from scipy import stats

    if n_samples < 1000:
        raise ValueError("need n_samples >= 1000")
    k = np.arange(n_samples, dtype=np.int64)
    coords = np.zeros((n_samples, env.dim), dtype=np.int64)
    coords[:, 0] = k
    w = env.edge_weights(coords, np.zeros(n_samples, dtype=np.int64))
    ks = stats.kstest(w, env.spec.cdf)
    return GoodnessOfFit(
        n_samples=int(n_samples),
        ks_stat=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        significance=float(significance),
        passed=bool(ks.pvalue > significance),
        sample_mean=float(w.mean()),
        expected_mean=float(env.spec.mean()),
    )


def env_to_config(env):
    """JSON-ready config; identical config reproduces bit-identical weights."""
    return {
        "dim": env.dim,
        "dist": {"kind": env.spec.kind, "params": list(env.spec.params)},
        "seed": int(env.seed),
        "overrides": [[[list(e[0]), list(e[1])], v] for e, v in sorted(env.overrides.items())],
    }


def env_from_config(cfg):
    spec = DistributionSpec(cfg["dist"]["kind"], tuple(cfg["dist"]["params"]))
    overrides = {undirected_edge(tuple(e[0]), tuple(e[1])): float(v)
                 for e, v in cfg.get("overrides", [])}
    return WeightEnvironment(int(cfg["dim"]), spec, int(cfg["seed"]), overrides)
