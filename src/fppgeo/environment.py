"""Lazy, deterministic i.i.d. edge-weight environments.

Weights are a pure function of (seed, canonical edge id): the canonical id
of an undirected edge (min endpoint in lexicographic order, axis index) is
hashed with a SplitMix64-style finalizer, folded to 64 bits, and mapped
through the inverse CDF of the configured distribution.  Any edge of the
infinite lattice is addressable in O(1).  The id's two lanes, one over the
even coordinates and one over the odd coordinates and the axis, broadcast:
given an open grid of edges, each lane is mixed on its own small grid and
only the final fold and the seed mix run once per edge.  A finite override
table, the sorted ids of the overridden edges and their exact weights, takes
precedence over the hash; ``override_edges`` is its one writer, and
``edge_arrays`` turns the endpoint pairs of callers into the (min endpoint,
axis) form.  The table is keyed by edge id, and ids can repeat in d >= 3,
so an override there also sets every other edge that shares its id.

``with_overrides`` (an upward raise through the table) is public but off
the run path: ``modification.run_modification`` hashes its box once and
raises its strip in the solve's own neighbor table, at the slots of the
eligible edges themselves, not by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_PHI = np.uint64(0x9E3779B97F4A7C15)
_U64 = 0xFFFFFFFFFFFFFFFF
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))


def _mix(z):
    """SplitMix64 finalizer on uint64 arrays (not scalars, whose overflow numpy reports)."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def edge_ids(min_coords, axes):
    """64-bit canonical ids for edges given by (min endpoint, axis).

    ``min_coords`` is an (m, d) array of min endpoints, or a tuple of d
    coordinate columns that broadcast with ``axes``, such as an open grid
    from ``np.ix_``; the ids take the broadcast shape, (m,) in the first
    form.  Coordinates are packed into two accumulator lanes, ``lo`` over
    the even axes and ``hi`` over the odd axes and the edge's axis, and
    folded to one word, so the id depends only on the canonical edge, not on
    the seed.  Each lane is mixed at its own broadcast shape: on an open
    grid only the final fold runs once per edge.
    """
    if not isinstance(min_coords, tuple):
        min_coords = tuple(np.atleast_2d(np.asarray(min_coords, dtype=np.int64)).T)
    lo = hi = np.zeros(1, dtype=np.uint64)      # keeps 0-d inputs off numpy's scalar math
    for i, column in enumerate(min_coords):
        lane = np.asarray(column, dtype=np.int64).astype(np.uint64) * _PHI
        if i % 2 == 0:
            lo = _mix(lo ^ lane)
        else:
            hi = _mix(hi ^ lane)
    hi = _mix(hi ^ (np.asarray(axes, dtype=np.int64).astype(np.uint64) + _PHI))
    return _mix(lo ^ hi).reshape(np.broadcast(axes, *min_coords).shape)


@dataclass(frozen=True)
class DistributionSpec:
    """Continuous nonnegative edge-weight distribution."""

    kind: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        k, p = self.kind, self.params
        if not all(math.isfinite(v) for v in p):
            raise ValueError("parameters must be finite")
        if k == "uniform":
            if len(p) != 2 or not (0.0 <= p[0] < p[1]):
                raise ValueError("uniform requires 0 <= a < b")
        elif k == "exponential":
            if len(p) != 1 or not p[0] > 0.0:
                raise ValueError("exponential requires rate > 0")
        else:
            raise ValueError(f"unknown distribution kind {k!r}")

    def inverse_cdf(self, u):
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * u
        return -np.log1p(-u) / self.params[0]

    def mean(self):
        if self.kind == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        return 1.0 / self.params[0]

    def sup_support(self):
        return self.params[1] if self.kind == "uniform" else math.inf

    def label(self):
        return f"{self.kind}:" + ",".join(format(p, "g") for p in self.params)


def uniform(a, b):
    return DistributionSpec("uniform", (a, b))


def parse_dist(text):
    """Parse a CLI distribution label like 'uniform:0,1' or 'exponential:1'."""
    try:
        kind, _, params = text.partition(":")
        values = tuple(float(p) for p in params.split(",")) if params else ()
        return DistributionSpec(kind, values)
    except ValueError as exc:
        raise ValueError(f"bad dist {text!r}: {exc}") from exc


_NO_OVERRIDES = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class WeightEnvironment:
    """Immutable weight assignment on the edges of Z^d.

    ``overrides`` is the override table ``(ids, values)``: sorted, unique
    edge ids (see :func:`edge_ids`) and the exact weights that win over the
    hashed weights of those edges.  Build it with :func:`override_edges`,
    or with :func:`with_overrides` for upward modifications.
    """

    dim: int
    spec: DistributionSpec
    seed: int
    overrides: tuple = _NO_OVERRIDES

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("d >= 2 required")

    def _seed_word(self):
        return _mix(np.array([(self.seed ^ int(_PHI)) & _U64], dtype=np.uint64))[0]

    def edge_weights(self, min_coords, axes):
        """Vectorized weights for edges given as (min endpoint, axis) arrays.

        The arguments are those of :func:`edge_ids`, either form; the result
        is 1-D, in the C order of their broadcast shape.
        """
        ids = edge_ids(min_coords, axes).ravel()
        u = (_mix(ids ^ self._seed_word()) >> _S11).astype(np.float64) * 2.0 ** -53
        w = self.spec.inverse_cdf(u)
        table, values = self.overrides
        if len(table):
            pos = np.minimum(np.searchsorted(table, ids), len(table) - 1)
            hit = table[pos] == ids
            w[hit] = values[pos[hit]]
        return w

    def weight_of(self, e):
        """Weight of a single undirected edge (endpoint order irrelevant)."""
        return float(self.edge_weights(*edge_arrays([e], self.dim))[0])


def edge_arrays(edges, dim):
    """``(low endpoints, axes)`` of undirected edges given as endpoint pairs.

    ``edges`` is a sequence of (u, v) pairs, in either endpoint order, or an
    (m, 2, dim) array of them; a pair that is not a lattice edge raises.
    """
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2, dim)
    steps = np.abs(ends[:, 1] - ends[:, 0])
    bad = np.flatnonzero(steps.sum(axis=1) != 1)
    if bad.size:
        u, v = (tuple(p) for p in ends[bad[0]].tolist())
        raise ValueError(f"{u} and {v} are not nearest neighbors")
    return ends.min(axis=1), steps.argmax(axis=1)


def override_edges(env, edges, values):
    """New environment whose weights on ``edges`` are exactly ``values``.

    ``values`` is one number or one per edge.  Of an edge given twice the
    later entry wins, and every new entry wins over an override of ``env``.
    """
    lows, axes = edge_arrays(edges, env.dim)
    values = np.broadcast_to(np.asarray(values, dtype=np.float64), axes.shape)
    if not ((values >= 0) & (values < np.inf)).all():     # NaN fails too
        raise ValueError("override weights must be finite and nonnegative")
    old_ids, old_values = env.overrides
    # np.unique keeps the first occurrence of each id: newest entries first
    ids, first = np.unique(np.concatenate([edge_ids(lows, axes)[::-1], old_ids]),
                           return_index=True)
    return replace(env, overrides=(ids, np.concatenate([values[::-1], old_values])[first]))


def with_overrides(env, edges, lam):
    """New environment with t_e replaced by max(t_e, lam) on the given finite edge set."""
    if not lam >= 0:
        raise ValueError("invalid parameter: lambda must be nonnegative")
    raised = np.maximum(env.edge_weights(*edge_arrays(edges, env.dim)), float(lam))
    return override_edges(env, edges, raised)

