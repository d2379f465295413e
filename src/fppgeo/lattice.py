"""Integer-lattice geometry: boxes, their vertex levels, and integer directions.

Vertices are plain tuples of ints; the tuple API is the boundary for users
and tests.  Heavy code paths work on flat numpy arrays keyed to a Box, in the
C order of its grid: ``Box.levels`` and ``Box.edge_ends`` (two views of the
grid per axis) read no (n, d) table of ``Box.coords``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of lattice vertices, corners inclusive.

    A ``periodic`` box is a torus: every axis wraps around, so its edges
    join each upper face to the opposite lower face and it has no boundary.
    Its sides must be at least 3, so that no two vertices share two edges.
    ``shape`` (the sides) and ``n_vertices`` are computed once, at construction.
    """

    lower: tuple
    upper: tuple
    periodic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(int(c) for c in self.lower))
        object.__setattr__(self, "upper", tuple(int(c) for c in self.upper))
        if len(self.lower) != len(self.upper):
            raise ValueError("corner dimensions differ")
        if len(self.lower) < 2:
            raise ValueError("d >= 2 required")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError("lower corner must be <= upper corner componentwise")
        object.__setattr__(self, "shape", tuple(u - l + 1 for l, u in zip(self.lower, self.upper)))
        object.__setattr__(self, "n_vertices", math.prod(self.shape))
        if self.periodic and min(self.shape) < 3:
            raise ValueError("periodic axes need side >= 3")

    @classmethod
    def cube(cls, radius, dim):
        return cls((-radius,) * dim, (radius,) * dim)

    @classmethod
    def hull(cls, points):
        """Smallest box holding every row of the (m, d) int array ``points``."""
        points = np.asarray(points, dtype=np.int64)
        return cls(tuple(points.min(axis=0)), tuple(points.max(axis=0)))

    @property
    def dim(self):
        return len(self.lower)

    def _check_dim(self, d, what):
        if d != self.dim:
            raise ValueError(f"a {d}-d {what} on a {self.dim}-d box")

    def _sides(self):
        """Per axis, the coordinates along that side, shaped to broadcast over the grid."""
        return [np.arange(l, u + 1, dtype=np.int64).reshape((-1,) + (1,) * (self.dim - 1 - axis))
                for axis, (l, u) in enumerate(zip(self.lower, self.upper))]

    def contains(self, v):
        self._check_dim(len(v), "point")
        return all(l <= c <= u for c, l, u in zip(v, self.lower, self.upper))

    def contains_box(self, other):
        return self.dim == other.dim and all(l <= ol and ou <= u for l, u, ol, ou in
                   zip(self.lower, self.upper, other.lower, other.upper))

    def index_of(self, v):
        """Flat index of v in lexicographic (C) order; raises if v is outside."""
        if not self.contains(v):
            raise ValueError(f"vertex {tuple(v)} outside box {self.lower}..{self.upper}")
        idx = 0
        for c, l, s in zip(v, self.lower, self.shape):
            idx = idx * s + (c - l)
        return idx

    def vertex_at(self, idx):
        """The vertex of flat index ``idx``, an integer in [0, n), as a tuple of ints."""
        coords, rest = [], operator.index(idx)
        for s in reversed(self.shape):
            rest, c = divmod(rest, s)
            coords.append(c)
        if rest != 0:                   # idx < 0 leaves -1, idx >= n leaves idx // n
            raise ValueError(f"index {idx} outside box {self.lower}..{self.upper}")
        return tuple(c + l for c, l in zip(reversed(coords), self.lower))

    def coords(self):
        """(n, d) int64 array of all vertices in lexicographic order, built per call."""
        out = np.empty((*self.shape, self.dim), dtype=np.int64)
        for axis, side in enumerate(self._sides()):
            out[..., axis] = side
        return out.reshape(-1, self.dim)

    def indices_of(self, coords):
        """Vectorized index_of for an (m, d) int array; other shapes raise ValueError."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2:
            raise ValueError(f"a {coords.ndim}-axis array of points on a {self.dim}-d box")
        self._check_dim(coords.shape[1], "point")
        offs = coords - np.asarray(self.lower, dtype=np.int64)
        if np.any(offs < 0) or np.any(offs >= np.asarray(self.shape)):
            raise ValueError("coordinates outside box")
        return np.ravel_multi_index(tuple(offs.T), self.shape)

    def levels(self, theta):
        """Level z . theta of every vertex z, for an integer direction theta.

        On a torus the level is taken mod m = gcd_i(theta_i L_i), the period
        of z . theta around every axis, so that a level set is a closed
        hyperplane.  The wrapped level of z is the one in [b, b + m), where b
        is the level of the lower corner: [0, m) on a torus from the origin.

        The levels are a sum of theta_i times side i, broadcast over the grid; a
        theta whose length is not the box's dimension raises ValueError.
        """
        theta = tuple(map(int, theta))
        self._check_dim(len(theta), "direction")
        dots = np.zeros(self.shape, dtype=np.int64)
        for axis, (t, l, u) in enumerate(zip(theta, self.lower, self.upper)):
            if t:           # theta_i times side i, added in place: one grid-sized array in all
                side = np.arange(t * l, t * (u + 1), t)
                dots += side.reshape((-1,) + (1,) * (self.dim - 1 - axis))
        dots = dots.ravel()
        if self.periodic:
            m = math.gcd(*(t * L for t, L in zip(theta, self.shape)))
            base = sum(t * l for t, l in zip(theta, self.lower))
            dots = base + (dots - base) % m
        return dots

    def edge_ends(self, axis, values):
        """(tail, head) views of the 1-D per-vertex array ``values`` (a neighbor-table
        slot column too, through which ``geodesics`` writes) over the edges (u, u + e_axis)
        of a plain box: its grid's [:-1] and [1:] along the axis, laid out as the grid
        of tails.  A torus's edges wrap, so it raises."""
        if self.periodic:
            raise ValueError("edge_ends takes a plain box; the edges of a torus wrap")
        grid = values.reshape(self.shape)
        lead = (slice(None),) * axis
        return grid[lead + (slice(None, -1),)], grid[lead + (slice(1, None),)]

    def boundary_mask(self):
        """Boolean mask of vertices lying on a face of the box (none if periodic)."""
        mask = np.full(self.shape, not self.periodic)
        mask[(slice(1, -1),) * self.dim] = False
        return mask.ravel()

    def expand(self, k):
        return Box(tuple(l - k for l in self.lower), tuple(u + k for u in self.upper))

    def shrink(self, k):
        return Box(tuple(l + k for l in self.lower), tuple(u - k for u in self.upper))


def is_integer_direction(theta):
    return (len(theta) >= 2 and all(isinstance(c, (int, np.integer)) for c in theta)
            and any(c != 0 for c in theta)
            and math.gcd(*(abs(int(c)) for c in theta)) == 1)


def normalize_direction(rho):
    """Divide an integer direction by the gcd of its components.

    The result is the coprime integer vector on the ray of ``rho``, so the
    set of levels whose hyperplane contains lattice points is exactly the
    integers.  A component that is not an integer raises TypeError.
    """
    if not all(isinstance(c, (int, np.integer)) for c in rho):
        raise TypeError(f"direction components must be integers, got {rho!r}")
    if len(rho) < 2:
        raise ValueError("d >= 2 required")
    g = math.gcd(*(int(c) for c in rho))
    if g == 0:
        raise ValueError("invalid direction: zero vector")
    return tuple(int(c) // g for c in rho)


def _extended_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def lattice_point_on_level(theta, n):
    """Some z in Z^d with z . theta = n, built from Bezout coefficients."""
    if not any(c != 0 for c in theta):
        raise ValueError("invalid direction: zero vector")
    d = len(theta)
    combo = [0] * d
    combo[0] = 1
    g = int(theta[0])
    for i in range(1, d):
        g2, a, b = _extended_gcd(g, int(theta[i]))
        combo = [a * c for c in combo]
        combo[i] = b
        g = g2
    if g < 0:
        g, combo = -g, [-c for c in combo]
    if n % g != 0:
        raise ValueError(f"level {n} not reachable for direction {theta}")
    k = n // g
    return tuple(k * c for c in combo)

