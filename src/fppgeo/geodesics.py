"""Passage times and unique geodesics on a box or a torus.

``solve`` runs one multi-source Dijkstra with distance zero on every target
vertex, which yields T(x, target) for the whole box together with the
successor forest (the union of all point-to-target geodesics under unique
weights).  A periodic ``Box`` is a torus, and ``solve`` serves it unchanged.
Only this module knows the layout of the row-major (n, 2d) neighbor table,
whose slots run -e1 < -e2 < ... < -ed < +ed < ... < +e1: ``_neighbor_table``
(which hashes a slab's every axis into the +e slots at once) and the strip
raise ``raise_edges`` write each axis's edges through the ``Box.edge_ends``
views of ``_slot_views``.  Dijkstra reads the table as a
fixed-degree CSR graph, and the successor of x is the first slot with the
least weight(x, y) + T(y), so ties break by that direction order: on a plain
box, the lexicographically smallest tied neighbor.  ``distance_field``, the
one maker of a ``DistanceField``, solves a table for a target (its mask read
off ``Box.levels``) and never writes it, so ``modification`` solves one table
before and after raising it.

``passage_times`` reads T(source, p) at a few points p without a forest:
its Dijkstra stops once every point is settled.  The stop is L, the largest
time at a point inside the hull (the box spanned by the source and the
points).  The hull's paths are paths of the box, so T_box(source, p) <=
T_hull(source, p) <= L at every point; this holds in floating point as well,
since rounding is monotone.  A Dijkstra that drops every relaxation past L
gives each vertex with T <= L the value of the unbounded one, so the points'
times are exact.  On a plain box the bounded search runs on a sub-box B, the
hull widened face by face (``MARGIN_FACTOR``).  B is certified when every
vertex v on a face of B that is not a face of the box has T_B(v) > max_p
T_B(p), counting an unsettled vertex as inf.  A box path to p that leaves B
first steps out of B from such a vertex v, along a prefix inside B whose sum
is at least T_B(v) and at most the path's (adding a positive weight in
floating point never lowers a sum), so it costs more than T_B(p), and
T_box(p) <= T_B(p) since B's paths are box paths.  Then every point's time
in B is its time in the box.  Otherwise each face that holds a vertex at or
below that bound moves out to the box face and the search runs again, at
most 2d more times.  A torus has no faces to certify, and a flat hull (one
vertex thick along some axis) has the times of a lattice of fewer
dimensions, so far above the box's that its margins would fail: both search
the whole box.

``DistanceField`` is the only record of a successor forest: the geodesic
graphs of ``geodesic_graph`` and the torus forests of ``analysis`` are
distance fields.  A field holds no weight environment, so it cannot name
weights it was not solved with.  ``fold_chains`` (a reduction along every
successor chain by pointer doubling) is, with ``DistanceField.generations``,
the traversal core of the forest.  A field derives its generations on first
read, from one breadth-first pass down the ``reversed_forest`` (the CSR
matrix of the edges succ -> child); ``modification`` searches the same
matrix from a single root.  ``DistanceField.hops`` stays a pointer-doubling
fold on purpose: the two traversals are independent, so each checks the
other (the backward-cluster sizes from the generations sum to the chain
lengths from the hops).  The forest statistics, the forward paths and the
``graph.csv`` writer are in ``geodesic_graph``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .lattice import Box, is_integer_direction


@dataclass(frozen=True)
class HyperplaneTarget:
    """Target hyperplane {z : z . direction = level}.

    ``exact_lattice`` mode takes an integer direction and integer level and
    targets the lattice points on the hyperplane.  ``halfspace_frontier``
    takes real (direction, level) and targets the innermost lattice layer of
    the upper halfspace.
    """

    direction: tuple
    level: float
    mode: str = "exact_lattice"

    def __post_init__(self):
        if self.mode not in ("exact_lattice", "halfspace_frontier"):
            raise ValueError(f"unknown target mode {self.mode!r}")
        if self.mode == "exact_lattice":
            theta = tuple(int(c) for c in self.direction)
            if not is_integer_direction(theta):
                raise ValueError("exact_lattice requires a coprime integer direction")
            if float(self.level) != int(self.level):
                raise ValueError("exact_lattice requires an integer level")
            object.__setattr__(self, "direction", theta)
            object.__setattr__(self, "level", int(self.level))
        else:
            object.__setattr__(self, "direction", tuple(float(c) for c in self.direction))
            object.__setattr__(self, "level", float(self.level))
            if all(c == 0.0 for c in self.direction):
                raise ValueError("direction must be nonzero")


def target_mask(target, box):
    """Boolean mask over the box vertices of a ``HyperplaneTarget``.

    On a periodic box an ``exact_lattice`` level is a wrapped level (see
    ``Box.levels``): in [0, gcd_i(theta_i L_i)) on a torus from the origin.
    """
    if target.mode == "exact_lattice":
        return box.levels(target.direction) == target.level
    dirs = np.asarray(target.direction, dtype=np.float64)
    dots = box.coords() @ dirs      # a float matmul: a sum over the sides can round otherwise
    step = np.abs(dirs).max()
    return (dots >= target.level) & (dots - step < target.level)


@dataclass
class DistanceField:
    """Exact within-box passage times to a target, plus successor forest.

    The forest has one optional out-edge per vertex, to ``succ`` (-1 on
    target vertices and wherever a chain was cut).  ``generations`` are
    derived from ``succ`` on first read and cached.  A field names no
    weight environment: the weights it was solved with may be hashed ones
    or a raise of them (``modification.run_modification``).
    """

    box: Box
    target: object
    T: np.ndarray
    succ: np.ndarray
    target_mask: np.ndarray

    def __post_init__(self):
        self._gens = None

    @property
    def n_vertices(self):
        return self.box.n_vertices

    @property
    def n_edges(self):
        return int((self.succ >= 0).sum())

    def in_degrees(self):
        """Number of out-edges into each vertex."""
        return np.bincount(self.succ[self.succ >= 0], minlength=self.n_vertices)

    def hops(self):
        """Number of out-edges from each vertex to its root."""
        return fold_chains(self.succ, (self.succ >= 0).astype(np.int64), np.add)

    def generations(self):
        """Vertex index arrays by hop count, built once per field.

        Generation 0 holds the roots, and succ maps generation k + 1 into k.
        One breadth-first search from a vertex n above every root lists the
        vertices level by level, so inside a generation the vertices come in
        breadth-first order, not in index order; every sweep over them is
        order-free.  A vertex that the search never reaches sits on a cycle
        or on a chain into one, and that raises ValueError.
        """
        if self._gens is None:
            n = self.n_vertices
            tree = reversed_forest(self.succ)
            order = breadth_first_order(tree, n, return_predecessors=False)
            if len(order) != n + 1:
                raise ValueError("successor cycle")
            # the children of order[:i + 1] are order[1:][:reach[i]], so generation
            # k + 1 ends where the children of generation k (and of those before) do
            reach = np.cumsum(np.diff(tree.indptr)[order])
            ends = [0]
            while ends[-1] < n:
                ends.append(int(reach[ends[-1]]))
            # intp indices: the sweeps' ufunc.at calls take them without a cast
            self._gens = np.split(order[1:].astype(np.intp), ends[1:-1])
        return self._gens


def reversed_forest(succ):
    """The forest of ``succ`` turned around, as an (n + 1)-square CSR matrix:
    row x lists the vertices whose successor is x, and row n, above every
    root, lists the roots.  A breadth-first search from a row visits the
    vertices whose chains run through it."""
    n = len(succ)
    up = np.where(succ < 0, n, succ).astype(np.int32 if n < 2 ** 31 - 1 else np.int64)
    # row x holds the parent of x, so the rows of the transpose list the children
    indptr = np.minimum(np.arange(n + 2, dtype=up.dtype), n)     # one entry per row x < n
    return csr_matrix((np.ones(n), up, indptr), shape=(n + 1, n + 1)).T.tocsr()


def fold_chains(succ, seed, op):
    """Reduce ``seed`` with the associative binary op ``op`` over each forward chain.

    By pointer doubling, entry i of the result is op over seed at i, succ[i],
    succ[succ[i]], ... up to the root of i (the first vertex with succ = -1).
    Every chain of a forest ends within ``len(succ).bit_length()`` doublings,
    so a chain still open after them runs into a cycle and raises ValueError.
    """
    out = seed.copy()
    anc = succ.copy()
    for _ in range(len(succ).bit_length() + 1):
        valid = np.flatnonzero(anc >= 0)
        if valid.size == 0:
            return out
        parents = anc[valid]
        out[valid] = op(out[valid], out[parents])
        anc[valid] = anc[parents]
    raise ValueError("successor cycle")


# The margin of a face F of the hull, in steps, in the sub-box of ``passage_times``:
# k_F = ceil(MARGIN_FACTOR (L - min_F T_hull) s / L) + 1, where s is the farthest
# l-inf reach of a point from the source, so L / s is the hull's mean time per
# step.  Past F a path has at most L - min_F T_hull to spend, but the lightest
# edges out there run well below the mean, and a face that fails the certificate
# costs a whole search more; twice the mean's reach left no retry at r = 15 in
# 3-d.  The factor sets only how much is hashed and searched, never a time: the
# certificate decides every time.
MARGIN_FACTOR = 2

# edges of one hashing slab, and table entries of one successor block: bounds
# the temporaries of a table build or a successor pass, whatever the box
SLAB_EDGES = 1 << 15


def _slot_views(box, a, axis):
    """The +e_axis slot column of the (n, 2d) table array ``a`` at the tails and its
    -e_axis column at the heads, laid out as the grid of tails: of the plain box's
    edges (the ``Box.edge_ends`` views; a torus reads its plain twin), then of the
    last layer to the first (a torus's wrap edges; a plain box's missing neighbors)."""
    up, down = a[:, a.shape[1] - 1 - axis], a[:, axis]
    plain, lead = Box(box.lower, box.upper) if box.periodic else box, (slice(None),) * axis
    return ((plain.edge_ends(axis, up)[0], plain.edge_ends(axis, down)[1]),
            (up.reshape(box.shape)[lead + (slice(-1, None),)],
             down.reshape(box.shape)[lead + (slice(1),)]))


def _neighbor_table(env, box):
    """Row-major (n, 2d) neighbor indices and edge weights of ``box`` under ``env``.

    Slots run -e1 < ... < -ed < +ed < ... < +e1; a missing neighbor is the
    vertex itself with weight inf, and indices are int32 below 2**31 entries.
    The edges (u, u + e_axis) of every vertex u and every axis are hashed in
    one ``env.edge_weights`` call per slab of about ``SLAB_EDGES`` edges along
    the first axis, the axis one more dimension of the open grid (``edge_ids``),
    and written, once checked, into the +e slots; the -e slots copy them through
    ``_slot_views``.  A plain box discards the last layer along each axis (it
    has no neighbor there), and on a torus that layer is the wrap edges.
    Raises ValueError on a dimension mismatch or a kept weight that is not > 0
    and finite.
    """
    if env.dim != box.dim:
        raise ValueError(f"a {env.dim}-d environment on a {box.dim}-d box")
    n, slots = box.n_vertices, 2 * box.dim
    nbr = np.empty((n, slots), dtype=np.int32 if n * slots < 2 ** 31 else np.int64)
    wt = np.empty((n, slots))
    own = np.broadcast_to(np.arange(n, dtype=nbr.dtype)[:, None], nbr.shape)
    sides = [np.arange(l, u + 1, dtype=np.int64) for l, u in zip(box.lower, box.upper)]
    ups = [wt[:, slots - 1 - axis].reshape(box.shape) for axis in range(box.dim)]
    views = [_slot_views(box, wt, axis) for axis in range(box.dim)]
    rows = max(1, SLAB_EDGES // max(1, box.dim * math.prod(box.shape[1:])))
    for r0 in range(0, box.shape[0], rows):
        axes, *grid = np.ix_(range(box.dim), sides[0][r0:r0 + rows], *sides[1:])
        w = env.edge_weights(tuple(grid), axes).reshape((box.dim, -1) + box.shape[1:])
        for axis, (up, ((tails, heads), _), wa) in enumerate(zip(ups, views, w)):
            # the layers along the axis that keep their weight: the slab's first row is r0
            kept = wa if box.periodic else wa[(slice(None),) * axis + (
                slice(box.shape[axis] - 1 - (r0 if axis == 0 else 0)),)]
            # NaN and inf fail too: either can leave a vertex that is its own successor
            if not np.all((kept > 0.0) & (kept < np.inf)):
                raise ValueError("nonpositive, infinite or NaN edge weight encountered; "
                                 "weights must be > 0 and finite")
            up[r0:r0 + rows] = wa
            heads[r0:r0 + rows] = tails[r0:r0 + rows]       # rows this slab has written
    for axis, (_, (up_end, down_end)) in enumerate(views):
        if box.periodic:
            down_end[...] = up_end
        else:
            up_end[...] = down_end[...] = np.inf
        (up, down), (up_end, down_end) = _slot_views(box, nbr, axis)
        (tails, heads), (last, first) = _slot_views(box, own, axis)
        up[...], down[...] = heads, tails
        up_end[...], down_end[...] = (first, last) if box.periodic else (last, first)
    return nbr, wt


def _shortest_paths(table, sources, limit=np.inf):
    """T(x) = min over the vertex indices ``sources`` of the passage time over the
    neighbor table ``(nbr, wt)``, inf past ``limit``.  Every vertex with
    T <= ``limit`` gets the value of an unbounded search, because a
    relaxation past the limit is never the minimum at such a vertex."""
    nbr, wt = table
    n = len(nbr)
    indptr = np.arange(0, nbr.size + 1, nbr.shape[1], dtype=nbr.dtype)
    graph = csr_matrix((wt.ravel(), nbr.ravel(), indptr), shape=(n, n))
    return dijkstra(graph, directed=True, indices=sources, min_only=True, limit=limit)


def successor_forest(box, table, tmask):
    """Passage times to the target mask and the successor of every vertex of ``box``.

    ``table`` is the neighbor table ``(nbr, wt)`` of ``box`` and ``tmask`` a
    mask over the vertices in C order; the table is read, in row blocks, and
    never written.  Returns ``(T, succ)`` with succ = -1 on target vertices.
    An empty mask raises ``ParameterError`` named ``level``.
    """
    if not tmask.any():
        where = f"on torus {box.shape}" if box.periodic else f"inside box {box.lower}..{box.upper}"
        raise ParameterError("level", f"no target vertex {where}")
    nbr, wt = table
    T = _shortest_paths(table, np.flatnonzero(tmask))
    succ = np.empty(box.n_vertices, dtype=np.int64)
    rows = max(1, SLAB_EDGES // nbr.shape[1])
    for r0 in range(0, len(succ), rows):
        block = slice(r0, r0 + rows)
        cost = T[nbr[block]]
        cost += wt[block]       # weight(x, y) + T(y) per slot
        least = cost.argmin(axis=1) + np.arange(0, cost.size, cost.shape[1])    # flat slots
        succ[block] = nbr[block].ravel()[least]
    succ[tmask] = -1
    return T, succ


def distance_field(box, table, target):
    """The ``DistanceField`` of ``target`` on the neighbor table ``table`` of ``box``."""
    tmask = target_mask(target, box)
    return DistanceField(box, target, *successor_forest(box, table, tmask), tmask)


def raise_edges(box, table, masks, lam):
    """Raise to max(w, lam), in place, both slots (+e_axis at the tail, -e_axis at the
    head) of the edges that ``masks`` select, one mask per axis over its grid of tails."""
    for axis, mask in enumerate(masks):
        for raised in _slot_views(box, table[1], axis)[0]:
            np.maximum(raised, lam, out=raised, where=mask)


class ParameterError(ValueError):
    """A parameter is out of its range; ``name`` names the parameter."""

    def __init__(self, name, message):
        super().__init__(name, message)     # as args, so that the error pickles
        self.name, self.message = name, message

    def __str__(self):
        return f"{self.name}: {self.message}"


def solve(env, box, target):
    """Shortest-path distances from every box vertex to the target set.

    Paths are constrained to the box.  A target that does not intersect the
    box raises ``ParameterError`` named ``level``.  Raises ValueError if the
    environment and the box differ in dimension, or if any edge weight is
    not strictly positive and finite (zero-weight regimes are unsupported).
    """
    return distance_field(box, _neighbor_table(env, box), target)


def passage_times(env, box, source, points):
    """Passage times T(source, p) inside ``box`` for the rows p of ``points``.

    The hull of the source and the points is solved first, without a limit;
    its largest time at a point bounds the Dijkstra in ``box`` (see the module
    docstring), and no successor forest is built.  On a plain box around a
    hull that is not flat, that search runs on a sub-box, the hull with a
    margin on each face read off the hull's times (``MARGIN_FACTOR``), and
    widened until it is certified.
    """
    points = np.asarray(points, dtype=np.int64)
    idx, start = box.indices_of(points), box.index_of(source)
    hull = Box.hull(np.vstack([source, points]))
    T = _shortest_paths(_neighbor_table(env, hull), hull.index_of(source))
    if hull == box:
        return T[idx]
    limit = T[hull.indices_of(points)].max(initial=0.0)
    if box.periodic or min(hull.shape) == 1:      # see the module docstring
        return _shortest_paths(_neighbor_table(env, box), start, limit)[idx]
    T, steps = T.reshape(hull.shape), np.abs(points - source).max()

    def margin(axis, end):
        # every face holds the source or a point, so its least time is at most L > 0
        slack = limit - T.take(end, axis=axis).min()
        return 1 + math.ceil(MARGIN_FACTOR * slack * steps / limit)

    lower = [max(b, h - margin(a, 0)) for a, (b, h) in enumerate(zip(box.lower, hull.lower))]
    upper = [min(b, h + margin(a, -1)) for a, (b, h) in enumerate(zip(box.upper, hull.upper))]
    faces = [(lower, box.lower, 0), (upper, box.upper, -1)]
    while True:
        sub = Box(lower, upper)
        T = _shortest_paths(_neighbor_table(env, sub), sub.index_of(source), limit)
        times = T[sub.indices_of(points)]
        T, reach = T.reshape(sub.shape), times.max()
        hit = [(side, bound, axis) for side, bound, end in faces for axis in range(box.dim)
               if side[axis] != bound[axis] and (T.take(end, axis=axis) <= reach).any()]
        if not hit:
            return times
        for side, bound, axis in hit:      # at most 2d rounds: each moves a face to the box's
            side[axis] = bound[axis]
