"""Strip edge-modification experiment, run in one pass by ``run_modification``.

1. Every parameter is checked before the first solve; one out of its range
   raises the shared ``geodesics.ParameterError``, which names it.
2. On the original geodesic graph, the protected vertices (whose geodesics
   the raise keeps), their forward orbit and the forward paths of y and of
   the marked vertex xi_N are computed once each.  The event check reads the
   two paths and the orbit.  The eligible edges are the strip edges off the
   kept mask, the orbit and the path of y: one boolean mask per axis over
   that axis's grid of tails (``Box.edge_ends``), from which the outcome's
   ``edge_set`` is read when it is asked for.
3. The box is hashed once, into one neighbor table (``geodesics``), which
   is solved, raised to max(w, lambda) in place on the eligible edges by
   ``geodesics.raise_edges`` through the masks, and solved again.  On the
   raised graph no geodesic started at or behind the zero-level hyperplane
   may reach the forward path of xi_N.  In a forest two forward paths meet
   exactly when they end at one root, so the check is one breadth-first
   search down the tree of xi_N's root; a failure names its witness and its
   strip crossing.

The strip and the protected region are decided with exact integer
arithmetic on ``Box.levels`` alone: the coordinate z_i of a vertex is its
level under e_i.  A pass over the vertices gives the strip, and another the
protected tests at edge endpoints.  Only an edge crossing level 0 or N
strictly inside, at the rational parameter k / |theta_axis|, is tested
again, scaled by |theta_axis| to integers; no floating tolerance is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from .geodesic_graph import forward_orbit, forward_path
from .geodesics import (DistanceField, HyperplaneTarget, ParameterError, _neighbor_table,
                        distance_field, raise_edges, reversed_forest)
from .lattice import Box, is_integer_direction


@dataclass(frozen=True)
class StripSpec:
    """Geometry and margins of one modification experiment (``run_modification``
    checks the margins)."""

    theta: tuple
    N: int
    M: float
    M_prime: int
    epsilon: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(int(c) for c in self.theta))
        if not is_integer_direction(self.theta):
            raise ValueError("theta must be a coprime integer direction")
        if self.N < 1:
            raise ValueError("N >= 1 required")


@lru_cache(maxsize=16)
def protected_vertices(box, spec, xi_N):
    """In-box vertices incident to an edge meeting any protected-region condition,
    as a read-only, increasing int64 array of flat indices into ``box``.

    An edge is protected when a point of it (a) on level 0 lies at l1
    distance >= M' from the origin, (b) on level N lies at l1 distance >= M'
    from xi_N, or (c) in the slab 0 <= level <= N lies at distance >= M from
    the axis line.  Both distances are convex along the edge, so they peak at
    the ends of its part on level 0, level N or the slab: its endpoints, or
    where it crosses level 0 or N strictly inside.  One pass over the
    vertices tests the endpoints; a crossing, on an edge (u, u + e_axis) with
    s = |theta[axis]| > 0, is the point u + (k / s) e_axis, 0 < k < s, tested
    scaled by s.  Each test is an int64 comparison with an exact threshold.

    Pure geometry (independent of weights), so results are cached per
    (box, spec, xi_N); the array is read-only because the cache shares it.
    """
    theta, N = spec.theta, spec.N
    wide = box.expand(1)
    # points w of edges of `wide` have |w_j| <= reach, so the scaled points
    # p = s w (s <= max |theta_j|) give |p|^2 |theta|^2 <= bound and
    # (p . theta)^2 <= bound; the l1 sums and level offsets are smaller still
    reach = int(max(*map(abs, wide.lower + wide.upper), *map(abs, xi_N), N))
    bound = (len(theta) * max(map(abs, theta)) ** 2 * reach) ** 2
    if bound >= 2 ** 63:
        raise ValueError(f"protected-region geometry exceeds int64: box "
                         f"{box.lower}..{box.upper}, theta {spec.theta}, N {N}")
    nsq = sum(t * t for t in theta)
    l1_far, dist_far = Fraction(spec.M_prime), Fraction(spec.M) ** 2 * nsq   # exact, at s = 1

    def far(p, dots, s):
        """Mask of the points p / s meeting (a), (b) or (c), for p given by its
        int64 columns and its levels dots = p . theta."""
        l1_min = math.ceil(l1_far * s)
        l1, l1_xi = sum(np.abs(c) for c in p), sum(np.abs(c - s * x) for c, x in zip(p, xi_N))
        dist = sum(c * c for c in p) * nsq - dots ** 2
        return (((dots == 0) & (l1 >= l1_min)) | ((dots == s * N) & (l1_xi >= l1_min))
                | ((dots >= 0) & (dots <= s * N) & (dist >= math.ceil(dist_far * s * s))))

    dots = wide.levels(theta)
    far_vertex = far(list(map(wide.levels, np.eye(wide.dim, dtype=np.int64))), dots, 1)
    # an edge of `wide` off the box marks only vertices outside the box
    hit = np.zeros(wide.n_vertices, dtype=bool)
    for axis, step in enumerate(theta):
        meets = np.logical_or(*wide.edge_ends(axis, far_vertex))
        a_u, s = wide.edge_ends(axis, dots)[0], abs(step)
        for level in (0, N) if s > 1 else ():   # a crossing strictly inside has 0 < k < s
            k = (level - a_u) * np.sign(step)           # level a_u + k step / s, at t = k / s
            cross = (k > 0) & (k < s)
            # on the grid of tails, np.nonzero positions are coordinates minus the corner
            p = [s * (i + c) for i, c in zip(np.nonzero(cross), wide.lower)]
            p[axis] = p[axis] + k[cross]
            meets[cross] |= far(p, s * level, s)
        for end in wide.edge_ends(axis, hit):
            end |= meets
    # the interior of `wide` is `box`, in the same C order
    idx = np.flatnonzero(hit.reshape(wide.shape)[(slice(1, -1),) * wide.dim])
    idx.setflags(write=False)
    return idx


def _eligible_masks(g, spec, kept):
    """Per axis, the mask of the eligible edges (u, u + e_axis) over the grid of
    their tails u (``Box.edge_ends``): both ends in the strip, and neither end
    a kept vertex whose out-edge is this edge.

    The strip holds the vertices z with level in [0, N] within M of the axis
    line: |z|^2 |theta|^2 - (z . theta)^2, an integer, is at most the floor of
    the exact rational M^2 |theta|^2.
    """
    box = g.box
    dots = box.levels(spec.theta)
    nsq = sum(t * t for t in spec.theta)
    dist = sum(c * c for c in map(box.levels, np.eye(box.dim, dtype=np.int64))) * nsq - dots ** 2
    strip = (dots >= 0) & (dots <= spec.N) & (dist <= math.floor(Fraction(spec.M) ** 2 * nsq))
    kept_succ = np.where(kept, g.succ, -1)      # the out-edge of a kept vertex, else none
    index = np.arange(box.n_vertices)
    masks = []
    for axis in range(box.dim):
        (tails, heads), (tail_in, head_in), (tail_succ, head_succ) = (
            box.edge_ends(axis, a) for a in (index, strip, kept_succ))
        masks.append(tail_in & head_in & (tail_succ != heads) & (head_succ != tails))
    return masks


def _edge_rows(box, masks):
    """(m, 2, d) int64 (tail, head) rows of the edges that ``masks`` (as from
    ``_eligible_masks``) select: axis by axis, each in the C order of its mask.
    A mask's positions are its tails' coordinates minus the lower corner."""
    tails = np.concatenate([np.argwhere(mask) for mask in masks]) + box.lower
    steps = np.repeat(np.eye(box.dim, dtype=np.int64), [m.sum() for m in masks], axis=0)
    return np.stack([tails, tails + steps], axis=1)


def eligible_edges(g, spec, kept):
    """The finite edge set to be raised: the strip edges off every kept geodesic.

    ``kept`` masks the vertices whose out-edges stay as they are: the forward
    orbit of the protected vertices and the forward path of y.  Returns an
    (m, 2, d) int64 array of (tail, head) rows, head = tail + e_axis: axis by
    axis, each axis in the C order of its grid of tails (``Box.edge_ends``).
    This is the rows view of the per-axis masks that ``run_modification``
    raises through; the run reads the masks themselves.
    """
    return _edge_rows(g.box, _eligible_masks(g, spec, kept))


@dataclass
class EventReport:
    """Per-condition verdicts for the pre-modification event, with witnesses."""

    exit_and_stay: bool          # forward path of xi_N leaves the slab for good
    approach_but_disjoint: bool  # path of y comes close to xi_N yet never meets its path
    speed_bound: bool            # passage times along the y path beat (S - delta) l1
    protected_disjoint: bool     # no protected geodesic meets the path of xi_N
    witnesses: dict

    @property
    def passed(self):
        return (self.exit_and_stay and self.approach_but_disjoint
                and self.speed_bound and self.protected_disjoint)


def check_event_A2prime(g, spec, y_path, xi_path, orbit, S):
    """Evaluate the event conditions on the finite graph, from the forward
    paths of y and xi_N (vertex indices), the mask of the protected orbit and
    the support supremum S of the weights (inf: no speed bound)."""
    box = g.box
    y_points = np.stack(np.unravel_index(y_path, box.shape), axis=1) + box.lower
    y, xi = y_points[0], np.asarray(box.vertex_at(xi_path[0]))
    wit = {}

    bad = np.flatnonzero(box.levels(spec.theta)[xi_path[1:]] <= spec.N)
    exit_and_stay = bad.size == 0
    if not exit_and_stay:
        wit["slab_reentry"] = box.vertex_at(xi_path[1 + bad[0]])

    near = np.abs(y_points - xi).sum(axis=1) <= spec.epsilon * np.abs(xi).sum()
    meets = y_path[np.bincount(xi_path, minlength=box.n_vertices)[y_path] > 0]
    approach_but_disjoint = bool(near.any()) and meets.size == 0
    if meets.size:
        wit["y_meets_xi_path"] = box.vertex_at(meets[0])
    if not near.any():
        wit["y_never_near"] = True

    speed_bound = True                              # vacuous in unbounded mode
    if not math.isinf(S):
        Ty = g.T[y_path[0]] - g.T[y_path]           # passage time from y along its path
        l1_from_y = np.abs(y_points - y).sum(axis=1)
        viol = near & (l1_from_y >= spec.M_prime) & (Ty > l1_from_y * (S - spec.delta))
        speed_bound = not viol.any()
        if not speed_bound:
            wit["speed_violation"] = box.vertex_at(y_path[np.flatnonzero(viol)[0]])

    inter = xi_path[orbit[xi_path]]
    protected_disjoint = inter.size == 0
    if inter.size:
        wit["protected_meets_xi_path"] = box.vertex_at(inter[0])

    return EventReport(exit_and_stay, approach_but_disjoint, speed_bound, protected_disjoint,
                       witnesses=wit)


@dataclass
class SeveringVerdict:
    severed: bool
    witness: tuple | None          # a z at level <= 0 whose path meets the xi path
    crossing: tuple | None         # (v1, v2) vertices bracketing the strip crossing
    crossing_time: float | None
    bound_value: float | None      # (S - 3 delta / 4) |xi|_1 when S is finite


def violating_sources(g_mod, spec, xi_N):
    """Sorted int64 indices of the vertices at level <= 0 whose forward path meets
    the path of xi_N.

    In a forest two forward paths meet exactly when they end at one root, so
    these are the vertices at level <= 0 of the tree of the root of xi_N: one
    breadth-first search down the ``reversed_forest``.  A cycle on the path
    of xi_N raises ValueError (``forward_path``); a cycle off it is never
    reached, and changes nothing.
    """
    root = forward_path(g_mod, xi_N)[-1]
    tree = breadth_first_order(reversed_forest(g_mod.succ), root, return_predecessors=False)
    return np.sort(tree[g_mod.box.levels(spec.theta)[tree] <= 0]).astype(np.int64)


def _strip_crossing(dots, N):
    """Path positions (k1, k2) of the strip crossing, given the path's levels.

    A path attains a level at point k, or in segment (k, k + 1) crossing it
    strictly.  k1 is the last attainment of level 0 (a segment's far end),
    else 0; k2 the first of level N from k1 on (a segment's near end), else
    the last point.
    """
    lo, hi = np.minimum(dots[:-1], dots[1:]), np.maximum(dots[:-1], dots[1:])

    def attained(level):
        inside = np.append((lo < level) & (level < hi), False)
        return np.flatnonzero((dots == level) | inside), inside

    at_0, inside_0 = attained(0)
    k1 = int(at_0[-1] + inside_0[at_0[-1]]) if at_0.size else 0
    at_N, _ = attained(N)
    at_N = at_N[at_N >= k1]
    return k1, int(at_N[0]) if at_N.size else len(dots) - 1


def verify_severing(g_mod, spec, xi_N, S):
    """True iff no z at level <= 0 has a forward path meeting the path of xi_N.

    On failure, reports the lexicographically smallest witness z together
    with its strip-crossing segment (v1, v2) and that segment's passage time
    for comparison against the severing bound, which needs a finite support
    supremum S.
    """
    box = g_mod.box
    bound_value = None if math.isinf(S) else (S - 0.75 * spec.delta) * sum(map(abs, xi_N))

    violators = violating_sources(g_mod, spec, xi_N)
    if violators.size == 0:
        return SeveringVerdict(severed=True, witness=None, crossing=None,
                               crossing_time=None, bound_value=bound_value)

    witness = box.vertex_at(violators[0])
    path = forward_path(g_mod, witness)
    v1, v2 = (int(path[k]) for k in _strip_crossing(box.levels(spec.theta)[path], spec.N))
    return SeveringVerdict(severed=False, witness=witness,
                           crossing=(box.vertex_at(v1), box.vertex_at(v2)),
                           crossing_time=float(g_mod.T[v1] - g_mod.T[v2]),
                           bound_value=bound_value)


@dataclass
class ModificationOutcome:
    masks: list                    # per axis, the raised edges over their grid of tails
    lam: float
    event: EventReport
    verdict: SeveringVerdict
    g: DistanceField               # geodesic graph before the modification
    g_mod: DistanceField           # and after it

    @property
    def severed(self):
        return self.verdict.severed

    @property
    def edge_set(self):
        """(m, 2, d) rows (tail, head) of the raised edges, as ``eligible_edges`` gives them."""
        return _edge_rows(self.g.box, self.masks)


def _checked_lambda(env, spec, y, xi, mode, lam):
    """The lambda of the raise; ``ParameterError`` on the first parameter out of
    its range (the weight distribution is named ``distribution``)."""
    if not 0 < spec.M < math.inf:
        need = "finite" if spec.M > 0 else "positive"
        raise ParameterError("M", f"M = {spec.M:g} at N = {spec.N} must be {need}")
    for name in ("M_prime", "epsilon", "delta"):
        if not getattr(spec, name) > 0:
            raise ParameterError(name, f"must be positive, got {getattr(spec, name)}")
    for name, point, level in (("y", y, 0), ("xi", xi, spec.N)):
        if np.dot(point, spec.theta) != level:
            raise ParameterError(name, f"{point} is not on level {level} of theta {spec.theta}")
    if sum(map(abs, y)) > spec.M_prime:
        raise ParameterError("y", f"{y} has l1 norm above M_prime = {spec.M_prime}")
    if mode == "unbounded":
        if lam is None:
            raise ParameterError("lam", "unbounded mode needs a lambda")
        if not 0 <= lam < math.inf:
            raise ParameterError("lam", f"must be finite and nonnegative, got {lam}")
        return lam
    if mode != "bounded":
        raise ParameterError("mode", f"unknown mode {mode!r}")
    dist, delta = env.spec, spec.delta
    S = dist.sup_support()
    if math.isinf(S):
        raise ParameterError("distribution",
                             f"bounded mode needs a finite support, got {dist.label()}")
    if dist.mean() > S - 2 * delta:
        raise ParameterError("delta", f"{delta:g} is too large for bounded mode: the mean "
                                      f"{dist.mean():g} exceeds S - 2 delta = {S - 2 * delta:g}")
    return S - delta / 2


def run_modification(env, spec, y, xi_N, mode="bounded", lam=None):
    """Full experiment: check, solve, raise the eligible edges, solve again, verify.

    ``bounded`` mode uses lam = S - delta/2 and requires a finite support
    supremum with mean t_e <= S - 2 delta; ``unbounded`` mode takes a caller
    lambda.  Every parameter is checked before the first solve.

    The geometry follows from (theta, N, M): the target is the level
    alpha = N + max(N // 2, 8), and the box spans [-max(8, N // 3), alpha]
    along theta's main axis (its largest |theta_i|) and ceil(M) + 4 on each
    side of 0 along every other axis, widened to hold y and xi_N.
    """
    y, xi = (tuple(int(c) for c in p) for p in (y, xi_N))
    lam = _checked_lambda(env, spec, y, xi, mode, lam)
    alpha = spec.N + max(spec.N // 2, 8)
    margin = int(math.ceil(spec.M)) + 4
    lo, hi = [-margin] * env.dim, [margin] * env.dim
    axis = max(range(env.dim), key=lambda i: abs(spec.theta[i]))     # the first largest
    lo[axis] = -max(8, spec.N // 3)
    hi[axis] = alpha
    # off-axis theta can put y or xi_N outside the slab around the main axis
    box = Box(tuple(map(min, lo, y, xi)), tuple(map(max, hi, y, xi)))

    table = _neighbor_table(env, box)
    g = distance_field(box, table, HyperplaneTarget(spec.theta, alpha))
    orbit = forward_orbit(g, protected_vertices(box, spec, xi))
    y_path, xi_path = forward_path(g, y), forward_path(g, xi)
    kept = orbit.copy()
    kept[y_path] = True
    masks = _eligible_masks(g, spec, kept)
    S = env.spec.sup_support()
    event = check_event_A2prime(g, spec, y_path, xi_path, orbit, S)

    raise_edges(box, table, masks, lam)
    g_mod = distance_field(box, table, g.target)
    verdict = verify_severing(g_mod, spec, xi, S)

    return ModificationOutcome(masks=masks, lam=float(lam), event=event, verdict=verdict,
                               g=g, g_mod=g_mod)
