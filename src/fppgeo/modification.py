"""Strip edge-modification experiment.

Builds the slab-and-cylinder strip around the direction axis, enumerates
the protected vertices whose geodesics must be preserved, raises weights on
the remaining strip edges, and verifies that no geodesic started at or
behind the zero-level hyperplane reaches the forward path of the marked
vertex on the far side of the strip.  ``run_modification`` runs the whole
experiment: the event check on the original graph, the raise, and the
severing check on the modified graph, whose failures name a witness.

Real-point conditions on embedded edges are decided with exact integer
arithmetic: a unit segment crosses an integer-normal hyperplane at a
rational parameter k / |step|, so scaling by |step| turns every test into an
int64 comparison and no floating tolerance is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .environment import with_overrides
from .geodesic_graph import build_graph, forward_orbit, forward_path
from .geodesics import DistanceField, HyperplaneTarget, fold_chains, solve
from .lattice import Box, is_integer_direction


@dataclass(frozen=True)
class StripSpec:
    """Geometry and margins of one modification experiment."""

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
        if not (self.M > 0 and self.M_prime > 0 and self.epsilon > 0 and self.delta > 0):
            raise ValueError("M, M_prime, epsilon, delta must all be positive")


def in_strip(spec, coords):
    """Mask of points inside the strip: level in [0, N], within M of the axis line."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    theta = np.asarray(spec.theta, dtype=np.int64)
    dots = coords @ theta
    nsq = int(theta @ theta)
    # squared distance to the line R*theta, times |theta|^2 (integer exact)
    dist_sq_scaled = (coords ** 2).sum(axis=1) * nsq - dots ** 2
    return (dots >= 0) & (dots <= spec.N) & (dist_sq_scaled <= spec.M ** 2 * nsq)


def _level_interval(a_u, step, s, low, high):
    """Ends k_lo, k_hi (t = k / s) of the part of each edge (u, u + e_axis) with
    level in [low, high], where a_u = u . theta, and where that part is nonempty."""
    if step == 0:
        return 0, 1, (a_u >= low) & (a_u <= high)
    k0, k1 = (np.sign(step) * (level - a_u) for level in (low, high))
    kmin, kmax = np.minimum(k0, k1), np.maximum(k0, k1)
    return np.clip(kmin, 0, s), np.clip(kmax, 0, s), (kmin <= s) & (kmax >= 0)


@lru_cache(maxsize=16)
def protected_vertices(box, spec, xi_N):
    """In-box vertices incident to an edge meeting any protected-region condition.

    An edge is protected when a point of it (a) on level 0 lies at l1
    distance >= M' from the origin, (b) on level N lies at l1 distance >= M'
    from xi_N, or (c) in the slab 0 <= level <= N lies at distance >= M from
    the axis line.  Both distances are convex along the edge, so only the
    ends of each level range are tested; scaled by s = max(|theta[axis]|, 1)
    those ends are integer points, and each test is an int64 comparison
    with an exact integer threshold.

    Pure geometry (independent of weights), so results are cached per
    (box, spec, xi_N).
    """
    xi = np.asarray(xi_N, dtype=np.int64)
    theta = np.asarray(spec.theta, dtype=np.int64)
    N = spec.N
    wide = box.expand(1)
    # points w of edges of `wide` have |w_j| <= reach, so the scaled points
    # p = s w (s <= max |theta_j|) give |p|^2 |theta|^2 <= bound and
    # (p . theta)^2 <= bound; the l1 sums and level offsets are smaller still
    reach = int(max(*map(abs, wide.lower + wide.upper), *map(abs, xi_N), N))
    bound = (len(theta) * int(np.abs(theta).max()) ** 2 * reach) ** 2
    if bound >= 2 ** 63:
        raise ValueError(f"protected-region geometry exceeds int64: box "
                         f"{box.lower}..{box.upper}, theta {spec.theta}, N {N}")
    nsq = int(theta @ theta)
    coords = wide.coords()
    dots = coords @ theta
    inside = ((coords >= box.lower) & (coords <= box.upper)).all(axis=1)
    hit = np.zeros(wide.n_vertices, dtype=bool)
    for axis, (tails, heads) in enumerate(wide.axis_edges()):
        near = inside[tails] | inside[heads]
        tails, heads = tails[near], heads[near]
        step = int(theta[axis])
        s = max(abs(step), 1)
        l1_min = math.ceil(Fraction(spec.M_prime) * s)
        dist_min = math.ceil(Fraction(spec.M) ** 2 * nsq * s * s)
        conditions = (   # level range, and the test on scaled points p
            (0, 0, lambda p: np.abs(p).sum(axis=1) >= l1_min),
            (N, N, lambda p: np.abs(p - s * xi).sum(axis=1) >= l1_min),
            (0, N, lambda p: (p * p).sum(axis=1) * nsq - (p @ theta) ** 2 >= dist_min))
        meets = np.zeros(len(tails), dtype=bool)
        for low, high, far in conditions:
            lo, hi, ok = _level_interval(dots[tails], step, s, low, high)
            for k in (lo, hi):
                p = coords[tails] * s
                p[:, axis] += k
                meets |= ok & far(p)
        hit[tails[meets]] = hit[heads[meets]] = True
    # wide.coords() is in lexicographic order, so the result is sorted
    return tuple(tuple(z) for z in coords[hit & inside].tolist())


def eligible_edges(g, spec, y, protected):
    """The finite edge set to be raised: strip edges off every kept geodesic.

    Keeps (excludes from the result) every edge on the forward path of y
    and on the forward path of any protected vertex.  Returns an (m, 2, d)
    int64 array of (tail, head) rows, head = tail + e_axis, in lexicographic
    order of the rows.
    """
    box = g.box
    coords = box.coords()
    strip_mask = in_strip(spec, coords)
    sources = np.array([*protected, y], dtype=np.int64)
    sources = sources[((sources >= box.lower) & (sources <= box.upper)).all(axis=1)]
    keep = forward_orbit(g, box.indices_of(sources))
    kept_edge_tail = keep & (g.succ >= 0)

    rows = []
    for tails, heads in box.axis_edges():
        ok = strip_mask[tails] & strip_mask[heads]
        tails, heads = tails[ok], heads[ok]
        on_path = (kept_edge_tail[tails] & (g.succ[tails] == heads)) | \
                  (kept_edge_tail[heads] & (g.succ[heads] == tails))
        rows.append(np.stack([coords[tails[~on_path]], coords[heads[~on_path]]], axis=1))
    edges = np.concatenate(rows)
    # np.lexsort sorts by its last key first: tail coordinates, then head coordinates
    return edges[np.lexsort(edges.reshape(len(edges), -1).T[::-1])]


@dataclass
class EventReport:
    """Per-condition verdicts for the pre-modification event, with witnesses."""

    exit_and_stay: bool          # forward path of xi_N leaves the slab for good
    approach_but_disjoint: bool  # path of y comes close to xi_N yet never meets its path
    speed_bound: bool            # passage times along the y path beat (S - delta) l1
    protected_disjoint: bool     # no protected geodesic meets the path of xi_N
    speed_bound_global: bool     # same speed bound over the whole y path
    witnesses: dict

    @property
    def passed(self):
        return (self.exit_and_stay and self.approach_but_disjoint
                and self.speed_bound and self.protected_disjoint)


def check_event_A2prime(g, spec, y, xi_N):
    """Evaluate the event conditions on the finite graph."""
    theta = np.asarray(spec.theta, dtype=np.int64)
    y = tuple(int(c) for c in y)
    xi = tuple(int(c) for c in xi_N)
    if sum(c * t for c, t in zip(xi, spec.theta)) != spec.N:
        raise ValueError(f"xi_N must lie on level N={spec.N}")
    if sum(c * t for c, t in zip(y, spec.theta)) != 0:
        raise ValueError("y must lie on level 0")
    if sum(abs(c) for c in y) > spec.M_prime:
        raise ValueError("y violates |y|_1 <= M_prime")

    box = g.box
    coords = box.coords()
    wit = {}

    xi_path = forward_path(g, xi)
    dots_xi = coords[xi_path] @ theta
    bad = np.flatnonzero(dots_xi[1:] <= spec.N)
    exit_and_stay = bad.size == 0
    if not exit_and_stay:
        wit["slab_reentry"] = box.vertex_at(int(xi_path[1 + bad[0]]))

    y_path = forward_path(g, y)
    y_dist_to_xi = np.abs(coords[y_path] - np.asarray(xi)).sum(axis=1)
    near = y_dist_to_xi <= spec.epsilon * sum(abs(c) for c in xi)
    meets = y_path[np.isin(y_path, xi_path)]
    approach_but_disjoint = bool(near.any()) and meets.size == 0
    if meets.size:
        wit["y_meets_xi_path"] = box.vertex_at(int(meets[0]))
    if not near.any():
        wit["y_never_near"] = True

    S = g.env.spec.sup_support()
    bound = S - spec.delta
    iy = box.index_of(y)
    Ty = g.T[iy] - g.T[y_path]      # passage time from y along its path
    l1_from_y = np.abs(coords[y_path] - np.asarray(y)).sum(axis=1)
    relevant = near & (l1_from_y >= spec.M_prime)
    speed_bound = True
    if math.isinf(S):
        speed_bound = True                           # vacuous in unbounded mode
    elif relevant.any():
        viol = relevant & (Ty > l1_from_y * bound)
        speed_bound = not viol.any()
        if not speed_bound:
            wit["speed_violation"] = box.vertex_at(int(y_path[np.flatnonzero(viol)[0]]))
    global_rel = l1_from_y >= spec.M_prime
    speed_bound_global = True
    if not math.isinf(S) and global_rel.any():
        speed_bound_global = not (global_rel & (Ty > l1_from_y * bound)).any()

    protected = np.array(protected_vertices(box, spec, xi), dtype=np.int64).reshape(-1, box.dim)
    orbit = forward_orbit(g, box.indices_of(protected))
    inter = xi_path[orbit[xi_path]]
    protected_disjoint = inter.size == 0
    if inter.size:
        wit["protected_meets_xi_path"] = box.vertex_at(int(inter[0]))

    return EventReport(exit_and_stay=exit_and_stay,
                       approach_but_disjoint=approach_but_disjoint,
                       speed_bound=speed_bound,
                       protected_disjoint=protected_disjoint,
                       speed_bound_global=speed_bound_global,
                       witnesses=wit)


@dataclass
class SeveringVerdict:
    severed: bool
    witness: tuple | None          # a z at level <= 0 whose path meets the xi path
    crossing: tuple | None         # (v1, v2) vertices bracketing the strip crossing
    crossing_time: float | None
    bound_value: float | None      # (S - 3 delta / 4) |xi|_1 when S is finite


def _last_attainment(dots, level):
    """Index pair (segment start, is_vertex) of the last path point on a level."""
    last = None
    for k in range(len(dots)):
        if dots[k] == level:
            last = (k, True)
        if k + 1 < len(dots) and min(dots[k], dots[k + 1]) < level < max(dots[k], dots[k + 1]):
            last = (k, False)
    return last


def _first_attainment(dots, level, start):
    for k in range(start, len(dots)):
        if dots[k] == level:
            return (k, True)
        if k + 1 < len(dots) and min(dots[k], dots[k + 1]) < level < max(dots[k], dots[k + 1]):
            return (k, False)
    return None


def violating_sources(g_mod, spec, xi_N):
    """Vertices at level <= 0 whose forward path meets the path of xi_N.

    Computed as the backward closure of the xi path (reverse reachability)
    intersected with the low-level halfspace.
    """
    theta = np.asarray(spec.theta, dtype=np.int64)
    box = g_mod.box
    coords = box.coords()
    mark = np.zeros(g_mod.n_vertices, dtype=bool)
    mark[forward_path(g_mod, tuple(int(c) for c in xi_N))] = True
    mark = fold_chains(g_mod.succ, mark, np.logical_or)
    dots = coords @ theta
    return [box.vertex_at(int(i)) for i in np.flatnonzero(mark & (dots <= 0))]


def verify_severing(g_mod, spec, xi_N):
    """True iff no z at level <= 0 has a forward path meeting the path of xi_N.

    On failure, reports the lexicographically smallest witness z together
    with its strip-crossing segment (v1, v2) and that segment's passage time
    for comparison against the severing bound.
    """
    theta = np.asarray(spec.theta, dtype=np.int64)
    box = g_mod.box
    coords = box.coords()
    xi = tuple(int(c) for c in xi_N)

    S = g_mod.env.spec.sup_support()
    bound_value = None if math.isinf(S) else (S - 0.75 * spec.delta) * sum(abs(c) for c in xi)

    violators = violating_sources(g_mod, spec, xi_N)
    if not violators:
        return SeveringVerdict(severed=True, witness=None, crossing=None,
                               crossing_time=None, bound_value=bound_value)

    src = violators[0]
    path = forward_path(g_mod, src)
    pd = list(coords[path] @ theta)
    w1 = _last_attainment(pd, 0)
    if w1 is None:
        v1_k = 0
    else:
        v1_k = w1[0] if w1[1] else w1[0] + 1
    w2 = _first_attainment(pd, spec.N, v1_k)
    v2_k = w2[0] if w2 is not None else len(pd) - 1
    v1 = int(path[v1_k])
    v2 = int(path[v2_k])
    return SeveringVerdict(severed=False, witness=src,
                           crossing=(box.vertex_at(v1), box.vertex_at(v2)),
                           crossing_time=float(g_mod.T[v1] - g_mod.T[v2]),
                           bound_value=bound_value)


@dataclass
class ModificationOutcome:
    edge_set: np.ndarray           # (m, 2, d) rows (tail, head) of the raised edges
    lam: float
    event: EventReport
    verdict: SeveringVerdict
    g: DistanceField               # geodesic graph before the modification
    g_mod: DistanceField           # and after it

    @property
    def severed(self):
        return self.verdict.severed


def run_modification(env, spec, y, xi_N, mode="bounded", lam=None, box=None, alpha=None):
    """Full experiment: build, modify weights upward on the eligible set, re-verify.

    ``bounded`` mode uses lam = S - delta/2 and requires a finite support
    supremum with mean t_e <= S - 2 delta; ``unbounded`` mode takes a caller
    lambda.
    """
    S = env.spec.sup_support()
    if mode == "bounded":
        if math.isinf(S):
            raise ValueError("bounded mode requires a distribution with finite support")
        if env.spec.mean() > S - 2 * spec.delta:
            raise ValueError("delta too large: need mean t_e <= S - 2 delta")
        lam = S - spec.delta / 2
    elif mode == "unbounded":
        if lam is None:
            raise ValueError("unbounded mode requires an explicit lambda")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if alpha is None:
        alpha = spec.N + max(spec.N // 2, 8)
    if box is None:
        margin = int(math.ceil(spec.M)) + 4
        lo = [-margin] * env.dim
        hi = [margin] * env.dim
        axis = int(np.argmax(np.abs(spec.theta)))
        lo[axis] = -max(8, spec.N // 3)
        hi[axis] = int(alpha)
        # off-axis theta can put y or xi_N outside the slab around the main axis
        box = Box(tuple(map(min, lo, y, xi_N)), tuple(map(max, hi, y, xi_N)))

    target = HyperplaneTarget(spec.theta, alpha)
    g = build_graph(solve(env, box, target))
    protected = protected_vertices(box, spec, tuple(int(c) for c in xi_N))
    xi_edges = eligible_edges(g, spec, y, protected)
    event = check_event_A2prime(g, spec, y, xi_N)

    g_mod = build_graph(solve(with_overrides(env, xi_edges, lam), box, target))
    verdict = verify_severing(g_mod, spec, xi_N)

    return ModificationOutcome(edge_set=xi_edges, lam=float(lam), event=event,
                               verdict=verdict, g=g, g_mod=g_mod)

