"""Statistical checkers for limit statements at desk scale.

Every estimator here works on finite boxes and reports finite-size
surrogates: padded windows guard against truncation bias, censored
observations are labeled rather than dropped silently, and Monte Carlo
gates are parameters owned by the caller.

The analysis region of a solve box, the box less ``required_pad`` on every
face (``analysis_region``), is the default window of every windowed analysis,
and holds every explicit window (a radii window need only lie in the box).
A box whose region is empty raises ``ParameterError`` named ``box``.

The torus forest of the mass-transport check is the ``solve`` of a
periodic ``Box``, so box and torus forests are one record, built by one
successor rule with one tie-break, and every forest traversal serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic_graph import backward_stats, components, forward_path
from .geodesics import HyperplaneTarget, ParameterError, fold_chains, passage_times, solve
from .lattice import Box


def required_pad(box):
    """Minimum gap an analysis window must keep from the solve-box faces.

    The same rule, applied to a window, pads it into its solve box.
    """
    extent = max(u - l for l, u in zip(box.lower, box.upper))
    return max(extent // 4, 16)


def padded_solve_box(window):
    """Solve box for a window, per the padding rule."""
    return window.expand(required_pad(window))


def analysis_region(box):
    """The box less ``required_pad(box)`` on every face, which must keep a vertex."""
    pad = required_pad(box)
    if 2 * pad >= min(box.shape):
        smallest = 2 * required_pad(Box.cube(0, box.dim)) + 1     # the pad rule's floor
        raise ParameterError("box", f"{box.lower}..{box.upper} leaves no vertex inside its "
                                    f"analysis pad of {pad}; the smallest side accepted is "
                                    f"{smallest}")
    return box.shrink(pad)


def check_window(window, box):
    """The window, by default the analysis region of ``box``, which must hold it."""
    region = analysis_region(box)
    if window is not None and not region.contains_box(window):
        raise ParameterError("window", f"{window.lower}..{window.upper} is not inside the analysis "
                                       f"region {region.lower}..{region.upper} of its box")
    return region if window is None else window


def direction_grid(dim, count):
    """Unit direction samples: uniform angles (d=2), Fibonacci spiral (d=3)."""
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if dim == 3:
        k = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / count)
        lam = np.pi * (1.0 + 5.0 ** 0.5) * k
        return np.column_stack([np.sin(phi) * np.cos(lam),
                                np.sin(phi) * np.sin(lam),
                                np.cos(phi)])
    rng = np.random.default_rng(count)
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@dataclass
class ShapeEstimate:
    radius: int
    directions: np.ndarray       # (m, d) unit vectors
    eval_points: np.ndarray      # (m, d) lattice points floor(r * xi)
    T_samples: np.ndarray        # (seeds, m) passage times T(0, point)

    @property
    def g_hat(self):
        """Mean T(0, point) / r per direction."""
        return self.T_samples.mean(axis=0) / self.radius

    @property
    def g_stderr(self):
        """Standard error of ``g_hat``; zero from a single seed."""
        n = len(self.T_samples)
        if n < 2:
            return np.zeros(self.T_samples.shape[1])
        return self.T_samples.std(axis=0, ddof=1) / np.sqrt(n) / self.radius

    def rows(self, seeds):
        """Long-format rows: T / r per seed (``seeds`` names the rows of
        ``T_samples``) and direction, then g_hat and g_stderr per direction."""
        out = [("T_over_r", seed, i, t / self.radius)
               for seed, row in zip(seeds, self.T_samples) for i, t in enumerate(row)]
        for i, (g, se) in enumerate(zip(self.g_hat, self.g_stderr)):
            out.append(("g_hat", "", i, g))
            out.append(("g_stderr", "", i, se))
        return out


def estimate_shape(env, radius, directions):
    """Passage times T(0, floor(r xi)) of the one seed of ``env``, for the
    directional norm estimates g_hat(xi) = mean T(0, floor(r xi)) / r.

    ``T_samples`` has one row.  A multi-seed estimate stacks the rows of one
    call per seed into the ``T_samples`` of the first, as the CLI does.

    The times come from ``passage_times``, whose Dijkstra stops at L, the
    largest time at a point inside the window spanned by the origin and the
    points.  The solve box is ``padded_solve_box(window)``.  The window's
    paths are paths of the solve box, so each point's time in the box is at
    most L, in floating point too since rounding is monotone, and equals the
    time of a full solve.  Unless the window is flat (``--axis``), the search
    hashes and settles only a sub-box of the solve box, the window with a
    margin on each face, widened until no path of time <= L leaves it; the
    times are those of the whole box.
    """
    r = int(radius)
    directions = np.asarray(directions, dtype=np.float64)
    points = np.floor(r * directions).astype(np.int64)
    origin = (0,) * env.dim
    box = padded_solve_box(Box.hull(np.vstack([origin, points])))
    return ShapeEstimate(radius=r, directions=directions, eval_points=points,
                         T_samples=passage_times(env, box, origin, points)[np.newaxis])


@dataclass
class BusemannVectorEstimate:
    rho_fit: np.ndarray
    residual_rms: float

    def rows(self):
        out = [("rho_fit", i, v) for i, v in enumerate(self.rho_fit)]
        out.append(("residual_rms", "", self.residual_rms))
        return out


def estimate_busemann_vector(field, window=None):
    """Least-squares rho with B(0, x) ~ rho . x over the window vertices (by
    default the analysis region), which must span all d dimensions."""
    window = check_window(window, field.box)
    coords = window.coords()
    idx = field.box.indices_of(coords)
    origin = (0,) * field.box.dim
    b = field.T[field.box.index_of(origin)] - field.T[idx]
    A = coords.astype(np.float64)
    if np.linalg.matrix_rank(A) < field.box.dim:
        raise ParameterError("window", f"{window.lower}..{window.upper} spans fewer than "
                                       f"{field.box.dim} dimensions; it fits no Busemann vector")
    rho, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = b - A @ rho
    return BusemannVectorEstimate(rho_fit=rho,
                                  residual_rms=float(np.sqrt(np.mean(resid ** 2))))


@dataclass
class CrossingReport:
    levels: list
    samples: list
    counts: np.ndarray      # (n_samples, n_levels)
    path_lengths: np.ndarray
    max_count: int

    def rows(self):
        """One crossings row per sample vertex and level, its param ``x1;...;xd/level``."""
        out = []
        for i, x in enumerate(self.samples):
            vertex = ";".join(map(str, x))
            for j, a in enumerate(self.levels):
                out.append(("crossings", f"{vertex}/{a}", int(self.counts[i, j])))
        out.append(("max_count", "", self.max_count))
        return out


def crossing_counts(g, theta, levels, sample_vertices):
    """Visits of the forward path of each sample vertex, which must lie in the
    analysis region, to the open lower halfspaces {z . theta < level}."""
    region = analysis_region(g.box)
    counts = np.zeros((len(sample_vertices), len(levels)), dtype=np.int64)
    lengths = np.zeros(len(sample_vertices), dtype=np.int64)
    box_levels = g.box.levels(theta)
    for i, x in enumerate(sample_vertices):
        if not region.contains(x):
            raise ParameterError("sample_vertices", f"{tuple(x)} is outside the analysis region "
                                                    f"{region.lower}..{region.upper}")
        path = forward_path(g, x)
        dots = box_levels[path]
        lengths[i] = len(path)
        for j, a in enumerate(levels):
            counts[i, j] = int((dots < a).sum())
    return CrossingReport(levels=list(levels), samples=[tuple(v) for v in sample_vertices],
                          counts=counts, path_lengths=lengths,
                          max_count=int(counts.max()) if counts.size else 0)


@dataclass
class BackwardTailReport:
    k_size: np.ndarray
    p_size_ge: np.ndarray
    k_depth: np.ndarray
    p_depth_ge: np.ndarray
    censored_fraction: float
    n_censored: int
    mean_depth: float

    def rows(self):
        out = [("p_size_ge", int(k), p) for k, p in zip(self.k_size, self.p_size_ge)]
        out += [("p_depth_ge", int(k), p) for k, p in zip(self.k_depth, self.p_depth_ge)]
        out.append(("censored_fraction", "", self.censored_fraction))
        return out


def _fraction_ge(values, ks):
    """P(values >= k) for each k of the increasing range ``ks`` of non-negative ints.

    The exact count of each k over the count of values, as ``(values >= k).mean()``.
    """
    at_least = np.cumsum(np.bincount(values, minlength=ks[-1] + 1)[::-1])[::-1]
    return at_least[ks] / len(values)


def backward_tail(g, window=None):
    """Empirical tails of backward-cluster size and depth over a window (by
    default the analysis region).

    Clusters touching the solve-box boundary are censored: their sizes are
    only lower bounds, so they are excluded from the tails and reported as
    a fraction.  A window whose clusters are all censored raises
    ``ParameterError`` named ``box``.
    """
    window = check_window(window, g.box)
    sizes, depth, touch = backward_stats(g)
    idx = g.box.indices_of(window.coords())
    censored = touch[idx]
    keep_sizes = sizes[idx][~censored]
    keep_depth = depth[idx][~censored]
    if keep_sizes.size == 0:
        raise ParameterError("box", f"{g.box.lower}..{g.box.upper}: all clusters censored; "
                                    "enlarge the box")
    k_size = np.arange(1, keep_sizes.max() + 1)
    k_depth = np.arange(0, keep_depth.max() + 2)
    return BackwardTailReport(
        k_size=k_size, p_size_ge=_fraction_ge(keep_sizes, k_size),
        k_depth=k_depth, p_depth_ge=_fraction_ge(keep_depth, k_depth),
        censored_fraction=float(censored.mean()),
        n_censored=int(censored.sum()),
        mean_depth=float(keep_depth.mean()))


@dataclass
class IntersectionRadiusReport:
    records: list   # (level, component_label, n_vertices, radius)

    def rows(self):
        return [("radius", f"{lvl}/{lab}", float(r))
                for lvl, lab, _, r in self.records]


def _max_pairwise_l1(pts):
    """Exact max l1 distance via sign-pattern projections."""
    if len(pts) == 1:
        return 0
    d = pts.shape[1]
    best = 0
    for bits in range(2 ** (d - 1)):
        signs = np.ones(d, dtype=np.int64)
        for j in range(d - 1):
            if bits >> j & 1:
                signs[j + 1] = -1
        proj = pts @ signs
        best = max(best, int(proj.max() - proj.min()))
    return best


def intersection_radii(g, theta, levels, window=None):
    """Per-component l1 radius of the window's vertex intersection with each hyperplane,
    as records (level, label, count, radius); labels are ``components`` labels.  The
    window lies in the box; by default it is the analysis region."""
    if window is None:
        window = analysis_region(g.box)
    elif not g.box.contains_box(window):
        raise ParameterError("window", f"{window.lower}..{window.upper} is not inside its box "
                                       f"{g.box.lower}..{g.box.upper}")
    coords = window.coords()
    window_labels = components(g)[g.box.indices_of(coords)]
    dots = window.levels(theta)
    records = []
    for lvl in levels:
        on = dots == int(lvl)
        labels = window_labels[on]
        pts = coords[on]
        for lab in np.unique(labels):
            sel = pts[labels == lab]
            records.append((int(lvl), int(lab), len(sel), _max_pairwise_l1(sel)))
    return IntersectionRadiusReport(records=records)


def build_torus_graph(env, dims, direction, level=0):
    """Geodesic forest on the torus with side lengths ``dims`` toward {z . theta = level}.

    The torus is the periodic box [0, L1 - 1] x ... x [0, Ld - 1].  Every
    edge of it has its tail in that box, and the edge takes the weight that
    ``env`` gives the lattice edge from that tail.
    """
    box = Box((0,) * len(dims), tuple(L - 1 for L in dims), periodic=True)
    return solve(env, box, HyperplaneTarget(direction, level))


@dataclass
class MassTransportReport:
    n_vertices: int
    n_components: int
    total_sent: int
    total_received: int
    mean_sent: float
    mean_received: float
    difference: int

    def rows(self):
        return [("total_sent", "", self.total_sent),
                ("total_received", "", self.total_received),
                ("difference", "", self.difference)]


def mass_transport_balance(g, theta):
    """Exact double-count check: unit mass from every vertex to its component progenitor.

    Sent mass is counted over all vertices.  Received mass is counted
    progenitor by progenitor, as the backward-cluster size of its tree's
    root, from the generations sweep of ``backward_stats``, which shares no
    code with the ``fold_chains`` pass that finds the roots.  On a torus the
    two totals agree as integers in every realization, unless the sweep
    misses or repeats a vertex.  A component is the tree of one forest root.
    """
    if not g.box.periodic:
        raise ValueError("mass transport balance requires a forest on a periodic box")
    n = g.n_vertices
    roots = fold_chains(g.succ, np.where(g.succ < 0, np.arange(n), -1), np.maximum)
    # rank vertices by (wrapped level, lexicographic coords); progenitor = min rank per tree.
    # The C order of the box is lexicographic, so a stable sort of the levels breaks ties by it.
    order = np.argsort(g.box.levels(theta), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    best = np.full(n, n, dtype=np.int64)
    np.minimum.at(best, roots, rank)
    prog_index = order[best[roots]]     # vertex index of each vertex's progenitor

    sent = int((prog_index >= 0).sum())
    # the progenitor of each root's tree receives the root's backward cluster
    total_received = int(backward_stats(g)[0][roots[prog_index[g.succ < 0]]].sum())
    return MassTransportReport(
        n_vertices=n, n_components=int((g.succ < 0).sum()),
        total_sent=int(sent), total_received=total_received,
        mean_sent=sent / n, mean_received=total_received / n,
        difference=int(sent - total_received))
