"""Command-line front end.

Every subcommand reads flags (optionally merged over a JSON config file,
flags winning), runs the corresponding analysis, writes a primary CSV plus
a manifest, and exits nonzero with a diagnostic naming the offending key on
bad config.  Identical configs produce byte-identical primary CSVs; timing
lives in the manifest only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, modification
from .environment import TorusEnvironment, WeightEnvironment, parse_dist
from .geodesic_graph import build_graph, graph_summary, graph_to_csv
from .geodesics import HyperplaneTarget, solve
from .lattice import Box, lattice_point_on_level, normalize_direction
from .manifest import export_csv, export_json, write_manifest


class ConfigError(Exception):
    def __init__(self, key, message):
        # (key, message) as args, so the error pickles back from a --jobs worker
        super().__init__(key, message)
        self.key = key

    def __str__(self):
        return f"config error: {self.args[0]}: {self.args[1]}"


def _require(cfg, key):
    """The value of a setting that has no default."""
    if cfg.get(key) is None:
        raise ConfigError(key, "missing required setting")
    return cfg[key]


def _utcnow():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _int_list(cfg, key, default=None):
    """An integer list setting, as comma-separated text or a JSON list; required
    when there is no default."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    parts = value if isinstance(value, list) else str(value).split(",")
    try:
        if parts and all(type(p) in (int, str) for p in parts):
            return tuple(int(p) for p in parts)
    except ValueError:
        pass
    raise ConfigError(key, f"expected integers, comma-separated or a JSON list, got {value!r}")


def _merge_config(args, keys):
    """flags > config file > defaults; returns a plain dict of active settings."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                merged.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc))
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _env_from(cfg):
    try:
        spec = parse_dist(_require(cfg, "dist"))
    except ValueError as exc:
        raise ConfigError("dist", str(exc))
    try:
        return WeightEnvironment(int(_require(cfg, "dim")), spec, int(cfg.get("seed", 0)))
    except ValueError as exc:
        raise ConfigError("dim", str(exc))


def _theta_from(cfg):
    try:
        return normalize_direction(_int_list(cfg, "theta"))
    except (ValueError, TypeError) as exc:
        raise ConfigError("theta", str(exc))


def _box_from(cfg, dim):
    extent = int(_require(cfg, "box"))
    if extent < 3:
        raise ConfigError("box", "box extent must be >= 3")
    return Box.cube((extent - 1) // 2, dim)


def _seed_list(cfg):
    base = int(cfg.get("seed", 0))
    count = int(cfg.get("seeds", 1))
    if count < 1:
        raise ConfigError("seeds", "need at least one seed")
    return list(range(base, base + count))


def _jobs(cfg):
    return int(cfg.get("jobs") or os.environ.get("FPPGEO_JOBS") or 1)


def _pmap(task, arglist, jobs):
    """Map preserving argument order; processes when jobs > 1."""
    if jobs <= 1 or len(arglist) <= 1:
        return [task(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, arglist))


def _finish(out, command, cfg, seeds, started, outputs, t0):
    write_manifest(out, command, cfg, seeds, started, _utcnow(), outputs,
                   runtime_ms=1000.0 * (time.perf_counter() - t0))


# per-seed workers (top level so they pickle for --jobs)

def _shape_task(arg):
    cfg, seed = arg
    env = replace(_env_from(cfg), seed=seed)
    directions = None
    if cfg.get("axis"):
        directions = np.zeros((1, env.dim))
        directions[0, 0] = 1.0
    est = analysis.estimate_shape(env, [int(_require(cfg, "radius"))], n_seeds=1,
                                  directions=directions,
                                  n_directions=int(cfg.get("directions", 16)))
    return est.T_samples[0], est.eval_points


def _graph_pieces(cfg):
    env = _env_from(cfg)
    theta = _theta_from(cfg)
    box = _box_from(cfg, env.dim)
    alpha = int(_require(cfg, "alpha"))
    field = solve(env, box, HyperplaneTarget(theta, alpha))
    return env, theta, box, field


def _backward_task(arg):
    cfg, seed = arg
    cfg = dict(cfg, seed=seed)
    env, theta, box, field = _graph_pieces(cfg)
    g = build_graph(field)
    w = int(_require(cfg, "window"))
    window = Box.cube((w - 1) // 2, env.dim)
    rep = analysis.backward_tail(g, window)
    return [(m, seed, p, v) for (m, _, p, v) in rep.rows()]


def _busemann_task(arg):
    cfg, seed = arg
    cfg = dict(cfg, seed=seed)
    env, theta, box, field = _graph_pieces(cfg)
    w = int(_require(cfg, "window"))
    est = analysis.estimate_busemann_vector(field, Box.cube((w - 1) // 2, env.dim))
    return [(m, seed, p, v) for (m, _, p, v) in est.rows()]


def _crossings_task(arg):
    cfg, seed = arg
    cfg = dict(cfg, seed=seed)
    env, theta, box, field = _graph_pieces(cfg)
    g = build_graph(field)
    levels = _int_list(cfg, "levels", "0")
    pad = analysis.required_pad(box)
    inner = box.shrink(pad)
    rng = np.random.default_rng(seed)
    n_samples = int(cfg.get("samples", 20))
    coords = inner.coords()
    pick = rng.choice(len(coords), size=min(n_samples, len(coords)), replace=False)
    samples = [tuple(int(c) for c in coords[i]) for i in sorted(pick)]
    rep = analysis.crossing_counts(g, theta, levels, samples)
    return [(m, seed, p, v) for (m, _, p, v) in rep.rows()]


def _radii_task(arg):
    cfg, seed = arg
    cfg = dict(cfg, seed=seed)
    env, theta, box, field = _graph_pieces(cfg)
    g = build_graph(field)
    levels = _int_list(cfg, "levels", "0")
    w = cfg.get("window")
    window = Box.cube((int(w) - 1) // 2, env.dim) if w else None
    rep = analysis.intersection_radii(g, theta, levels, window=window)
    return [(m, seed, p, v) for (m, _, p, v) in rep.rows()]


def _masstransport_task(arg):
    cfg, seed = arg
    env = replace(_env_from(cfg), seed=seed)
    dims = _int_list(cfg, "dims")
    theta = _theta_from(cfg)
    tenv = TorusEnvironment(env, dims)
    g = analysis.build_torus_graph(tenv, theta, int(cfg.get("level", 0)))
    rep = analysis.mass_transport_balance(g, theta)
    return [(m, seed, p, v) for (m, _, p, v) in rep.rows()]


def _parse_m_rule(text):
    kind, _, val = str(text).partition(":")
    if kind == "const":
        return lambda n: float(val)
    if kind == "linear":
        return lambda n: float(val) * n
    raise ConfigError("M_rule", f"unknown rule {text!r} (use const:V or linear:C)")


def _modify_task(arg):
    cfg, seed, N = arg
    env = replace(_env_from(cfg), seed=seed)
    theta = _theta_from(cfg)
    M = _parse_m_rule(cfg.get("M_rule", "const:12"))(N)
    spec = modification.StripSpec(theta, N, M, int(cfg.get("M_prime", 3)),
                                  float(cfg.get("epsilon", 0.1)),
                                  float(cfg.get("delta", 0.1)))
    y = _int_list(cfg, "y") if cfg.get("y") else _default_y(theta, env.dim)
    xi = _int_list(cfg, "xi") if cfg.get("xi") else lattice_point_on_level(theta, N)
    mode = cfg.get("mode", "bounded")
    lam = float(cfg["lam"]) if cfg.get("lam") is not None else None
    out = modification.run_modification(env, spec, y, xi, mode=mode, lam=lam)
    witness_level = ""
    if out.verdict.witness is not None:
        witness_level = sum(c * t for c, t in zip(out.verdict.witness, theta))
    return (seed, N, M, int(out.event.passed), int(out.severed), witness_level)


def _default_y(theta, dim):
    """Smallest nonzero lattice point on the zero level, lexicographic first."""
    import itertools
    for radius in range(1, 8):
        cands = sorted(p for p in itertools.product(range(-radius, radius + 1), repeat=dim)
                       if sum(map(abs, p)) == radius)
        for p in cands:
            if sum(c * t for c, t in zip(p, theta)) == 0:
                return p
    raise ConfigError("y", f"no small zero-level vertex found for theta={theta}")


LONG_HEADER = ("metric", "seed", "param", "value")


def _run_long_format(task, name, args, keys):
    cfg = _merge_config(args, keys)
    seeds = _seed_list(cfg)
    out = cfg.get("out") or f"{name}.csv"
    started = _utcnow()
    t0 = time.perf_counter()
    rows = []
    for chunk in _pmap(task, [(cfg, s) for s in seeds], _jobs(cfg)):
        rows.extend(chunk)
    export_csv(out, LONG_HEADER, rows)
    _finish(out, [name] + _argv_tail(args), cfg, seeds, started, [out], t0)
    return 0


def _argv_tail(args):
    return [f"{k}={v}" for k, v in sorted(vars(args).items())
            if v is not None and k != "func"]


def cmd_shape(args):
    keys = ("dim", "dist", "seed", "seeds", "radius", "directions", "axis", "out", "jobs")
    cfg = _merge_config(args, keys)
    seeds = _seed_list(cfg)
    out = cfg.get("out") or "shape.csv"
    started = _utcnow()
    t0 = time.perf_counter()
    results = _pmap(_shape_task, [(cfg, s) for s in seeds], _jobs(cfg))
    samples = np.vstack([r[0] for r in results])
    radius = int(_require(cfg, "radius"))
    rows = []
    for i, s in enumerate(seeds):
        for j in range(samples.shape[1]):
            rows.append(("T_over_r", s, j, samples[i, j] / radius))
    g_hat = samples.mean(axis=0) / radius
    stderr = (samples.std(axis=0, ddof=1) / np.sqrt(len(seeds)) / radius
              if len(seeds) > 1 else np.zeros_like(g_hat))
    for j in range(len(g_hat)):
        rows.append(("g_hat", "", j, float(g_hat[j])))
        rows.append(("g_stderr", "", j, float(stderr[j])))
    export_csv(out, LONG_HEADER, rows)
    _finish(out, ["shape"] + _argv_tail(args), cfg, seeds, started, [out], t0)
    return 0


def cmd_graph(args):
    keys = ("dim", "dist", "seed", "box", "theta", "alpha", "out")
    cfg = _merge_config(args, keys)
    out = cfg.get("out") or "graph.csv"
    started = _utcnow()
    t0 = time.perf_counter()
    env, theta, box, field = _graph_pieces(cfg)
    g = build_graph(field)
    graph_to_csv(g, out)
    summary_path = str(Path(out).with_suffix("")) + ".summary.json"
    export_json(summary_path, graph_summary(g))
    _finish(out, ["graph"] + _argv_tail(args), cfg, [env.seed], started,
            [out, summary_path], t0)
    return 0


def cmd_busemann(args):
    keys = ("dim", "dist", "seed", "seeds", "box", "theta", "alpha", "window", "out", "jobs")
    return _run_long_format(_busemann_task, "busemann", args, keys)


def cmd_backward(args):
    keys = ("dim", "dist", "seed", "seeds", "box", "theta", "alpha", "window", "out", "jobs")
    return _run_long_format(_backward_task, "backward", args, keys)


def cmd_crossings(args):
    keys = ("dim", "dist", "seed", "seeds", "box", "theta", "alpha", "levels",
            "samples", "out", "jobs")
    return _run_long_format(_crossings_task, "crossings", args, keys)


def cmd_radii(args):
    keys = ("dim", "dist", "seed", "seeds", "box", "theta", "alpha", "levels",
            "window", "out", "jobs")
    return _run_long_format(_radii_task, "radii", args, keys)


def cmd_masstransport(args):
    keys = ("dim", "dist", "seed", "seeds", "dims", "theta", "level", "out", "jobs")
    return _run_long_format(_masstransport_task, "masstransport", args, keys)


def cmd_modify(args):
    keys = ("dim", "dist", "seed", "seeds", "theta", "N_list", "M_rule", "M_prime",
            "epsilon", "delta", "mode", "lam", "y", "xi", "out", "jobs")
    cfg = _merge_config(args, keys)
    seeds = _seed_list(cfg)
    n_list = _int_list(cfg, "N_list", "24")
    out = cfg.get("out") or "modify.csv"
    started = _utcnow()
    t0 = time.perf_counter()
    tasks = [(cfg, s, n) for s in seeds for n in n_list]
    rows = _pmap(_modify_task, tasks, _jobs(cfg))
    export_csv(out, ("seed", "N", "M", "event_pass", "severed", "witness_level"), rows)
    _finish(out, ["modify"] + _argv_tail(args), cfg, seeds, started, [out], t0)
    return 0


def _add_common(p, *names):
    if "dim" in names:
        p.add_argument("--dim", type=int)
    if "dist" in names:
        p.add_argument("--dist", help="e.g. uniform:0,1  exponential:1  uniform-shifted:0.5,1")
    if "seed" in names:
        p.add_argument("--seed", type=int)
    if "seeds" in names:
        p.add_argument("--seeds", type=int, help="number of consecutive seeds")
    if "box" in names:
        p.add_argument("--box", type=int, help="box side length (cube around origin)")
    if "theta" in names:
        p.add_argument("--theta", help="integer direction, e.g. 1,0")
    if "alpha" in names:
        p.add_argument("--alpha", type=int, help="target hyperplane level")
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--out")
    p.add_argument("--jobs", type=int)


def build_parser():
    root = argparse.ArgumentParser(prog="fppgeo",
                                   description="first-passage percolation geodesic toolkit")
    sub = root.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("shape", help="directional norm estimates")
    _add_common(p, "dim", "dist", "seed", "seeds")
    p.add_argument("--radius", type=int, required=False)
    p.add_argument("--directions", type=int)
    p.add_argument("--axis", action="store_true", help="estimate along +e1 only")
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("graph", help="geodesic graph CSV dump")
    _add_common(p, "dim", "dist", "seed", "box", "theta", "alpha")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("busemann", help="fit the Busemann direction vector")
    _add_common(p, "dim", "dist", "seed", "seeds", "box", "theta", "alpha")
    p.add_argument("--window", type=int)
    p.set_defaults(func=cmd_busemann)

    p = sub.add_parser("backward", help="backward-cluster tail statistics")
    _add_common(p, "dim", "dist", "seed", "seeds", "box", "theta", "alpha")
    p.add_argument("--window", type=int)
    p.set_defaults(func=cmd_backward)

    p = sub.add_parser("crossings", help="halfspace crossing counts of forward paths")
    _add_common(p, "dim", "dist", "seed", "seeds", "box", "theta", "alpha")
    p.add_argument("--levels")
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_crossings)

    p = sub.add_parser("radii", help="component intersection radii on hyperplanes")
    _add_common(p, "dim", "dist", "seed", "seeds", "box", "theta", "alpha")
    p.add_argument("--levels")
    p.add_argument("--window", type=int)
    p.set_defaults(func=cmd_radii)

    p = sub.add_parser("masstransport", help="progenitor mass-transport balance on a torus")
    _add_common(p, "dim", "dist", "seed", "seeds", "theta")
    p.add_argument("--dims", help="torus dimensions, e.g. 64,64")
    p.add_argument("--level", type=int)
    p.set_defaults(func=cmd_masstransport)

    p = sub.add_parser("modify", help="strip modification experiment sweep")
    _add_common(p, "dim", "dist", "seed", "seeds", "theta")
    p.add_argument("--N-list", dest="N_list")
    p.add_argument("--M-rule", dest="M_rule", help="const:V or linear:C (M = C*N)")
    p.add_argument("--M-prime", dest="M_prime", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--mode", choices=["bounded", "unbounded"])
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--y")
    p.add_argument("--xi")
    p.set_defaults(func=cmd_modify)

    return root


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
