"""Command-line front end.

Two tables drive every subcommand.  ``SETTINGS`` declares each setting once:
its type, default, help and (when it is not ``--<name>``) its flag.
``COMMANDS`` declares each subcommand once: the settings it takes, its
study and its CSV header or writer.  The parser is built from the two
tables, and one runner serves all subcommands: merge the settings, list the
seeds, map ``_task`` over them (in processes when ``--jobs`` > 1), write the
primary outputs, then the manifest.  ``_task`` builds the seed's weight
environment and, for a field command (one that takes ``alpha``), solves its
field toward level alpha in the box; the study reads that one subject, and
never loops over seeds or solves.  The runner alone writes the seed column,
in ``_task`` (or, for the one multi-seed report, by the shape writer).

A setting takes its value from its flag, else from the ``--config`` JSON
file, else from its default.  A flag that is not given leaves the file's
value in place; file keys that a command does not take pass through to the
manifest untouched.  Each setting a command takes is converted once, and a
value that does not convert, a number or list entry below its minimum, a
per-axis list whose length is not ``dim``, or a required setting that is
missing, raises ``ParameterError`` named by its key.  The library raises it
too, for a parameter that only a setting can cause (``analysis`` checks
every analysis window and pad); the runner renames it once to its setting:
``level`` to ``alpha`` for a field command, whose solve it makes, else by the
command's ``param_keys``.  One that names a setting of the command exits 2 with
``config error: <key>: ...``.  Any other exception is the program's fault:
it exits 3 with ``internal error:`` and the traceback.
Identical configs produce byte-identical primary outputs; timing lives in
the manifest only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from . import analysis, modification
from .environment import WeightEnvironment, parse_dist
from .geodesic_graph import graph_summary, graph_to_csv
from .geodesics import HyperplaneTarget, ParameterError, solve
from .lattice import Box, lattice_point_on_level, normalize_direction
from .manifest import export_csv, export_json, write_manifest


# setting types: each converts a flag string or a config-file value, or raises ValueError

def _int(value):
    """An integer, or a string or integral number that is one; never a bool."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _int_list(value):
    """Integers, comma-separated or as a JSON list."""
    parts = value if isinstance(value, list) else str(value).split(",")
    try:
        if parts and all(type(p) in (int, str) for p in parts):
            return tuple(int(p) for p in parts)
    except ValueError:
        pass
    raise ValueError(f"expected integers, comma-separated or a JSON list, got {value!r}")


def _direction(value):
    return normalize_direction(_int_list(value))


def _side(value):
    """An odd integer, the side of a cube around the origin."""
    side = _int(value)
    if side % 2 == 0:
        raise ValueError(f"side {side} is even; a cube around the origin has an odd side")
    return side


def _dist(value):
    return parse_dist(str(value))


def _m_rule(value):
    """``const:V`` (M = V) or ``linear:C`` (M = C*N), as (kind, number)."""
    kind, _, number = str(value).partition(":")
    if kind not in ("const", "linear"):
        raise ValueError(f"unknown rule {value!r} (use const:V or linear:C)")
    return kind, float(number)


def _bool(value):
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


REQUIRED = object()     # default of a setting that must be given


@dataclass(frozen=True)
class Setting:
    type: Callable
    default: object = REQUIRED
    help: str | None = None
    flag: str | None = None         # when not --<name with - for _>
    minimum: int | None = None      # of the value, or of each entry of a list
    per_axis: bool = False          # a list with one entry per axis (``dim`` of them)


SETTINGS = {
    "dim": Setting(_int, minimum=2),
    "dist": Setting(_dist, help="e.g. uniform:0,1  exponential:1"),
    "seed": Setting(_int, 0),
    "seeds": Setting(_int, 1, "number of consecutive seeds", minimum=1),
    "box": Setting(_side, help="odd side of the box (cube around origin)", minimum=3),
    "theta": Setting(_direction, help="integer direction, e.g. 1,0", per_axis=True),
    "alpha": Setting(_int, help="target hyperplane level"),
    "window": Setting(_side, None, "odd side of the analysis window (cube around origin); "
                                   "default: the box less its analysis pad", minimum=1),
    "levels": Setting(_int_list, "0", "hyperplane levels, e.g. 0,-50"),
    "samples": Setting(_int, 20, "number of sampled start vertices", minimum=1),
    "radius": Setting(_int, minimum=1),
    "directions": Setting(_int, 16, minimum=1),
    "axis": Setting(_bool, False, "estimate along +e1 only"),
    "dims": Setting(_int_list, help="torus dimensions, e.g. 64,64", minimum=3, per_axis=True),
    "level": Setting(_int, 0),
    "N_list": Setting(_int_list, "24", minimum=1),
    "M_rule": Setting(_m_rule, "const:12", "const:V or linear:C (M = C*N)"),
    "M_prime": Setting(_int, 3, minimum=1),
    "epsilon": Setting(float, 0.1),
    "delta": Setting(float, 0.1),
    "mode": Setting(str, "bounded", "bounded, or unbounded with --lambda"),
    "lam": Setting(float, None, flag="--lambda", minimum=0),
    "y": Setting(_int_list, None, "default: the first smallest nonzero vertex on level 0",
                 per_axis=True),
    "xi": Setting(_int_list, None, "default: a lattice point on level N", per_axis=True),
    "out": Setting(str, None, "primary output path (default: <command>.csv)"),
    "jobs": Setting(_int, 1, minimum=1),
}
COMMON = ("out", "jobs")


def _convert(key, setting, value):
    try:
        value = setting.type(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(key, str(exc)) from None
    for entry in value if isinstance(value, tuple) else (value,):
        if setting.minimum is not None and not entry >= setting.minimum:    # NaN fails too
            raise ParameterError(key, f"must be at least {setting.minimum}, got {entry}")
        if isinstance(entry, float) and not math.isfinite(entry):
            raise ParameterError(key, f"must be finite, got {entry}")
    return value


def _merge_config(args, command):
    """flag > config file > default.

    Returns the merged raw values, which the manifest records (file keys the
    command does not take included), and the converted value of every setting
    the command takes.
    """
    keys = command.settings + COMMON
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                merged = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError("config", str(exc))
        if not isinstance(merged, dict):
            raise ParameterError("config", "expected a JSON object")
    merged.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    cfg = {}
    for key in keys:
        setting = SETTINGS[key]
        value = merged.get(key)
        if value is None:
            value = setting.default
            if value is REQUIRED:
                raise ParameterError(key, "missing required setting")
        cfg[key] = None if value is None else _convert(key, setting, value)
    for key in keys:
        if SETTINGS[key].per_axis and cfg[key] is not None and len(cfg[key]) != cfg["dim"]:
            raise ParameterError(key, f"expected {cfg['dim']} integers, got {len(cfg[key])}")
    return merged, cfg


def _utcnow():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _pmap(task, arglist, jobs):
    """Map preserving argument order; processes when jobs > 1, at most one per
    argument (a fork pool starts all its workers on the first submit)."""
    if jobs <= 1 or len(arglist) <= 1:
        return [task(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=min(jobs, len(arglist))) as pool:
        return list(pool.map(task, arglist))


def _cube(cfg, key):
    """The cube around the origin whose side is setting ``key``, or None without one."""
    return None if cfg[key] is None else Box.cube(cfg[key] // 2, cfg["dim"])


def _task(arg):
    """One seed (and item) of command ``name``, the one function that ``_pmap`` maps.

    The study's subject is the seed's weight environment or, for a field
    command (one that takes ``alpha``), its field toward level alpha in the
    box.  A study whose rows go under ``LONG_HEADER`` returns a report, and
    its (metric, param, value) rows get the seed here.
    """
    name, cfg, seed, *item = arg
    command = COMMANDS[name]
    subject = WeightEnvironment(cfg["dim"], cfg["dist"], seed)
    if "alpha" in command.settings:
        subject = solve(subject, _cube(cfg, "box"), HyperplaneTarget(cfg["theta"], cfg["alpha"]))
    result = command.study(cfg, seed, subject, *item)
    if command.header is LONG_HEADER and command.write is None:
        return [(m, seed, p, v) for m, p, v in result.rows()]
    return result


# studies: (cfg, seed, environment or field[, item]) -> a report, CSV rows or the writer's input

def _shape(cfg, seed, env):
    dim = cfg["dim"]
    directions = np.eye(1, dim) if cfg["axis"] else analysis.direction_grid(dim, cfg["directions"])
    return analysis.estimate_shape(env, cfg["radius"], directions)


def _crossings(cfg, seed, g):
    region = analysis.analysis_region(g.box)
    rng = np.random.default_rng(seed)
    n = region.n_vertices
    pick = rng.choice(n, size=min(cfg["samples"], n), replace=False)
    samples = [region.vertex_at(i) for i in sorted(pick)]
    return analysis.crossing_counts(g, cfg["theta"], cfg["levels"], samples)


def _modify(cfg, seed, env, N):
    theta = cfg["theta"]
    kind, number = cfg["M_rule"]
    M = number * N if kind == "linear" else number
    spec = modification.StripSpec(theta, N, M, cfg["M_prime"], cfg["epsilon"], cfg["delta"])
    y = cfg["y"] or _default_y(theta, cfg["dim"])
    xi = cfg["xi"] or lattice_point_on_level(theta, N)
    out = modification.run_modification(env, spec, y, xi, mode=cfg["mode"], lam=cfg["lam"])
    witness_level = ""
    if out.verdict.witness is not None:
        witness_level = sum(c * t for c, t in zip(out.verdict.witness, theta))
    return [(seed, N, M, int(out.event.passed), int(out.severed), witness_level)]


def _default_y(theta, dim):
    """Smallest nonzero lattice point on the zero level, lexicographic first."""
    for radius in range(1, 8):
        cands = sorted(p for p in itertools.product(range(-radius, radius + 1), repeat=dim)
                       if sum(map(abs, p)) == radius)
        for p in cands:
            if sum(c * t for c, t in zip(p, theta)) == 0:
                return p
    raise ParameterError("y", f"no small zero-level vertex found for theta={theta}")


LONG_HEADER = ("metric", "seed", "param", "value")


# writers of commands whose results are not CSV rows: (out, cfg, seeds, results) -> paths

def _write_shape(out, cfg, seeds, results):
    est = replace(results[0], T_samples=np.vstack([r.T_samples for r in results]))
    export_csv(out, LONG_HEADER, est.rows(seeds))
    return [out]


def _write_graph(out, cfg, seeds, results):
    (g,) = results
    graph_to_csv(g, out)
    summary_path = str(Path(out).with_suffix("")) + ".summary.json"
    export_json(summary_path, graph_summary(g))
    return [out, summary_path]


@dataclass(frozen=True)
class Command:
    help: str
    study: Callable             # (cfg, seed, environment or field[, item]); see ``_task``
    settings: tuple             # keys of SETTINGS; every command also takes COMMON
    header: tuple = LONG_HEADER
    write: Callable | None = None
    fan_out: str | None = None  # a list setting: one task per seed and item
    param_keys: dict = field(default_factory=dict)  # library parameter -> setting, if they differ


# settings of the commands that study one hyperplane-target field per seed
_FIELD = ("dim", "dist", "seed", "seeds", "box", "theta", "alpha")

COMMANDS = {
    "shape": Command("directional norm estimates", _shape, write=_write_shape,
                     settings=("dim", "dist", "seed", "seeds", "radius", "directions", "axis")),
    "graph": Command("geodesic graph CSV dump", lambda cfg, seed, g: g, write=_write_graph,
                     settings=("dim", "dist", "seed", "box", "theta", "alpha")),
    "busemann": Command("fit the Busemann direction vector",
                        lambda cfg, seed, g: analysis.estimate_busemann_vector(
                            g, _cube(cfg, "window")),
                        settings=_FIELD + ("window",)),
    "backward": Command("backward-cluster tail statistics",
                        lambda cfg, seed, g: analysis.backward_tail(g, _cube(cfg, "window")),
                        settings=_FIELD + ("window",)),
    "crossings": Command("halfspace crossing counts of forward paths", _crossings,
                         settings=_FIELD + ("levels", "samples")),
    "radii": Command("component intersection radii on hyperplanes",
                     lambda cfg, seed, g: analysis.intersection_radii(
                         g, cfg["theta"], cfg["levels"], window=_cube(cfg, "window")),
                     settings=_FIELD + ("levels", "window")),
    "masstransport": Command("progenitor mass-transport balance on a torus",
                             lambda cfg, seed, env: analysis.mass_transport_balance(
                                 analysis.build_torus_graph(env, cfg["dims"], cfg["theta"],
                                                            cfg["level"]), cfg["theta"]),
                             settings=("dim", "dist", "seed", "seeds", "dims", "theta", "level")),
    "modify": Command("strip modification experiment sweep", _modify,
                      header=("seed", "N", "M", "event_pass", "severed", "witness_level"),
                      fan_out="N_list",
                      settings=("dim", "dist", "seed", "seeds", "theta", "N_list", "M_rule",
                                "M_prime", "epsilon", "delta", "mode", "lam", "y", "xi"),
                      param_keys={"M": "M_rule", "distribution": "dist"}),
}


def _argv_tail(args):
    return [f"{k}={v}" for k, v in sorted(vars(args).items()) if v is not None]


def _run(args):
    command = COMMANDS[args.cmd]
    merged, cfg = _merge_config(args, command)
    # a command without a seeds setting runs one seed
    seeds = list(range(cfg["seed"], cfg["seed"] + cfg.get("seeds", 1)))
    out = cfg["out"] or f"{args.cmd}.csv"
    started = _utcnow()
    t0 = time.perf_counter()
    items = [(x,) for x in cfg[command.fan_out]] if command.fan_out else [()]
    try:
        results = _pmap(_task, [(args.cmd, cfg, s, *i) for s in seeds for i in items],
                        cfg["jobs"])
    except ParameterError as exc:
        # the solve that ``_task`` makes for a field command calls setting alpha ``level``
        keys = {"level": "alpha"} if "alpha" in command.settings else command.param_keys
        if exc.name not in keys:
            raise
        raise ParameterError(keys[exc.name], exc.message) from None
    if command.write:
        outputs = command.write(out, cfg, seeds, results)
    else:
        export_csv(out, command.header, [row for rows in results for row in rows])
        outputs = [out]
    write_manifest(out, [args.cmd] + _argv_tail(args), merged, seeds, started, _utcnow(),
                   outputs, runtime_ms=1000.0 * (time.perf_counter() - t0))
    return 0


def build_parser(only=None):
    """The parser of every command, or of command ``only`` alone: its usage lists every
    command, so it reads that command's arguments and prints its help and errors as the
    full one does (no error about the command argument itself, which names it, can arise)."""
    root = argparse.ArgumentParser(prog="fppgeo",
                                   description="first-passage percolation geodesic toolkit")
    alone = only in COMMANDS
    sub = root.add_subparsers(dest="cmd", required=True,
                              metavar="{" + ",".join(COMMANDS) + "}" if alone else None)
    for name, command in [(only, COMMANDS[only])] if alone else COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file (flags override)")
        for key in command.settings + COMMON:
            s = SETTINGS[key]
            if s.type is _bool:
                kind = dict(action="store_true", default=None)
            else:
                # numbers are checked by argparse, with its own messages; other
                # types by _merge_config, so that the error names the key
                kind = dict(type={_int: int, _side: int, float: float}.get(s.type))
            p.add_argument(s.flag or "--" + key.replace("_", "-"), dest=key, help=s.help, **kind)
    return root


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse reads a value such as -5,0 as a flag, and --levels=-5,0 as a value
        if argv[i - 1][:2] == "--" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    keys = ("config",) + COMMANDS[args.cmd].settings + COMMON
    try:
        return _run(args)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        if isinstance(exc, ParameterError) and exc.name in keys:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
