"""The benchmark workloads: generated CLI inputs, one timed op, and its output checks.

Each workload turns a run seed into ``POOL`` op inputs (CLI argument lists
plus a JSON config file each); op ``k`` of a run uses input ``k % POOL``.
The program sees only those arguments and configs.  Library calls go
through the ``fppgeo`` package namespace so that a traced run sees them.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import traceback
from pathlib import Path

import numpy as np

import fppgeo
from fppgeo import analysis, cli, modification

POOL = 4

# The lru_cache object itself: while a traced run is active the module
# attribute is a timing wrapper without cache_clear / cache_info.
_protected_cache = modification.protected_vertices


def program_seed(run_seed, j):
    """Seed of pool input j; modify and shape use the next seeds too, hence the gap."""
    return run_seed * 100 + 10 * j


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def digest_mismatches(actual, expected):
    """Names whose recorded digest is missing from ``actual`` or differs from it."""
    return sorted(name for name, digest in expected.items() if actual.get(name) != digest)


def check_op(wl, inp, result, expected):
    """Invariant checks of one op, plus its ``expected`` digests: (errors, counts)."""
    try:
        digests, errors, counts = wl.check(inp, result)
    except Exception:
        return [traceback.format_exc()], {}
    bad = digest_mismatches(digests, expected)
    if bad:
        errors.append(f"digests differ from those recorded for seed {inp.seed}: {bad}")
    return errors, counts


def _run_cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fppgeo {argv[0]} exited with code {code}")


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class OpInput:
    def __init__(self, seed, outdir, argvs, outputs):
        self.seed = seed
        self.outdir = outdir
        self.argvs = argvs
        self.outputs = outputs      # output name -> path


def _config(outdir, cfg):
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config.json"
    path.write_text(json.dumps(cfg, sort_keys=True))
    return str(path)


class Forest2d:
    """2-d forest study: graph, backward tails, radii, torus mass transport, encounter points."""

    name = "forest2d"
    RADIUS, ALPHA = 200, 150          # box side 401, n = 160,801

    def inputs(self, seed, outdir):
        config = _config(outdir, {"dim": 2, "dist": "uniform:0,1", "seed": seed,
                                  "theta": "1,0", "box": 2 * self.RADIUS + 1,
                                  "alpha": self.ALPHA, "jobs": 1})
        out = {n: str(outdir / n) for n in ("graph.csv", "backward.csv", "radii.csv",
                                             "masstransport.csv")}
        out["graph.summary.json"] = str(outdir / "graph.summary.json")
        argvs = [
            ["graph", "--config", config, "--out", out["graph.csv"]],
            ["backward", "--config", config, "--window", "101", "--out", out["backward.csv"]],
            ["radii", "--config", config, "--levels", "0,-50", "--out", out["radii.csv"]],
            ["masstransport", "--config", config, "--dims", "256,256",
             "--out", out["masstransport.csv"]],
        ]
        return OpInput(seed, outdir, argvs, out)

    def run(self, inp):
        for argv in inp.argvs:
            _run_cli(argv)
        env = fppgeo.WeightEnvironment(2, fppgeo.uniform(0.0, 1.0), inp.seed)
        box = fppgeo.Box.cube(self.RADIUS, 2)
        graph = fppgeo.build_graph(
            fppgeo.solve(env, box, fppgeo.HyperplaneTarget((1, 0), self.ALPHA)))
        points = fppgeo.encounter_points(graph)
        return {"env": env, "graph": graph, "encounter_points": points}

    def check(self, inp, result):
        digests = {n: sha256_file(p) for n, p in inp.outputs.items()}
        points = [[int(c) for c in p] for p in result["encounter_points"]]
        digests["encounter_points"] = sha256_json(points)
        errors = []
        g, env = result["graph"], result["env"]
        n = g.n_vertices

        with open(inp.outputs["graph.summary.json"]) as fh:
            summary = json.load(fh)
        if summary["n_vertices"] != n or summary["n_edges"] != g.n_edges:
            errors.append(f"graph summary sizes {summary} differ from the library graph")
        if summary["n_components"] + summary["n_edges"] != summary["n_vertices"]:
            errors.append(f"forest identity fails: {summary}")

        with open(inp.outputs["graph.csv"], "rb") as fh:
            body = fh.read()
        if body.count(b"\n") != n + 1 or body.count(b",,\n") != n - g.n_edges:
            errors.append("graph.csv row or root count differs from the library graph")

        # T[x] == w(x, succ x) + T[succ x] exactly, w recomputed by the hash
        coords = g.box.coords()
        x = np.flatnonzero(g.succ >= 0)
        s = g.succ[x]
        step = coords[s] - coords[x]
        axis = np.argmax(np.abs(step), axis=1)
        forward = step[np.arange(len(x)), axis] > 0
        w = env.edge_weights(np.where(forward[:, None], coords[x], coords[s]), axis)
        if not np.array_equal(g.T[x], w + g.T[s]):
            errors.append("T(x) != w(x, succ x) + T(succ x) for some vertex")
        if np.any(g.T[g.target_mask] != 0.0) or np.any(g.succ[g.target_mask] >= 0):
            errors.append("a target vertex has nonzero T or an out-edge")

        if points and np.any(g.in_degrees()[g.box.indices_of(points)] < 2):
            errors.append("an encounter point has fewer than 2 in-edges")

        tails = {}
        for row in _read_rows(inp.outputs["backward.csv"]):
            tails.setdefault(row["metric"], []).append((int(row["param"] or -1),
                                                         float(row["value"])))
        for metric, first in (("p_size_ge", 1), ("p_depth_ge", 0)):
            values = [v for _, v in sorted(tails.get(metric, []))]
            if not values or sorted(tails[metric])[0] != (first, 1.0) \
                    or any(b > a for a, b in zip(values, values[1:])):
                errors.append(f"backward.csv {metric} is not a tail from 1 down")
        for row in _read_rows(inp.outputs["radii.csv"]):
            level = int(row["param"].split("/")[0])
            r = float(row["value"])
            if level not in (0, -50) or r < 0 or r != int(r):
                errors.append(f"radii.csv row {row} out of range")
                break
        if len(_read_rows(inp.outputs["masstransport.csv"])) != 3:
            errors.append("masstransport.csv does not hold 3 rows")
        return digests, errors, {}


def _staircase_weights(env, points):
    """Per point, the lightest of the d! axis-ordered monotone paths from 0: T <= it."""
    dim = points.shape[1]
    best = np.full(len(points), np.inf)
    for order in itertools.permutations(range(dim)):
        for i, x in enumerate(points):
            pos = np.zeros(dim, dtype=np.int64)
            lows, axes = [], []
            for a in order:
                step = 1 if x[a] > 0 else -1
                for _ in range(abs(int(x[a]))):
                    nxt = pos.copy()
                    nxt[a] += step
                    lows.append(np.minimum(pos, nxt))
                    axes.append(a)
                    pos = nxt
            w = env.edge_weights(np.array(lows, dtype=np.int64).reshape(-1, dim),
                                 np.array(axes, dtype=np.int64))
            best[i] = min(best[i], float(w.sum()))
    return best


class Shape3d:
    """Four point-target solves on the padded 3-d box."""

    name = "shape3d"
    RADIUS, DIRECTIONS, SEEDS = 15, 16, 4

    def inputs(self, seed, outdir):
        config = _config(outdir, {"dim": 3, "dist": "uniform:0,1", "seed": seed, "jobs": 1})
        out = {"shape.csv": str(outdir / "shape.csv")}
        argvs = [["shape", "--config", config, "--radius", str(self.RADIUS),
                  "--directions", str(self.DIRECTIONS), "--seeds", str(self.SEEDS),
                  "--out", out["shape.csv"]]]
        return OpInput(seed, outdir, argvs, out)

    def run(self, inp):
        _run_cli(inp.argvs[0])
        return {}

    def check(self, inp, result):
        digests = {n: sha256_file(p) for n, p in inp.outputs.items()}
        errors = []
        rows = _read_rows(inp.outputs["shape.csv"])
        m, r = self.DIRECTIONS, self.RADIUS
        samples = np.full((self.SEEDS, m), np.nan)
        g_hat = np.full(m, np.nan)
        for row in rows:
            if row["metric"] == "T_over_r":
                samples[int(row["seed"]) - inp.seed, int(row["param"])] = float(row["value"])
            elif row["metric"] == "g_hat":
                g_hat[int(row["param"])] = float(row["value"])
        points = np.floor(r * analysis.direction_grid(3, m)).astype(np.int64)
        T = samples * r
        bound = np.array([_staircase_weights(
            fppgeo.WeightEnvironment(3, fppgeo.uniform(0.0, 1.0), inp.seed + i), points)
            for i in range(self.SEEDS)])
        if np.isnan(T).any() or not (np.all(T > 0) and np.all(T <= bound * (1 + 1e-12))):
            errors.append("shape.csv T(x) is not in (0, weight of the lightest "
                          "axis-ordered path] or rows are missing")
        if not np.allclose(g_hat, samples.mean(axis=0), rtol=1e-12, atol=0):
            errors.append("shape.csv g_hat is not the mean of its T_over_r rows")
        return digests, errors, {}


class Modify2d:
    """Strip modification sweep from a cold protected-vertex cache."""

    name = "modify2d"
    N_LIST, SEEDS, M_SLOPE = (24, 48, 96), 2, 0.25

    def inputs(self, seed, outdir):
        config = _config(outdir, {"dim": 2, "dist": "uniform:0,1", "seed": seed,
                                  "theta": "1,0", "jobs": 1})
        out = {"modify.csv": str(outdir / "modify.csv")}
        argvs = [["modify", "--config", config,
                  "--N-list", ",".join(map(str, self.N_LIST)),
                  "--M-rule", f"linear:{self.M_SLOPE}", "--seeds", str(self.SEEDS),
                  "--out", out["modify.csv"]]]
        return OpInput(seed, outdir, argvs, out)

    def run(self, inp):
        # Every CLI process starts with an empty protected-vertex cache; without
        # this clear every op after the first would time a warm cache.
        _protected_cache.cache_clear()
        _run_cli(inp.argvs[0])
        info = _protected_cache.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def check(self, inp, result):
        digests = {n: sha256_file(p) for n, p in inp.outputs.items()}
        errors = []
        rows = _read_rows(inp.outputs["modify.csv"])
        expected = [(inp.seed + i, n) for i in range(self.SEEDS) for n in self.N_LIST]
        if [(int(r["seed"]), int(r["N"])) for r in rows] != expected:
            errors.append("modify.csv rows are not one per (seed, N)")
        for row in rows:
            severed, witness = row["severed"], row["witness_level"]
            if float(row["M"]) != self.M_SLOPE * int(row["N"]) \
                    or row["event_pass"] not in ("0", "1") or severed not in ("0", "1") \
                    or (severed == "1") != (witness == "") \
                    or (witness != "" and int(witness) > 0):
                errors.append(f"modify.csv row {row} is inconsistent")
                break
        # One row again through the library (a row with a witness when there is
        # one), with the modify command's defaults for theta = e1: y = (0, -1),
        # xi = (N, 0), M_prime 3, epsilon and delta 0.1.  The op's protected
        # sets are still cached, so this costs two small solves.
        if rows and not errors:
            row = next((r for r in rows if r["severed"] == "0"), rows[0])
            n = int(row["N"])
            out = fppgeo.run_modification(
                fppgeo.WeightEnvironment(2, fppgeo.uniform(0.0, 1.0), int(row["seed"])),
                fppgeo.StripSpec((1, 0), n, self.M_SLOPE * n, 3, 0.1, 0.1), (0, -1),
                fppgeo.lattice_point_on_level((1, 0), n))
            witness = "" if out.verdict.witness is None else str(out.verdict.witness[0])
            if (row["event_pass"], row["severed"], row["witness_level"]) != \
                    (str(int(out.event.passed)), str(int(out.severed)), witness):
                errors.append(f"modify.csv row {row} differs from run_modification")
        counts = {"modification.protected_vertices.hits": result["hits"],
                  "modification.protected_vertices.misses": result["misses"]}
        return digests, errors, counts


WORKLOADS = {w.name: w for w in (Forest2d(), Shape3d(), Modify2d())}


def build_inputs(workload, run_seed, root):
    """Write the config files of a run and return its POOL op inputs."""
    wl = WORKLOADS[workload]
    return [wl.inputs(program_seed(run_seed, j), Path(root) / f"op{j}") for j in range(POOL)]
