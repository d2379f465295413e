import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fppgeo
from fppgeo import cli
from fppgeo.analysis import crossing_counts, direction_grid
from fppgeo.cli import main
from fppgeo.environment import WeightEnvironment, uniform
from fppgeo.geodesics import HyperplaneTarget, ParameterError, solve
from fppgeo.lattice import Box
from fppgeo.manifest import canonical_json, export_csv, export_json

from oracles import check_manifest, shape_over_seeds


def run_cli(args):
    """Run the CLI; a run that succeeds must leave a manifest that ``check_manifest`` accepts."""
    rc = main(args)
    if rc == 0:
        check_manifest(str(Path(args[args.index("--out") + 1]).with_suffix("")) + ".manifest.json")
    return rc


def test_graph_command_outputs_and_manifest(tmp_path):
    out = tmp_path / "g.csv"
    rc = run_cli(["graph", "--dim", "2", "--box", "15", "--dist", "uniform:0,1",
                  "--theta", "1,0", "--alpha", "4", "--seed", "7",
                  "--out", str(out)])
    assert rc == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "x1,x2,dx1,dx2"
    manifest = check_manifest(tmp_path / "g.manifest.json")
    assert manifest["outputs"].keys() == {"g.csv", "g.summary.json"}
    summary = json.loads((tmp_path / "g.summary.json").read_text())
    assert summary["n_vertices"] == 15 * 15


def test_manifest_of_a_relative_out_checks_from_another_directory(tmp_path, monkeypatch):
    (tmp_path / "run").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    assert run_cli(["graph", *_D2, "--box", "9", "--theta", "1,0", "--alpha", "2",
                    "--out", "g.csv"]) == 0
    monkeypatch.chdir(tmp_path / "elsewhere")
    manifest = check_manifest(tmp_path / "run" / "g.manifest.json")
    assert manifest["outputs"].keys() == {"g.csv", "g.summary.json"}


def test_manifest_tool_version_is_the_package_version(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli(["graph", *_D2, "--box", "9", "--theta", "1,0", "--alpha", "2",
                    "--out", str(out)]) == 0
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert check_manifest(tmp_path / "g.manifest.json")["tool_version"] == fppgeo.__version__
    assert fppgeo.__version__ == version


def test_graph_command_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["graph", "--dim", "2", "--box", "15", "--dist", "uniform:0,1",
            "--theta", "1,0", "--alpha", "4", "--seed", "3"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_distribution_is_config_error(tmp_path, capsys):
    rc = run_cli(["graph", "--dim", "2", "--box", "15", "--dist", "uniform:1,0",
                  "--theta", "1,0", "--alpha", "4", "--seed", "0",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dist" in err


@pytest.mark.parametrize("command, key, args", [
    ("shape", "radius", ["--dim", "2", "--dist", "uniform:0,1"]),
    ("graph", "alpha", ["--dim", "2", "--dist", "uniform:0,1", "--box", "15",
                        "--theta", "1,0"]),
    ("masstransport", "dims", ["--dim", "2", "--dist", "uniform:0,1", "--theta", "1,0"]),
])
def test_missing_required_key_is_config_error(tmp_path, capsys, command, key, args):
    rc = run_cli([command, *args, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"config error: {key}: missing required setting"


@pytest.mark.parametrize("command, key, args", [
    ("masstransport", "dims", ["--theta", "1,0", "--dims", "64,x"]),
    ("radii", "levels", ["--theta", "1,0", "--box", "15", "--alpha", "4", "--levels", "0,z"]),
    ("modify", "N_list", ["--theta", "1,0", "--N-list", "24,q"]),
])
def test_bad_integer_list_names_key(tmp_path, capsys, command, key, args):
    rc = run_cli([command, "--dim", "2", "--dist", "uniform:0,1", *args,
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


@pytest.mark.parametrize("flag, value, rest", [
    ("--levels", "-5,0", ["--theta", "1,1"]),
    ("--theta", "-1,1", ["--levels", "0,4"]),
], ids=["levels", "theta"])
def test_list_flag_takes_a_leading_negative_entry(tmp_path, flag, value, rest):
    radii = ["radii", *_D2, "--box", "41", "--alpha", "10", *rest]
    spaced, equals = tmp_path / "spaced.csv", tmp_path / "equals.csv"
    assert run_cli([*radii, flag, value, "--out", str(spaced)]) == 0
    assert run_cli([*radii, f"{flag}={value}", "--out", str(equals)]) == 0
    assert spaced.read_bytes() == equals.read_bytes()


def test_config_file_integer_lists(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfg = {"dim": 2, "dist": "uniform:0,1", "theta": [1, 0], "dims": [8, 8]}
    cfgfile.write_text(json.dumps(cfg))
    args = ["masstransport", "--config", str(cfgfile), "--out", str(tmp_path / "j.csv")]
    assert run_cli(args) == 0
    assert run_cli(["masstransport", "--dim", "2", "--dist", "uniform:0,1", "--theta", "1,0",
                    "--dims", "8,8", "--out", str(tmp_path / "f.csv")]) == 0
    assert (tmp_path / "j.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()
    for bad in ([8, "x"], [8, 1.5], [8, True], []):
        cfgfile.write_text(json.dumps(dict(cfg, dims=bad)))
        capsys.readouterr()
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("config error: dims:")


def test_config_error_in_worker_names_key(tmp_path, capsys):
    rc = run_cli(["shape", "--dim", "2", "--dist", "uniform:1,0", "--radius", "3",
                  "--seeds", "2", "--jobs", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: dist:")


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "dim": 2, "dist": "uniform:0,1", "box": 15, "theta": "1,0",
        "alpha": 4, "seed": 1}))
    out = tmp_path / "g.csv"
    rc = run_cli(["graph", "--config", str(cfgfile), "--seed", "2",
                  "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "g.manifest.json").read_text())
    assert manifest["config"]["seed"] == 2  # flag wins over file


def test_module_entrypoint_runs():
    # the package may reach the tests through pytest's pythonpath setting only
    src = str(Path(fppgeo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fppgeo", "--help"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "fppgeo" in proc.stdout


def test_shape_command(tmp_path):
    out = tmp_path / "s.csv"
    rc = run_cli(["shape", "--dim", "2", "--dist", "uniform:0,1", "--radius", "12",
                  "--seed", "0", "--seeds", "2", "--axis", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,seed,param,value"
    assert any(l.startswith("g_hat") for l in lines)


def test_shape_rows_match_estimate_shape(tmp_path):
    # the CLI runs one estimate_shape per seed and stacks their rows, as the helper does
    out = tmp_path / "s.csv"
    assert run_cli(["shape", "--dim", "2", "--dist", "uniform:0,1", "--radius", "9",
                    "--directions", "6", "--seed", "5", "--seeds", "3", "--out", str(out)]) == 0
    est = shape_over_seeds(WeightEnvironment(2, uniform(0.0, 1.0), 5), 9, direction_grid(2, 6), 3)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for metric, values in (("g_hat", est.g_hat), ("g_stderr", est.g_stderr)):
        got = [float(value) for name, _, _, value in rows if name == metric]
        assert np.array(got).tobytes() == values.tobytes()
    got = [float(value) for name, _, _, value in rows if name == "T_over_r"]
    assert np.array(got).tobytes() == (est.T_samples / 9).ravel().tobytes()


def test_busemann_backward_crossings_radii_masstransport(tmp_path):
    common = ["--dim", "2", "--dist", "uniform:0,1", "--seed", "0",
              "--theta", "1,0"]
    assert run_cli(["busemann", *common, "--box", "61", "--alpha", "20",
                    "--window", "9", "--out", str(tmp_path / "b.csv")]) == 0
    assert run_cli(["backward", *common, "--box", "61", "--alpha", "15",
                    "--window", "11", "--out", str(tmp_path / "t.csv")]) == 0
    assert run_cli(["crossings", *common, "--box", "61", "--alpha", "15",
                    "--levels=-5,0,5", "--samples", "10",
                    "--out", str(tmp_path / "c.csv")]) == 0
    assert run_cli(["radii", *common, "--box", "61", "--alpha", "15",
                    "--levels", "0,2", "--window", "21",
                    "--out", str(tmp_path / "r.csv")]) == 0
    assert run_cli(["masstransport", *common, "--dims", "8,8", "--level", "0",
                    "--seeds", "3", "--out", str(tmp_path / "m.csv")]) == 0
    mt = (tmp_path / "m.csv").read_text().splitlines()
    assert all(row.split(",")[3] == "0" for row in mt[1:] if row.startswith("difference"))


def test_crossings_rows_name_their_vertex(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli(["crossings", "--dim", "2", "--dist", "uniform:0,1", "--box", "41",
                    "--theta", "1,1", "--alpha", "10", "--levels=-3,0,3", "--samples", "4",
                    "--seed", "4", "--out", str(out)]) == 0
    g = solve(WeightEnvironment(2, uniform(0.0, 1.0), 4), Box.cube(20, 2),
              HyperplaneTarget((1, 1), 10))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    named = set()
    for metric, seed, param, value in rows[:-1]:
        vertex, level = param.split("/")
        x = tuple(int(c) for c in vertex.split(";"))
        report = crossing_counts(g, (1, 1), [int(level)], [x])
        assert (metric, seed, value) == ("crossings", "4", str(report.counts[0, 0]))
        named.add((x, int(level)))
    assert len(named) == len(rows) - 1 == 4 * 3
    assert rows[-1][:3] == ["max_count", "4", ""]


def test_modify_command_schema(tmp_path):
    out = tmp_path / "mod.csv"
    rc = run_cli(["modify", "--dim", "2", "--dist", "uniform:0,1", "--theta", "1,0",
                  "--N-list", "8", "--M-rule", "const:5", "--M-prime", "2",
                  "--epsilon", "0.2", "--delta", "0.1", "--mode", "bounded",
                  "--seed", "0", "--seeds", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,N,M,event_pass,severed,witness_level"
    assert len(lines) == 3


def test_jobs_parallel_identical_output(tmp_path):
    for args in (["masstransport", "--dim", "2", "--dist", "uniform:0,1", "--theta", "1,0",
                  "--dims", "8,8", "--level", "0", "--seed", "0", "--seeds", "4"],
                 ["shape", "--dim", "2", "--dist", "uniform:0,1", "--radius", "7",
                  "--directions", "5", "--seed", "1", "--seeds", "4"],
                 # a field command: the workers solve, and each study is a lambda
                 ["radii", "--dim", "2", "--dist", "uniform:0,1", "--box", "41", "--theta", "1,1",
                  "--alpha", "10", "--levels", "0,2", "--seed", "2", "--seeds", "4"]):
        a, b = tmp_path / f"{args[0]}1.csv", tmp_path / f"{args[0]}2.csv"
        assert run_cli(args + ["--out", str(a), "--jobs", "1"]) == 0
        assert run_cli(args + ["--out", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()


FIELD_COMMANDS = ["graph", "busemann", "backward", "crossings", "radii"]


def test_field_commands_are_those_that_take_alpha():
    assert FIELD_COMMANDS == [name for name, c in cli.COMMANDS.items() if "alpha" in c.settings]


@pytest.mark.parametrize("command", FIELD_COMMANDS)
def test_field_command_solves_once_per_seed(tmp_path, monkeypatch, command):
    solved = []

    def counting_solve(env, box, target):
        solved.append((env.seed, box, target))
        return solve(env, box, target)

    monkeypatch.setattr(cli, "solve", counting_solve)
    seeds = ["--seeds", "3"] if "seeds" in cli.COMMANDS[command].settings else []
    assert run_cli([command, *_D2, "--box", "41", "--theta", "1,0", "--alpha", "10", "--seed", "4",
                    *seeds, "--out", str(tmp_path / "x.csv")]) == 0
    assert solved == [(s, Box.cube(20, 2), HyperplaneTarget((1, 0), 10))
                      for s in range(4, 4 + (3 if seeds else 1))]


def test_jobs_start_at_most_one_worker_per_task(tmp_path, monkeypatch):
    seen = []

    class SerialPool:
        """Stands in for the process pool: records its size, maps in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, task, arglist):
            return map(task, arglist)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    args = ["radii", *_D2, "--box", "41", "--theta", "1,1", "--alpha", "10", "--levels", "0,2",
            "--seed", "5", "--seeds", "2"]
    a, b = tmp_path / "j1.csv", tmp_path / "many.csv"
    assert run_cli(args + ["--out", str(a), "--jobs", "1"]) == 0
    assert seen == []
    assert run_cli(args + ["--out", str(b), "--jobs", "1000000"]) == 0
    assert seen == [2]
    assert a.read_bytes() == b.read_bytes()


def test_export_csv_empty_report(tmp_path):
    p = tmp_path / "empty.csv"
    export_csv(p, ("metric", "seed", "param", "value"), [])
    assert p.read_text() == "metric,seed,param,value\n"


def test_export_report_roundtrip_and_counts(tmp_path):
    # the CLI exports a report as its long-format rows
    class Rep:
        def rows(self):
            return [("m", 0, 1, 0.1234567890123456789), ("m", 1, 2, 3.0)]

    rep = Rep()
    csv_path = tmp_path / "r.csv"
    export_csv(csv_path, ("metric", "seed", "param", "value"), rep.rows())
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + len(rep.rows())
    # 17 significant digit formatting round-trips exactly
    val = float(lines[1].split(",")[-1])
    assert val == 0.1234567890123456789
    assert lines[2] == "m,1,2,3"


def test_canonical_json_stable():
    a = canonical_json({"b": 1.5, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1.5})
    assert a == b == '{"a":[1,2],"b":1.5}'


def test_check_manifest_rejects_tampered_manifests(tmp_path):
    out = tmp_path / "g.csv"
    assert run_cli(["graph", *_D2, "--box", "9", "--theta", "1,0", "--alpha", "2",
                    "--out", str(out)]) == 0
    path = tmp_path / "g.manifest.json"
    good = json.loads(path.read_text())
    edited = dict(good, config=dict(good["config"], alpha=3))
    cases = [(edited, "config_digest")]
    cases += [({k: v for k, v in good.items() if k != key}, key) for key in good]
    for manifest, key in cases:
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"^{key}: "):
            check_manifest(path)
    path.write_text(json.dumps(good))
    with open(out, "ab") as fh:
        fh.write(b"0")
    with pytest.raises(ValueError, match=f"^outputs: {out} does not match"):
        check_manifest(path)


def test_export_json_writes_sorted(tmp_path):
    p = tmp_path / "o.json"
    export_json(p, {"z": 1, "a": 2})
    assert p.read_text() == '{"a":2,"z":1}\n'


_D2 = ["--dim", "2", "--dist", "uniform:0,1"]


# SHA-256 of each primary output of small runs of every subcommand
@pytest.mark.parametrize("command, args, digests", [
    ("shape", ["--dim", "3", "--dist", "exponential:1", "--radius", "4", "--directions", "5",
               "--seed", "3", "--seeds", "2"],
     {"shape.csv": "83bfffae6f258b7ee6a5506c331f0bc16275dd92f5e698651d5695ac5fb434e5"}),
    ("graph", [*_D2, "--box", "15", "--theta", "1,1", "--alpha", "3", "--seed", "7"],
     {"graph.csv": "35dee591f66fab97abd394c10d37c654567155b686752cb79724e55d203d1239",
      "graph.summary.json": "d3dbc5e7f6555599efd4083681ad96cd99e844d3210cc4604a1a036779f18267"}),
    ("busemann", [*_D2, "--box", "41", "--theta", "1,0", "--alpha", "12", "--window", "9",
                  "--seed", "1", "--seeds", "2"],
     {"busemann.csv": "ebe092f8df73b6646450bc4c50f012d7e5002623100c78af8464e9d95131d3cd"}),
    ("backward", [*_D2, "--box", "41", "--theta", "1,0", "--alpha", "10", "--window", "9",
                  "--seed", "2", "--seeds", "2"],
     {"backward.csv": "b084b3ee31f28e00e9491f051c6ef9034689ee5c8c7a28ff25ee0b3684c3397e"}),
    ("crossings", [*_D2, "--box", "41", "--theta", "1,0", "--alpha", "10", "--levels=-3,0,3",
                   "--samples", "5", "--seed", "4", "--seeds", "2"],
     {"crossings.csv": "c32a0fcecaf78b0acf482c5e95fc16e48ba4004ebfcb41e88d19bebfa4ff6aac"}),
    ("radii", [*_D2, "--box", "41", "--theta", "1,1", "--alpha", "10", "--levels", "0,2",
               "--seed", "5", "--seeds", "2"],
     {"radii.csv": "56203ec025a6f93741a234f31817b27e5e0750dd539d31280fcd6549ebcbfa81"}),
    ("masstransport", [*_D2, "--theta", "1,0", "--dims", "8,8", "--level", "1",
                       "--seed", "6", "--seeds", "2"],
     {"masstransport.csv": "b4da6e21f45c3a98fab35fedaaae3edd0e2994ed76ca4651497c39ec7e995251"}),
    ("modify", [*_D2, "--theta", "1,0", "--N-list", "4,8,12", "--M-rule", "const:3",
                "--M-prime", "2", "--epsilon", "0.2", "--y", "0,1", "--seed", "0",
                "--seeds", "2", "--jobs", "2"],
     {"modify.csv": "db4a6b54afa18c071866dfa708173361d9a793e509057c4214fb22ae56eae391"}),
    # off-axis theta: edges cross level 0 and level N strictly inside them
    ("modify", [*_D2, "--theta", "2,-1", "--N-list", "6,10,15", "--M-rule", "const:3",
                "--seeds", "3"],
     {"modify.csv": "b69d689c0403ba0ed2d2ac2a826d1dd281d28f0d9e52bb62a35cedf4c98d4f6e"}),
    # the --axis branch of shape: one direction, e1, in 3-d
    ("shape", ["--dim", "3", "--dist", "uniform:0,1", "--radius", "6", "--axis",
               "--seed", "2", "--seeds", "3"],
     {"shape.csv": "bdd1ef4887f9b92fec88826132e8285e25efb016b8db85bb16668159dce22dde"}),
])
def test_primary_output_bytes_pinned(tmp_path, command, args, digests):
    first = next(iter(digests))
    assert run_cli([command, *args, "--out", str(tmp_path / first)]) == 0
    actual = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in digests}
    assert actual == digests


def test_config_file_axis_is_honoured(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"dim": 2, "dist": "uniform:0,1", "radius": 4, "axis": True}))
    out = tmp_path / "s.csv"
    assert run_cli(["shape", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert {row.split(",")[2] for row in out.read_text().splitlines()[1:]} == {"0"}
    manifest = json.loads((tmp_path / "s.manifest.json").read_text())
    assert manifest["config"]["axis"] is True


_FIELD_CFG = {"dim": 2, "dist": "uniform:0,1", "box": 41, "theta": "1,0", "alpha": 10}


@pytest.mark.parametrize("command, key, config", [
    ("shape", "radius", {"dim": 2, "dist": "uniform:0,1", "radius": "abc"}),
    ("crossings", "samples", dict(_FIELD_CFG, samples="many")),
    ("radii", "seeds", dict(_FIELD_CFG, seeds="x")),
    ("shape", "axis", {"dim": 2, "dist": "uniform:0,1", "radius": 4, "axis": "yes"}),
    ("graph", "box", dict(_FIELD_CFG, box=2)),
    ("masstransport", "dist", {"dim": 2, "dist": 5, "theta": "1,0", "dims": "8,8"}),
    ("modify", "M_rule", {"dim": 2, "dist": "uniform:0,1", "theta": "1,0", "M_rule": "const:x"}),
    ("modify", "mode", {"dim": 2, "dist": "uniform:0,1", "theta": "1,0", "mode": "sideways"}),
    ("modify", "epsilon", {"dim": 2, "dist": "uniform:0,1", "theta": "1,0", "epsilon": [1]}),
    ("shape", "radius", {"dim": 2, "dist": "uniform:0,1", "radius": 4.7}),
    ("shape", "radius", {"dim": 2, "dist": "uniform:0,1", "radius": True}),
    ("shape", "radius", {"dim": 2, "dist": "uniform:0,1", "radius": 0}),
    ("backward", "window", dict(_FIELD_CFG, window=0)),
])
def test_wrong_typed_config_value_names_key(tmp_path, capsys, command, key, config):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    rc = run_cli([command, "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


@pytest.mark.parametrize("command, args", [
    ("backward", ["--window", "1"]),
    ("busemann", ["--window", "1"]),
    ("crossings", ["--levels", "0,2"]),
    ("radii", ["--levels", "0,2"]),
])
def test_box_too_small_for_analysis_pad_names_key(tmp_path, capsys, command, args):
    # the pad is at least 16 per face, so a cube needs side 33 to keep one vertex
    argv = [command, *_D2, "--theta", "1,0", "--alpha", "4", *args, "--seeds", "2",
            "--jobs", "2", "--out", str(tmp_path / "x.csv")]
    assert run_cli(argv + ["--box", "31"]) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: box: (-15, -15)..(15, 15) leaves no vertex inside its analysis pad of 16; "
        "the smallest side accepted is 33")
    if command != "busemann":
        assert run_cli(argv + ["--box", "33"]) == 0
    else:                           # a one-vertex window fits no Busemann vector
        assert run_cli(argv + ["--box", "33"]) == 2
        assert capsys.readouterr().err.startswith("config error: window: (0, 0)..(0, 0) ")


@pytest.mark.parametrize("command", ["backward", "busemann", "radii"])
def test_default_window_is_the_box_less_its_analysis_pad(tmp_path, command):
    # box 41 has pad 16 on each face, which leaves a cube of side 9
    argv = [command, *_D2, "--box", "41", "--theta", "1,0", "--alpha", "10", "--seeds", "2"]
    assert run_cli(argv + ["--out", str(tmp_path / "default.csv")]) == 0
    assert run_cli(argv + ["--window", "9", "--out", str(tmp_path / "nine.csv")]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "nine.csv").read_bytes()


@pytest.mark.parametrize("command, key, side, args", [
    ("graph", "box", 40, []),
    ("backward", "box", -4, ["--window", "9"]),
    ("radii", "window", 2, ["--box", "41"]),
])
def test_even_side_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch, command, key,
                                                side, args):
    def no_solve(*a):
        raise AssertionError("solved")
    monkeypatch.setattr(cli, "solve", no_solve)
    argv = [command, *_D2, "--theta", "1,0", "--alpha", "0", *args,
            "--out", str(tmp_path / "x.csv")]
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: side}))
    for extra in ([f"--{key}={side}"], ["--config", str(cfgfile)]):
        assert run_cli(argv + extra) == 2
        assert capsys.readouterr().err == (f"config error: {key}: side {side} is even; "
                                           "a cube around the origin has an odd side\n")


def test_config_file_integers_are_strict(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    out = ["--out", str(tmp_path / "s.csv")]
    for value, shown in ((4.7, "4.7"), (True, "True"), ("4x", "'4x'")):
        cfgfile.write_text(json.dumps({"dim": 2, "dist": "uniform:0,1", "radius": value}))
        assert run_cli(["shape", "--config", str(cfgfile), *out]) == 2
        assert capsys.readouterr().err == f"config error: radius: expected an integer, got {shown}\n"
    # integral numbers and digit strings convert; a flag keeps argparse's message
    cfgfile.write_text(json.dumps({"dim": 2.0, "dist": "uniform:0,1", "radius": "4"}))
    assert run_cli(["shape", "--config", str(cfgfile), "--seeds", "2", "--jobs", "2", *out]) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["shape", *_D2, "--radius", "4.7", *out])
    assert exc.value.code == 2
    assert "argument --radius: invalid int value: '4.7'" in capsys.readouterr().err


@pytest.mark.parametrize("command, args, message", [
    ("graph", ["--box", "15", "--theta", "1,0", "--alpha", "100"],
     "alpha: no target vertex inside box (-7, -7)..(7, 7)"),
    ("radii", ["--box", "41", "--theta", "1,0", "--alpha", "4", "--window", "99"],
     "window: (-49, -49)..(49, 49) is not inside its box (-20, -20)..(20, 20)"),
    ("backward", ["--box", "41", "--theta", "1,0", "--alpha", "4", "--window", "11"],
     "window: (-5, -5)..(5, 5) is not inside the analysis region (-4, -4)..(4, 4) "
     "of its box"),
    ("graph", ["--box", "15", "--theta", "1,0,0", "--alpha", "4"],
     "theta: expected 2 integers, got 3"),
    ("masstransport", ["--dims", "8,8,8", "--theta", "1,0"], "dims: expected 2 integers, got 3"),
    ("masstransport", ["--dims", "8,8", "--theta", "1,0", "--level", "8"],
     "level: no target vertex on torus (8, 8)"),
    ("busemann", ["--box", "33", "--theta", "1,0", "--alpha", "4", "--window", "1"],
     "window: (0, 0)..(0, 0) spans fewer than 2 dimensions; it fits no Busemann vector"),
    ("busemann", ["--box", "33", "--theta", "1,0", "--alpha", "4", "--window", "2"],
     "window: side 2 is even; a cube around the origin has an odd side"),
    ("backward", ["--box", "33", "--theta", "1,0", "--alpha", "-16", "--window", "1"],
     "box: (-16, -16)..(16, 16): all clusters censored; enlarge the box"),
    ("backward", ["--box", "41", "--theta", "1,0", "--alpha", "100", "--window", "9"],
     "alpha: no target vertex inside box (-20, -20)..(20, 20)"),
    # raised by the library in a --jobs worker, after every setting converted
    ("radii", ["--box", "41", "--theta", "1,0", "--alpha", "100", "--seeds", "2", "--jobs", "2"],
     "alpha: no target vertex inside box (-20, -20)..(20, 20)"),
], ids=["alpha", "radii-window", "backward-window", "theta", "dims", "level",
        "busemann-window-1", "busemann-window-2", "backward-censored", "backward-alpha",
        "radii-alpha-jobs"])
def test_target_errors_name_key(tmp_path, capsys, command, args, message):
    assert run_cli([command, *_D2, *args, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command, args, message", [
    ("crossings", ["--box", "41", "--theta", "1,0", "--alpha", "4", "--samples", "-2"],
     "samples: must be at least 1, got -2"),
    ("shape", ["--radius", "4", "--directions", "0"], "directions: must be at least 1, got 0"),
    ("masstransport", ["--dims", "8,2", "--theta", "1,0"], "dims: must be at least 3, got 2"),
    ("masstransport", ["--dims", "-4,8", "--theta", "1,0"], "dims: must be at least 3, got -4"),
    ("modify", ["--theta", "1,0", "--N-list", "4,0"], "N_list: must be at least 1, got 0"),
    ("modify", ["--theta", "1,0", "--y", "99,99"], "y: (99, 99) is not on level 0 of theta (1, 0)"),
    ("modify", ["--theta", "1,0", "--N-list", "8", "--xi", "5,0"],
     "xi: (5, 0) is not on level 8 of theta (1, 0)"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--y", "0,99"],
     "y: (0, 99) has l1 norm above M_prime = 3"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--delta", "0.4"],
     "delta: 0.4 is too large for bounded mode: the mean 0.5 exceeds S - 2 delta = 0.2"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--mode", "unbounded"],
     "lam: unbounded mode needs a lambda"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--mode", "sideways"],
     "mode: unknown mode 'sideways'"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--mode", "unbounded", "--lambda", "-1"],
     "lam: must be at least 0, got -1.0"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--mode", "unbounded", "--lambda", "nan"],
     "lam: must be at least 0, got nan"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--dist", "exponential:1"],
     "dist: bounded mode needs a finite support, got exponential:1"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--M-prime", "0"],
     "M_prime: must be at least 1, got 0"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--epsilon", "0"],
     "epsilon: must be positive, got 0.0"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--M-rule", "const:0"],
     "M_rule: M = 0 at N = 24 must be positive"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--M-rule", "const:0", "--seeds", "2",
                "--jobs", "2"], "M_rule: M = 0 at N = 24 must be positive"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--mode", "unbounded", "--lambda", "inf"],
     "lam: must be finite, got inf"),
    ("modify", ["--theta", "1,0", "--N-list", "24", "--epsilon", "inf"],
     "epsilon: must be finite, got inf"),
    ("shape", ["--radius", "4", "--dist", "uniform:0,inf"],
     "dist: bad dist 'uniform:0,inf': parameters must be finite"),
    ("shape", ["--radius", "4", "--dist", "exponential:inf"],
     "dist: bad dist 'exponential:inf': parameters must be finite"),
    # a kind that is gone: uniform-shifted:s,w gave exactly the weights of uniform:s,s+w
    ("shape", ["--radius", "4", "--dist", "uniform-shifted:0.5,1"],
     "dist: bad dist 'uniform-shifted:0.5,1': unknown distribution kind 'uniform-shifted'"),
    ("graph", ["--box", "15", "--theta", "1,0", "--alpha", "4", "--jobs", "0"],
     "jobs: must be at least 1, got 0"),
], ids=["samples", "directions", "dims", "dims-negative", "N_list", "y", "xi", "y-l1", "delta", "lam-missing",
        "mode", "lam-negative", "lam-nan", "dist", "M_prime", "epsilon", "M_rule", "M_rule-jobs",
        "lam-inf", "epsilon-inf", "dist-uniform-inf", "dist-exponential-inf",
        "dist-uniform-shifted", "jobs"])
def test_out_of_range_settings_name_key(tmp_path, capsys, command, args, message):
    assert run_cli([command, *_D2, *args, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _exit_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [["--help"], ["-h", "modify"]]
                         + [[name, "--help"] for name in cli.COMMANDS]
                         + [["frob"], ["modify", "--no-such-flag"], ["graph", "--dim", "x"], []])
def test_main_parses_as_the_parser_of_every_command(capsys, argv):
    # main builds the invoked command's parser alone; its help, usage and errors are
    # those of the parser that holds every command's flags
    full = _exit_output(capsys, cli.build_parser().parse_args, argv)
    assert _exit_output(capsys, main, argv) == full
    code, out, err = full
    if argv[-1:] == ["--help"] and argv[0] in cli.COMMANDS:
        text = " ".join(out.split())
        for key in cli.COMMANDS[argv[0]].settings + cli.COMMON:
            setting = cli.SETTINGS[key]
            flag = setting.flag or "--" + key.replace("_", "-")
            assert flag in text and " ".join((setting.help or "").split()) in text
    elif argv == ["frob"]:
        assert code == 2 and "argument cmd: invalid choice: 'frob'" in err


def test_modify_help_names_both_modes(capsys):
    with pytest.raises(SystemExit):
        main(["modify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--mode MODE bounded, or unbounded with --lambda" in text


@pytest.mark.parametrize("key, value", [("lam", "inf"), ("epsilon", "inf"), ("delta", "-inf"),
                                        ("M_rule", "const:inf")])
def test_non_finite_setting_stops_before_any_output(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "unbounded", "lam": 2.0, key: value}))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["modify", *_D2, "--theta", "1,0", "--N-list", "24", "--config", str(config),
                    "--out", str(out / "modify.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: must be finite, got ")
    assert list(out.iterdir()) == []


# a ParameterError that names no setting of the command is a program fault too
@pytest.mark.parametrize("error", [ValueError("a program fault"), KeyError("missing"),
                                   ParameterError("nonsense", "not a setting of graph")])
def test_program_fault_is_internal_error(tmp_path, capsys, monkeypatch, error):
    def study(cfg, seed, g):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "graph", replace(cli.COMMANDS["graph"], study=study))
    out = tmp_path / "g.csv"
    assert run_cli(["graph", *_D2, "--box", "15", "--theta", "1,0", "--alpha", "4",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {error!r}\n")
    assert "Traceback (most recent call last)" in err and "config error" not in err
    assert not out.exists()
