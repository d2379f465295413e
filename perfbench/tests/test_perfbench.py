"""Tests of the benchmark's own arithmetic, names and output gate (no workload is run)."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _recorder(span_list, ops):
    rec = spans.Recorder()
    rec.spans = span_list
    rec.ops = ops
    return rec


def test_self_time_nested_children():
    # op 0: a [0, 10] > b [1, 6] > c [2, 5]; only direct children count
    rec = _recorder([("x.a", 0.0, 10.0, -1, 0), ("x.b", 1.0, 6.0, 0, 0),
                     ("y.c", 2.0, 5.0, 1, 0)], [(0, 0.0, 10.0)])
    total, own, other = rec.summarize()
    assert own["x.a"] == pytest.approx(5.0)
    assert own["x.b"] == pytest.approx(2.0)
    assert own["y.c"] == pytest.approx(3.0)
    assert own["x"] == pytest.approx(7.0) and own["y"] == pytest.approx(3.0)
    assert total["x.a"] == pytest.approx(10.0)
    assert other[0] == pytest.approx(0.0)


def test_self_time_back_to_back_children_and_other_remainder():
    # children [1, 3] and [3, 4] touch; a third child repeats part of [1, 3]
    rec = _recorder([("x.a", 1.0, 9.0, -1, 0), ("x.b", 1.0, 3.0, 0, 0),
                     ("x.b", 3.0, 4.0, 0, 0), ("x.c", 2.0, 2.5, 0, 0),
                     ("x.a", 10.0, 11.0, -1, 1)],
                    [(0, 0.0, 10.0), (1, 10.0, 12.0)])
    total, own, other = rec.summarize()
    assert own["x.a"] == pytest.approx(5.0 + 1.0)
    assert total["x.b"] == pytest.approx(3.0)
    assert other[0] == pytest.approx(2.0)
    assert other[1] == pytest.approx(1.0)
    assert spans.covered([(0.0, 5.0), (4.0, 6.0)], 1.0, 5.5) == pytest.approx(4.5)


def test_tail_percentile_rule():
    assert report.tail_percentile(list(range(19))) is None
    p, value, n_above = report.tail_percentile(list(range(20)))
    assert (p, value, n_above) == (50.0, 9, 10)
    p, value, n_above = report.tail_percentile(list(range(40)))
    assert (p, value, n_above) == (75.0, 29, 10)
    p, value, n_above = report.tail_percentile(list(range(1000)))
    assert (p, value, n_above) == (99.0, 989, 10)
    p, _, n_above = report.tail_percentile(list(range(150)))
    assert (p, n_above) == (90.0, 15)


def test_metric_names_are_valid_and_match_the_benchmark_file():
    for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
        assert not report.valid_name(bad)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(report.valid_name(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == report.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


def test_output_gate_catches_one_flipped_byte(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"metric,seed,param,value\nradius,,0/3,7\n")
    recorded = {"out.csv": workloads.sha256_file(path)}
    assert workloads.digest_mismatches({"out.csv": workloads.sha256_file(path)}, recorded) == []
    body = bytearray(path.read_bytes())
    body[-2] ^= 0x01
    path.write_bytes(bytes(body))
    assert workloads.digest_mismatches({"out.csv": workloads.sha256_file(path)},
                                       recorded) == ["out.csv"]
    assert workloads.digest_mismatches({}, recorded) == ["out.csv"]


def test_recorded_digests_cover_every_pool_input():
    table = json.loads((HERE / "digests.json").read_text())
    for name in workloads.WORKLOADS:
        seeds = {str(workloads.program_seed(0, j)) for j in range(workloads.POOL)}
        assert set(table[name]) == seeds
