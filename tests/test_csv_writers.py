"""The chunked CSV writers against the row-by-row renderings in ``oracles``."""

import numpy as np
import pytest

from fppgeo.environment import WeightEnvironment, uniform
from fppgeo.geodesic_graph import build_graph, graph_to_csv
from fppgeo.geodesics import HyperplaneTarget, solve
from fppgeo.lattice import Box
from fppgeo.manifest import CSV_CHUNK_ROWS, csv_cells

from oracles import columns_csv_text, graph_csv_text, truncate


def hyperplane_field():
    """A 2-d field whose target vertices have empty successor cells, over two CSV chunks."""
    box = Box.cube(64, 2)
    assert CSV_CHUNK_ROWS < box.n_vertices < 2 * CSV_CHUNK_ROWS
    return solve(WeightEnvironment(2, uniform(0, 1), 5), box, HyperplaneTarget((1, 0), 10))


def test_graph_csv_matches_row_oracle_on_truncated_graph(tmp_path):
    g = build_graph(hyperplane_field())
    for graph in (g, truncate(g, Box.cube(40, 2))):
        graph_to_csv(graph, tmp_path / "graph.csv")
        assert (tmp_path / "graph.csv").read_bytes() == graph_csv_text(graph).encode()


def spanning_blocks(rng, n, extra):
    """Ints whose every CSV block spans its own length plus ``extra``, both ends held."""
    col = np.empty(n, dtype=np.int64)
    for start in range(0, n, CSV_CHUNK_ROWS):
        block = col[start:start + CSV_CHUNK_ROWS]
        span = len(block) + extra
        block[:] = rng.integers(0, span + 1, size=len(block)) - span // 2
        block[:2] = -(span // 2), span - span // 2
    return col


@pytest.mark.parametrize("n", [0, 3, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 100])
def test_csv_cells_match_row_oracle(n):
    rng = np.random.default_rng(n)
    wide = rng.integers(-10 ** 7, 10 ** 7, size=n)
    some_masked = np.ma.masked_array(rng.integers(-12, 12, size=n), mask=rng.random(n) < 0.3)
    all_masked = np.ma.masked_array(rng.integers(-5, 5, size=n), mask=np.ones(n, bool))
    none_masked = np.ma.masked_array(rng.integers(-999, 999, size=n).astype(np.int32))
    first_chunk_masked = np.ma.masked_array(rng.integers(-50, 50, size=n),
                                            mask=np.arange(n) < CSV_CHUNK_ROWS)
    # a signed column spanning at most CSV_CHUNK_ROWS is pooled by offset once per write;
    # at n = CSV_CHUNK_ROWS + 100 the first block spans it, and one more goes by np.unique
    offset_edge = np.ma.masked_array(spanning_blocks(rng, n, 0), mask=rng.random(n) < 0.3)
    unique_edge = spanning_blocks(rng, n, 1)
    # the same values, a float and an int, and a masked entry in every block
    float_repeats = np.ma.masked_array(np.resize([0.1, -7.25, 0.1], n),
                                       mask=np.resize([False, False, True], n))
    int_repeats = np.ma.masked_array(np.resize([3, -2, 3, 0], n),
                                     mask=np.resize([False, True, False, False, False], n))
    unsigned = rng.integers(0, 300, size=n).astype(np.uint16)
    huge = rng.choice(np.array([0, 7, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1], dtype=np.uint64), n)
    flags = rng.random(n) < 0.5
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.5])
    special = rng.choice(specials, n)
    special[:len(specials)] = specials[:n]
    columns = [wide, some_masked, all_masked, none_masked, first_chunk_masked, offset_edge,
               unique_edge, float_repeats, int_repeats, unsigned, huge, flags, floats, special]
    header = [f"c{j}" for j in range(len(columns))]
    text = columns_csv_text(header, columns)
    assert b"".join(csv_cells(header, columns)) == text.encode()
    if n >= len(specials):      # -0.0 and 0.0 share a value but not their bits or cells
        last = {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]}
        assert {"-0", "0", "inf", "-inf", "nan", "4.9406564584124654e-324"} <= last
