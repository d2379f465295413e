"""The chunked CSV writers against the row-by-row renderings in ``oracles``."""

import pytest

from fppgeo.environment import WeightEnvironment, uniform
from fppgeo.geodesic_graph import build_graph, graph_to_csv, truncate
from fppgeo.geodesics import HyperplaneTarget, PointTarget, field_to_csv, solve
from fppgeo.lattice import Box
from fppgeo.manifest import CSV_CHUNK_ROWS

from oracles import field_csv_text, graph_csv_text


def hyperplane_field():
    """A 2-d field whose target vertices have empty successor cells, over two CSV chunks."""
    box = Box.cube(64, 2)
    assert CSV_CHUNK_ROWS < box.n_vertices < 2 * CSV_CHUNK_ROWS
    return solve(WeightEnvironment(2, uniform(0, 1), 5), box, HyperplaneTarget((1, 0), 10))


def point_field():
    box = Box.cube(4, 3)
    return solve(WeightEnvironment(3, uniform(0, 1), 6), box, PointTarget((1, -2, 0)))


@pytest.mark.parametrize("make", [hyperplane_field, point_field])
def test_field_csv_matches_row_oracle(tmp_path, make):
    field = make()
    field_to_csv(field, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == field_csv_text(field).encode()


def test_graph_csv_matches_row_oracle_on_truncated_graph(tmp_path):
    g = build_graph(hyperplane_field())
    for graph in (g, truncate(g, Box.cube(40, 2))):
        graph_to_csv(graph, tmp_path / "graph.csv")
        assert (tmp_path / "graph.csv").read_bytes() == graph_csv_text(graph).encode()
