"""Oracle tests of the neighbor-table successor rule and the lazy forest derivatives.

``successor_forest`` and the oracle ``oracles.successor_margin`` read one
(n, 2d) neighbor table; here every vertex is checked against a scan of
``oracles.neighbors`` in the tie order -e1 < ... < -ed < +ed < ... < +e1,
under weights 1 and 2 so that ties are common, and the successor pass,
block by block, must leave the table as it found it.  ``Box.boundary_mask`` is checked against the
coordinate comparison it replaced.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppgeo import geodesics
from fppgeo.environment import WeightEnvironment, override_edges, uniform
from fppgeo.geodesic_graph import forward_orbit, forward_path
from fppgeo.geodesics import DistanceField, HyperplaneTarget, _neighbor_table, successor_forest
from fppgeo.lattice import Box
from fppgeo.modification import StripSpec, violating_sources

from oracles import neighbors, successor_margin, target_field

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def tied_problems(draw):
    """A plain or periodic 2-d or 3-d box, weights 1 or 2 on its edges, and a target:
    a vertex or a hyperplane."""
    dim = draw(st.integers(2, 3))
    periodic = draw(st.booleans())
    sides = st.integers(3 if periodic else 1, 6 if dim == 2 else 4)
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    box = Box(lower, tuple(l + draw(sides) - 1 for l in lower), periodic=periodic)
    # every edge (v, v + e_axis) with v in the box, which covers the wrap edges too
    tails = np.repeat(box.coords(), dim, axis=0)
    heads = tails + np.tile(np.eye(dim, dtype=np.int64), (box.n_vertices, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    env = override_edges(WeightEnvironment(dim, uniform(0.1, 1.0), 0),
                         np.stack([tails, heads], axis=1),
                         rng.integers(1, 3, size=len(tails)).astype(float))
    anchor = box.vertex_at(draw(st.integers(0, box.n_vertices - 1)))
    target = draw(st.sampled_from([anchor,
                                   HyperplaneTarget((1,) + (0,) * (dim - 1), anchor[0])]))
    return env, box, target


def _candidates_in_tie_order(env, box, T, x):
    """(cost, index) of every lattice neighbor y of x, as w(x, y) + T(y), in tie order.

    A neighbor outside a plain box reads (inf, None); on a periodic box the
    neighbor wraps around, and the edge weight is read at its wrapped tail.
    """
    lower, shape = np.asarray(box.lower), np.asarray(box.shape)
    near = neighbors(x)                 # +e1, -e1, +e2, -e2, ...
    order = [(a, -1) for a in range(box.dim)] + [(a, 1) for a in reversed(range(box.dim))]
    out = []
    for axis, sign in order:
        y = np.asarray(near[2 * axis + (sign < 0)])
        tail = np.asarray(x) if sign > 0 else y
        if box.periodic:
            y, tail = (lower + (p - lower) % shape for p in (y, tail))
        if not box.contains(y):
            out.append((np.inf, None))
            continue
        head = tuple(tail + np.eye(box.dim, dtype=np.int64)[axis])
        j = box.index_of(tuple(y))
        out.append((env.weight_of((tuple(tail), head)) + T[j], j))
    return out


@SETTINGS
@given(tied_problems())
def test_successor_forest_is_first_argmin_of_neighbor_scan(problem):
    env, box, target = problem
    tmask = target_field(env, box, target).target_mask
    T, succ = successor_forest(box, _neighbor_table(env, box), tmask)
    for i in range(box.n_vertices):
        if tmask[i]:
            assert (succ[i], T[i]) == (-1, 0.0)
            continue
        cands = _candidates_in_tie_order(env, box, T, box.vertex_at(i))
        best = min(cost for cost, _ in cands)
        assert T[i] == best
        assert succ[i] == next(j for cost, j in cands if cost == best)


@SETTINGS
@given(tied_problems(), st.integers(1, 12))
def test_successor_forest_reads_the_table_in_blocks_and_leaves_it_as_it_was(problem, block):
    env, box, target = problem
    tmask = target_field(env, box, target).target_mask
    table = _neighbor_table(env, box)
    expect = successor_forest(box, table, tmask)
    before = [a.tobytes() for a in table]
    # row blocks of a few table entries: every block seam falls inside the box
    with mock.patch.object(geodesics, "SLAB_EDGES", block):
        T, succ = successor_forest(box, table, tmask)
    assert [a.tobytes() for a in table] == before
    assert T.tobytes() == expect[0].tobytes() and succ.tobytes() == expect[1].tobytes()


@SETTINGS
@given(tied_problems())
def test_successor_margin_is_gap_of_neighbor_scan(problem):
    env, box, target = problem
    field = target_field(env, box, target)
    expect = []
    for i in np.flatnonzero(~field.target_mask):
        costs = sorted(cost for cost, _ in
                       _candidates_in_tie_order(env, box, field.T, box.vertex_at(i)))
        expect.append(costs[1] - costs[0])
    np.testing.assert_array_equal(successor_margin(env, field), expect)


@SETTINGS
@given(st.integers(2, 4), st.booleans(), st.data())
def test_boundary_mask_matches_coordinate_comparison(dim, periodic, data):
    lower = tuple(data.draw(st.integers(-3, 3)) for _ in range(dim))
    sides = st.integers(3 if periodic else 1, 5 if dim < 4 else 3)
    box = Box(lower, tuple(l + data.draw(sides) - 1 for l in lower), periodic=periodic)
    coords = box.coords()
    on_face = ((coords == box.lower) | (coords == box.upper)).any(axis=1)
    assert box.boundary_mask().tolist() == (on_face & (not periodic)).tolist()


def _two_cycle():
    box = Box.cube(1, 2)
    succ = np.full(box.n_vertices, -1)
    succ[[0, 1]] = [1, 0]
    succ[2] = 1                         # a chain that runs into the cycle
    return DistanceField(box=box, target=HyperplaneTarget((1, 0), 0),
                         T=np.zeros(box.n_vertices), succ=succ, target_mask=succ < 0)


@pytest.mark.parametrize("read", [lambda f: f.hops(), lambda f: f.generations(),
                                  lambda f: forward_orbit(f, [2]),
                                  lambda f: forward_path(f, (-1, 1)),
                                  # xi_N = (-1, 1) chains into the cycle
                                  lambda f: violating_sources(
                                      f, StripSpec((1, 0), 1, 1.0, 1, 0.1, 0.1), (-1, 1))],
                         ids=["hops", "generations", "forward_orbit", "forward_path",
                              "violating_sources"])
def test_successor_cycle_raises(read):
    with pytest.raises(ValueError, match="successor cycle"):
        read(_two_cycle())



def test_forward_path_runs_a_chain_through_every_vertex():
    # the longest chain of a forest holds all n vertices, and it is no cycle
    box = Box((0, 0), (3, 0))
    succ = np.array([-1, 0, 1, 2])
    field = DistanceField(box=box, target=HyperplaneTarget((1, 0), 0),
                          T=np.zeros(4), succ=succ, target_mask=succ < 0)
    assert forward_path(field, (3, 0)).tolist() == [3, 2, 1, 0]
