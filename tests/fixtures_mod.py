"""Engineered weight environments for the strip modification experiment.

The base fixture routes every geodesic that must be preserved along cheap
highways on the rows adjacent to the axis, isolates the marked vertex's
forward corridor behind near-maximal walls, and leaves everything else to
the random background.  The bridge variant punches a cheap drop from the
upper highway onto the corridor beyond the strip, which is exactly the
leak the event conditions are there to exclude.
"""

from fppgeo.environment import WeightEnvironment, override_edges, uniform
from fppgeo.lattice import Box
from fppgeo.modification import StripSpec, run_modification

N = 24
ALPHA = 36
BOX = Box((-8, -16), (36, 16))
SPEC = StripSpec((1, 0), N=N, M=12.0, M_prime=3, epsilon=0.1, delta=0.1)
Y = (0, 1)
XI = (N, 0)


def fixture_env(seed, bridge=False):
    ov = {}
    for k in range(N, ALPHA):                  # forward corridor of XI, row 0
        ov[((k, 0), (k + 1, 0))] = 0.01
    hwy_end = 30 if bridge else ALPHA
    for k in range(-8, ALPHA):                 # highways on rows +1 / -1
        if k < hwy_end:
            ov[((k, 1), (k + 1, 1))] = 0.01
        ov[((k, -1), (k + 1, -1))] = 0.01
    for x in range(-8, ALPHA + 1):             # vertical feeders everywhere
        for y in range(-16, 16):
            ov[((x, y), (x, y + 1))] = 0.05
    for k in range(N, ALPHA + 1):              # walls isolating the corridor
        ov[((k, 0), (k, 1))] = 0.99
        ov[((k, -1), (k, 0))] = 0.99
    ov[((N - 1, 0), (N, 0))] = 0.99
    if bridge:
        ov[((30, 0), (30, 1))] = 0.001
    return override_edges(WeightEnvironment(2, uniform(0, 1), seed), list(ov), list(ov.values()))


def run_fixture(env, **kwargs):
    """``run_modification`` of the fixture geometry under ``env``."""
    return run_modification(env, SPEC, Y, XI, **kwargs)
