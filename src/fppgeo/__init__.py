"""First-passage percolation on Z^d: geodesic forests, Busemann fields,
backward-cluster statistics, and strip edge-modification experiments."""

from .manifest import TOOL_VERSION as __version__
from .lattice import Box, normalize_direction, lattice_point_on_level
from .environment import (DistributionSpec, WeightEnvironment, uniform, edge_arrays,
                          override_edges, with_overrides)
from .geodesics import HyperplaneTarget, DistanceField, solve
from .geodesic_graph import (build_graph, forward_path, backward_stats,
                             sample_averaged_graph, components, encounter_points,
                             graph_summary)
from .analysis import (estimate_shape, estimate_busemann_vector, crossing_counts,
                       backward_tail, intersection_radii, build_torus_graph,
                       mass_transport_balance, direction_grid)
from .modification import (StripSpec, eligible_edges, check_event_A2prime, run_modification,
                           verify_severing, violating_sources, protected_vertices)
