"""First-passage percolation on Z^d: geodesic forests, Busemann fields,
backward-cluster statistics, and strip edge-modification experiments."""

from .lattice import (Box, neighbors, normalize_direction, hyperplane_vertices,
                      precedes, lattice_point_on_level)
from .environment import (DistributionSpec, WeightEnvironment, uniform, uniform_shifted,
                          exponential, edge_arrays, override_edges, with_overrides,
                          override_box, unit_environment)
from .geodesics import (PointTarget, HyperplaneTarget, DistanceField, solve,
                        passage_time, extract_geodesic, path_weight,
                        TruncatedPathError)
from .geodesic_graph import (BusemannField, build_graph, busemann,
                             forward_path, backward_cluster, backward_stats,
                             sample_averaged_graph, truncate, components,
                             encounter_points, graph_summary)
from .analysis import (estimate_shape, shape_residual, estimate_busemann_vector,
                       crossing_counts, backward_tail, intersection_radii,
                       build_torus_graph, mass_transport_balance, direction_grid)
from .modification import (StripSpec, strip_vertices, eligible_edges,
                           check_event_A2prime, run_modification, verify_severing,
                           violating_sources, progenitor, protected_vertices)

__version__ = "0.1.0"
