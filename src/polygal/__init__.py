"""Polytope spaces with prescribed facet normals.

Compile the linear-inequality description of the admissible coordinate
cone, project convex bodies into it, realize coordinates as vertex lists,
and optimize over nested refinements of the normal system.
"""

from .errors import (BadDimension, BadLevel, DegenerateBody, DuplicateRow,
                     EmptyPolytope, ExteriorCoordinates, InfeasibleLevel,
                     NumericalFailure, PolygalError, UnboundedBody,
                     UnboundedRegion, UnboundedSpace, ZeroRow)
from .lp import (LinearProgram, LpOutcome, enumerate_primal_vertices,
                 farkas_feasible, solve_lp)
from .normals import NormalSystem, check_bounded, validate_normals
from .cone import (CompiledCone, DualVertex, compile_cone,
                   extreme_points_diamond, extreme_points_touching,
                   prune_redundant)
from .coordinates import (CoordinateVector, DegeneracyReport,
                          PolytopeRealization, canonicalize, classify,
                          diagnose_boundary, facet_dimension,
                          hausdorff_polytopes, perimeter_2d, polygon_area,
                          polytope_volume, realize, support_coordinates)
from .bodies import (Ball, ConvexBody, HalfspacePolytope, MinkowskiSum,
                     PointHull, ProjectionResult, Scaled,
                     hausdorff_body_vs_polytope, project_coords,
                     project_interior, support)
from .galerkin import (GalerkinSequence, adjacent_rho, embed_coordinates,
                       estimate_delta, estimate_kappa, kappa_rho_bound,
                       spherical_grid_normals)
from .optimize import (ConstraintSpec, GalerkinProblem, LevelResult,
                       ObjectiveSpec, SequenceResult, SolverTolerances,
                       run_sequence, set_distance, shift_constraints,
                       solve_level, uniform_sphere_weights)

__version__ = "0.1.0"
