"""Computational coarse geometry on finite metric spaces.

Exact-arithmetic metric spaces, finite isometric group actions and their
quotients, covers with certified dimension/mesh/Lebesgue data, pushforward
and equivariant-lift constructions, and exact and greedy estimation of
cover dimension at finite scales — plus JSON formats and a CLI tying it
together.
"""

from .constructions import (LiftMember, LiftPiece, LiftTrace, displacement_subgroup,
                            lift_equivariant, pushforward_cover)
from .covers import (Cover, CoverCertificate, ball_meet_count, certify,
                     check_equivariance, dimension, lebesgue_number, mesh,
                     validate_cover, verify_certificate)
from .errors import (CapExceededError, InternalInvariantError, ResolutionError,
                     Violation)
from .estimation import (EXACT_POINT_CAP, DimensionProfile,
                         FamilyProfile, GapReport, Infeasible, PipelineResult,
                         ProfileEntry, asdim_profile, equivariant_cover_pipeline,
                         family_profile, greedy_cover, min_dimension_cover_exact)
from .formats import (FORMAT_TAG, FormatError, Workspace, dumps, load_entry,
                      parse_document, parse_scalar)
from .generators import (GeneratedInstance, cayley_ball_space,
                         cycle_reflection_action, cycle_rotation_action,
                         cycle_space, generate_instance, grid_rotation_action,
                         grid_space, path_reflection_action, path_space,
                         random_cover, random_graph_space,
                         random_invariant_instance)
from .groups import (FiniteGroup, IsometricAction, QuotientSpace,
                     coset_representatives, cyclic_group, dihedral_group,
                     generated_subgroup, is_subgroup, orbits, quotient,
                     validate_action, validate_group)
from .metric import (INF, FiniteMetricSpace, Scalar, ball, build_graph_metric,
                     diameter, scalar_str, set_distance, validate_metric)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
