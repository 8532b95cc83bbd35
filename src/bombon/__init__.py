"""Quadric hypersurfaces in complex projective space whose line
sections are circles: classification, canonical forms, symmetry groups,
and the convex-geometry appendix, with a Monte-Carlo verifier and a
theorem regression suite on top."""

from .actions import (CoreSplit, TransportWitness, bundle_projection,
                      homogeneity_transport, pseudo_unitary_check, s1_action)
from .convexity import (AffineComplexLine, AffineSubspace, ComplexEllipsoid,
                        ConvexBodyOracle, DiskTag, DiskVerdict,
                        abstract_line_points, ball_body, disk_section_test,
                        ellipsoid_body, john_touchpoint_check, linear_closure,
                        mvee_complex, polydisk_body)
from .errors import (BombonError, CoincidentPoints, DegenerateSpan,
                     ExpectationViolated, NoConvergence, NotABombon,
                     NotComplementary, NotOnQuadric, NotOnSphere, NotSmooth,
                     OracleInconsistent, PointOnCircle, PreconditionError,
                     TypeMismatch, ZeroVector)
from .linalg import (DEFAULT_TOL, Signature, hermitian_eig, hermitize,
                     max_abs, nullspace, orthonormal_columns,
                     random_hermitian, random_unitary, sym, zero_tol)
from .moebius import (GenCircle, MoebiusMap, circle_through, conjugate_point,
                      pushforward_circle, rotation)
from .oracles import (AxiomReport, OracleSet, PointStarReport, RunConfig,
                      bidisk_oracle, grid_line_tag, grid_line_tags,
                      oracle_from_quadric, verify_axioms, verify_point_star)
from .projective import (ProjLine, ProjPoint, Subspace, canonicalize,
                         line_through, meet, perp, proj_close, sample_line,
                         sample_point, span, unit_rep)
from .quadrics import (BombonType, CongruenceWitness, QuadricBombon,
                       SideSign, SpecialKind, equivalence_witness,
                       join_with_apex, quad, random_bombon, random_point_on,
                       random_smooth_bombon)
from .sections import (CircleParam, SectionClass, SectionTag, TwoSidesReport,
                       circle_points, classify_line_section, restrict_form,
                       section_with_subspace, tangent_section_singular_point,
                       tangent_space)
from .suite import REGISTRY, theorem_suite
from .version import VERSION as __version__

__all__ = [
    "AffineComplexLine", "AffineSubspace", "AxiomReport", "BombonError",
    "BombonType", "CircleParam", "CoincidentPoints", "ComplexEllipsoid",
    "CongruenceWitness", "ConvexBodyOracle", "CoreSplit", "DEFAULT_TOL",
    "DegenerateSpan", "DiskTag", "DiskVerdict", "ExpectationViolated",
    "GenCircle", "MoebiusMap", "NoConvergence", "NotABombon",
    "NotComplementary", "NotOnQuadric", "NotOnSphere", "NotSmooth",
    "OracleInconsistent", "OracleSet", "PointOnCircle", "PointStarReport",
    "PreconditionError", "ProjLine", "ProjPoint", "QuadricBombon", "REGISTRY",
    "RunConfig", "SectionClass", "SectionTag", "SideSign", "Signature",
    "SpecialKind", "Subspace", "TransportWitness", "TwoSidesReport",
    "TypeMismatch", "ZeroVector", "abstract_line_points", "ball_body",
    "bidisk_oracle", "bundle_projection", "canonicalize", "circle_points",
    "circle_through", "classify_line_section", "conjugate_point",
    "disk_section_test", "ellipsoid_body", "equivalence_witness",
    "grid_line_tag", "grid_line_tags", "hermitian_eig", "hermitize",
    "homogeneity_transport", "john_touchpoint_check", "join_with_apex",
    "line_through", "linear_closure", "max_abs", "meet", "mvee_complex",
    "nullspace", "oracle_from_quadric", "orthonormal_columns", "perp",
    "polydisk_body", "proj_close", "pseudo_unitary_check",
    "pushforward_circle", "quad", "random_bombon", "random_hermitian",
    "random_point_on", "random_smooth_bombon", "random_unitary",
    "restrict_form", "rotation", "s1_action", "sample_line", "sample_point",
    "section_with_subspace", "span", "sym", "tangent_section_singular_point",
    "tangent_space", "theorem_suite", "unit_rep", "verify_axioms",
    "verify_point_star", "zero_tol", "__version__",
]
