"""Classical and generalized centers of n-simplices.

Centers are computed in barycentric coordinates from edge lengths alone:
classical centers, generalized Apollonian spheres with their isodynamic
points, isogonic points (equiareal antipedal simplices) found per sign
class by deflated Newton, and the Fermat-Torricelli point by one
Weiszfeld-type step and Newton.
"""

from .apollonian import (
    ApollonianSphere,
    IsodynamicResult,
    YiuVerdict,
    apollonian_sphere,
    collinear_cross_ratio,
    isodynamic_points,
    restrict_to_facet,
    sphere_family,
    yiu_triangle_test,
)
from .barycentric import (
    BarycentricPoint,
    EdgeLengthTable,
    SimplexModel,
    circumcenter_cart,
    classical_centers,
    embed_from_edge_lengths,
    facet_volumes_of_points,
)
from .errors import (
    AtVertex,
    Degenerate,
    MaxIterationsExceeded,
    NotEmbeddable,
    PointAtInfinity,
    SimplexError,
    ZeroCoordinate,
)
from .fermat import (
    REASONS,
    SolverTrace,
    fermat_point,
    total_distance,
    weiszfeld_step_q,
    weiszfeld_step_r,
    z_correspondent,
)
from .isogonic import (
    IsogonicCatalog,
    default_seeds,
    enumerate_isogonic,
    is_isogonic,
    isogonal_conjugate,
    triad_angle_check,
)
from .pedal import (
    antipedal_simplex,
    equiareal_deviation,
    inversive_image,
    pedal_simplex,
    polar_simplex,
)

__version__ = "0.1.0"

__all__ = [
    "ApollonianSphere", "IsodynamicResult", "YiuVerdict", "apollonian_sphere",
    "collinear_cross_ratio", "isodynamic_points", "restrict_to_facet",
    "sphere_family", "yiu_triangle_test",
    "BarycentricPoint", "EdgeLengthTable", "SimplexModel",
    "circumcenter_cart", "classical_centers", "embed_from_edge_lengths",
    "facet_volumes_of_points",
    "AtVertex", "Degenerate", "MaxIterationsExceeded", "NotEmbeddable",
    "PointAtInfinity", "SimplexError", "ZeroCoordinate",
    "REASONS", "SolverTrace", "fermat_point", "total_distance",
    "weiszfeld_step_q", "weiszfeld_step_r", "z_correspondent",
    "IsogonicCatalog", "default_seeds", "enumerate_isogonic", "is_isogonic",
    "isogonal_conjugate", "triad_angle_check",
    "antipedal_simplex", "equiareal_deviation", "inversive_image",
    "pedal_simplex", "polar_simplex",
    "__version__",
]
