"""Self-contracted curves in concrete CAT(0) model spaces.

Concrete geodesic spaces (Euclidean, hyperbolic plane, trees, spiders,
books, products), proximal-point gradient curves of quasi-convex
functions, verification of self-contractedness and its angle estimates,
and auditors for the explicit rectifiability bounds.
"""

from .cones import ConePoint, cone_barycenter, cone_distance, direction_cover_center
from .errors import (
    GeometryError,
    SolverError,
    SpaceMismatchError,
    UnsupportedSpaceError,
)
from .measures import (
    NeighborhoodRegion,
    RadiusConstants,
    estimate_condition_constants,
    hausdorff_measure_neighborhood,
    radius_constants,
)
from .metric import (
    Curve,
    FourPointResult,
    cat0_inequality_residual,
    comparison_angle,
    curve_length,
    diameter,
    four_point_subembed,
    make_curve,
    upper_angle,
)
from .objectives import ObjectiveFn, builtin_objectives, make_objective, quasiconvexity_probe
from .proximal import (
    GradientCurveRun,
    ResolventResult,
    discrete_gradient_curve,
    geodesic_interpolation,
    moreau_yosida,
    resolvent,
)
from .spaces import (
    BookSpace,
    Direction,
    EuclideanSpace,
    HyperbolicPlane,
    Point,
    ProductSpace,
    Space,
    SpiderSpace,
    TreeSpace,
    load_tree_file,
    parse_space_spec,
    space_from_json,
)
from .verify import (
    SamplingConfig,
    ViolationReport,
    angle_estimate_check,
    angle_estimate_sweep,
    ball_confinement_check,
    contraction_check,
    evi_residual,
    is_self_contracted,
    reparam_preserves,
    stationarity_check,
    tail_halving_check,
    tail_monotonicity,
)
from .widths import (
    BoundReport,
    WidthReport,
    book_length_bound,
    book_spine_jump_curve,
    directional_decrease_residual,
    euclidean_constants,
    euclidean_length_bound,
    generic_bound_for_curve,
    generic_cat0_bound,
    mean_width,
    projection_extent,
    random_self_contracted,
    random_tree,
    spider_jump_curve,
    tail_cover_direction,
    tree_length_bound,
    unrectifiable_witness,
)

__version__ = "0.1.0"
