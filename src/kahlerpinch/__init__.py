"""Numerical Kahler geometry: curvature tensors, sectional-curvature pinching,
and two-route certification of the pinching constants of built-in metric
models (Fubini-Study, the Hirzebruch family, products)."""

from .berger import BergerComparison, SphereSampleConfig, berger_vs_trace
from .geometry import (
    DegenerateMetricError,
    MetricJet,
    SymmetryReport,
    ZeroDirectionError,
    check_symmetries,
    curvature_tensor,
    holomorphic_sectional_curvature,
    inverse_metric,
    norm_squared,
    orthonormal_frame,
    ricci,
    scalar_curvature,
)
from .hirzebruch import AdmissibilityError, CaseBounds, case_bounds, min_max_hsc, optimal_s, pinching, scalar_bounds
from .models import (
    FubiniStudy,
    Hitchin,
    MetricModel,
    Product,
    model_from_json,
    model_to_json,
)
from .optimize import (
    DirectionExtrema,
    PinchingReport,
    SweepSResult,
    sweep_fiber,
    sweep_s,
)
from .products import (
    CommonBoundError,
    ProductBounds,
    ProductHypothesisError,
    product_bounds,
    product_hsc,
    verify_product_numeric,
)

__version__ = "0.1.0"
