"""Pinching of product metrics on products of two positively curved factors.

On a product, the sectional curvature along a unit direction decomposes as
K_left y^2 + K_right (1-y)^2, where y is the left factor's share of the
metric norm.  Given factor pinching constants c_left, c_right under a common
upper bound k, the product extrema are k c_left c_right/(c_left + c_right)
and k; this module implements the closed forms and verifies them numerically
on concrete factor models.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import MetricJet, _curvature
from .models import Hitchin, MetricModel, product_jet
from .optimize import extremize_directions

__all__ = [
    "ProductHypothesisError",
    "CommonBoundError",
    "ProductBounds",
    "FactorStats",
    "ProductReport",
    "product_hsc",
    "product_bounds",
    "factor_curvature_stats",
    "verify_product_numeric",
]

# Relative tolerance within which the two factors' measured maxima count as
# one common upper bound k.
_K_MATCH_TOL = 1e-6


class ProductHypothesisError(ValueError):
    """The factors violate a hypothesis of the product pinching theorem."""


class CommonBoundError(ProductHypothesisError):
    """The two factors do not share a common upper curvature bound."""


def product_hsc(k_left: float, k_right: float, y: float) -> float:
    """Sectional curvature of a product direction with left norm share y."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("norm share y out of range [0, 1]")
    return k_left * y * y + k_right * (1.0 - y) ** 2


@dataclass(frozen=True)
class ProductBounds:
    """Closed-form product extrema for pinched factors under a common bound."""

    lower: float
    upper: float
    y_star: float
    pinching: float


def product_bounds(c_left, c_right, k) -> ProductBounds:
    """Extrema of the product curvature: lower = k c_l c_r/(c_l + c_r), upper = k.

    ``y_star`` is the interior norm share attaining the lower bound.
    """
    if not (c_left > 0 and c_right > 0 and k > 0):
        raise ValueError("pinching constants and bound must be positive")
    if c_left > 1 or c_right > 1:
        raise ValueError("pinching constants lie in (0, 1]")
    total = c_left + c_right
    return ProductBounds(
        lower=k * c_left * c_right / total,
        upper=k,
        y_star=c_right / total,
        pinching=c_left * c_right / total,
    )


@dataclass(frozen=True)
class FactorStats:
    """Numerically measured curvature range of one factor model.

    ``converged`` holds when every direction extremization behind it converged.
    """

    min_K: float
    max_K: float
    converged: bool

    @property
    def pinching(self) -> float:
        return self.min_K / self.max_K


def _sample_points(model: MetricModel, rng: np.random.Generator, count: int) -> np.ndarray:
    m = model.dimension
    pts = [np.zeros(m, dtype=complex)]
    if isinstance(model, Hitchin):
        pts.extend(model.fiber_point(r) for r in (1.0, 4.0, 24.0))
    raw = 0.8 * (rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m)))
    pts.extend(raw)
    return np.stack(pts)


def _factor_stats(jet: MetricJet, seed: int) -> FactorStats:
    """Curvature range over a factor's jet stack, known definite: one tensor, one search."""
    ex = extremize_directions(_curvature(jet), jet.g, seed=seed)
    lo, hi = float(ex.min_K.min()), float(ex.max_K.max())
    if lo <= 0:
        raise ProductHypothesisError("factor has non-positive sectional curvature on samples")
    return FactorStats(lo, hi, bool(ex.converged.all()))


def factor_curvature_stats(
    model: MetricModel, samples: int = 4, seed: int = 0
) -> FactorStats:
    """Extremize K over sampled points and all directions of one factor."""
    rng = np.random.default_rng(seed)
    return _factor_stats(model.metric_jet(_sample_points(model, rng, samples)), seed)


@dataclass(frozen=True)
class ProductReport:
    """Numerical product extrema against the closed-form prediction."""

    min_K: float
    max_K: float
    pinching: float
    c_left: float
    c_right: float
    k: float
    expected: ProductBounds
    rel_min_err: float
    rel_max_err: float
    tol: float
    agree: bool

    def to_json_dict(self) -> dict:
        return {
            "min_K": self.min_K,
            "max_K": self.max_K,
            "pinching": self.pinching,
            "c_left": self.c_left,
            "c_right": self.c_right,
            "k": self.k,
            "y_star": self.expected.y_star,
            "expected_lower": self.expected.lower,
            "expected_upper": self.expected.upper,
            "expected_pinching": self.expected.pinching,
            "rel_min_err": self.rel_min_err,
            "rel_max_err": self.rel_max_err,
            "tol": self.tol,
            "agree": self.agree,
        }


def verify_product_numeric(
    left: MetricModel,
    right: MetricModel,
    samples: int = 3,
    tol: float = 1e-6,
    seed: int = 0,
) -> ProductReport:
    """Extremize K on the product of two factor models and check the theorem.

    The factors' (c, k) are measured numerically on sample grids; the common
    upper bound hypothesis is enforced and a mismatch raises
    :class:`CommonBoundError` rather than being silently normalized away.
    The report agrees only when both relative errors are within ``tol`` and
    every direction extremization, on the factors and on the product, has
    converged.
    The product rows pair the left and right sample points of ``default_rng(seed)``;
    :func:`~kahlerpinch.models.product_jet` builds them from the factor stacks, the left
    one shared with the left factor's stats, which draw it first from the same seed.
    """
    rng = np.random.default_rng(seed)
    pts_l, pts_r = _sample_points(left, rng, samples), _sample_points(right, rng, samples)
    jet_l = left.metric_jet(pts_l)
    stats_l = _factor_stats(jet_l, seed)
    stats_r = factor_curvature_stats(right, samples=samples, seed=seed + 1)
    k_l, k_r = stats_l.max_K, stats_r.max_K
    if abs(k_l - k_r) > _K_MATCH_TOL * max(k_l, k_r):
        raise CommonBoundError(
            f"common bound k violated: left max {k_l:.6g} != right max {k_r:.6g}"
        )
    k = max(k_l, k_r)
    c_l, c_r = stats_l.min_K / k, stats_r.min_K / k
    expected = product_bounds(c_l, c_r, k)

    jet_r = right.metric_jet(pts_r)
    # product row i P_r + j pairs left point i with right point j
    rows = np.divmod(np.arange(len(pts_l) * len(pts_r)), len(pts_r))
    jet = product_jet(*(MetricJet(j.g[i], j.dg[i], j.ddg[i]) for j, i in zip((jet_l, jet_r), rows)))
    ex = extremize_directions(_curvature(jet), jet.g, seed=seed)
    lo, hi = float(ex.min_K.min()), float(ex.max_K.max())
    converged = stats_l.converged and stats_r.converged and bool(ex.converged.all())

    rel_min = abs(lo - expected.lower) / abs(expected.lower)
    rel_max = abs(hi - expected.upper) / abs(expected.upper)
    return ProductReport(
        min_K=lo,
        max_K=hi,
        pinching=lo / hi,
        c_left=c_l,
        c_right=c_r,
        k=k,
        expected=expected,
        rel_min_err=rel_min,
        rel_max_err=rel_max,
        tol=tol,
        agree=rel_min <= tol and rel_max <= tol and converged,
    )
