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

from .geometry import MetricJet, _Factors, curvature_tensor
from .models import Hitchin, MetricModel, product_jet
from .optimize import _extremize_directions

__all__ = [
    "ProductHypothesisError",
    "CommonBoundError",
    "ProductBounds",
    "ProductReport",
    "product_hsc",
    "product_bounds",
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


def _sample_points(model: MetricModel, rng: np.random.Generator, count: int) -> np.ndarray:
    m = model.dimension
    pts = [np.zeros(m, dtype=complex)]
    if isinstance(model, Hitchin):
        pts.extend(model.fiber_point(r) for r in (1.0, 4.0, 24.0))
    raw = 0.8 * (rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m)))
    pts.extend(raw)
    return np.stack(pts)


def _extrema(jet: MetricJet, seed: int) -> tuple[float, float, bool]:
    """Min K, max K and whether every search converged, over a jet stack that carries its factors."""
    ex = _extremize_directions(curvature_tensor(jet), jet.g, jet._factors.frame, seed)
    return float(ex.min_K.min()), float(ex.max_K.max()), bool(ex.converged.all())


@dataclass(frozen=True)
class ProductReport:
    """Numerical product extrema against the closed-form prediction.

    The fields, in this order, are the keys of the ``product`` command's results.
    """

    min_K: float
    max_K: float
    pinching: float
    c_left: float
    c_right: float
    k: float
    y_star: float
    expected_lower: float
    expected_upper: float
    expected_pinching: float
    rel_min_err: float
    rel_max_err: float
    tol: float
    agree: bool


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
    Factor i (left 0, right 1) is sampled once, from ``default_rng(seed + i)``,
    and searched with seed ``seed + i``.  That one jet stack gives the factor's
    constants, and :func:`~kahlerpinch.models.product_jet` pairs the two stacks
    into the product rows, searched with seed ``seed``.
    """
    jets, stats, converged = [], [], True
    for i, model in enumerate((left, right)):
        jets.append(model.metric_jet(_sample_points(model, np.random.default_rng(seed + i), samples)))
        lo, hi, ok = _extrema(jets[-1], seed + i)
        if lo <= 0:
            raise ProductHypothesisError("factor has non-positive sectional curvature on samples")
        stats.append((lo, hi))
        converged &= ok
    (min_l, k_l), (min_r, k_r) = stats
    if abs(k_l - k_r) > _K_MATCH_TOL * max(k_l, k_r):
        raise CommonBoundError(
            f"common bound k violated: left max {k_l:.6g} != right max {k_r:.6g}"
        )
    k = max(k_l, k_r)
    c_l, c_r = min_l / k, min_r / k
    expected = product_bounds(c_l, c_r, k)

    # product row i P_r + j pairs left point i with right point j
    rows = np.divmod(np.arange(len(jets[0].g) * len(jets[1].g)), len(jets[1].g))
    factors = [_Factors(*(a[..., i] for a in j._factors)) for j, i in zip(jets, rows)]
    jet = product_jet(*(MetricJet(j.g[i], j.dg[i], j.ddg[i], f) for j, i, f in zip(jets, rows, factors)))
    lo, hi, ok = _extrema(jet, seed)
    rel_min = abs(lo - expected.lower) / abs(expected.lower)
    rel_max = abs(hi - expected.upper) / abs(expected.upper)
    return ProductReport(
        min_K=lo,
        max_K=hi,
        pinching=lo / hi,
        c_left=c_l,
        c_right=c_r,
        k=k,
        y_star=expected.y_star,
        expected_lower=expected.lower,
        expected_upper=expected.upper,
        expected_pinching=expected.pinching,
        rel_min_err=rel_min,
        rel_max_err=rel_max,
        tol=tol,
        agree=rel_min <= tol and rel_max <= tol and converged and ok,
    )
