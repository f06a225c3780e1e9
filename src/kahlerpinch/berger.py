"""Monte Carlo verification of the integral formula for scalar curvature.

The scalar curvature of an m-dimensional Kahler metric equals
m(m+1)/4 times the average of the holomorphic sectional curvature over the
metric unit sphere of the tangent space (Berger's integral formula).  This
module estimates that average by seeded Monte Carlo sampling and compares it
with the trace-based scalar curvature, with standard errors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import curvature_tensor, orthonormal_frame, scalar_curvature
from .models import Hitchin, MetricModel
from .optimize import batch_hsc

__all__ = [
    "SphereSampleConfig",
    "BergerEstimate",
    "BergerComparison",
    "sample_directions",
    "berger_scalar",
    "berger_vs_trace",
]


@dataclass(frozen=True)
class SphereSampleConfig:
    """Monte Carlo sampling configuration.

    ``antithetic`` pairs every draw with its coordinate-reversed mirror (a
    measure-preserving map of the sphere), which damps the variance of
    weight-quadratic integrands.  Acceptance runs use at least 1000 samples.
    """

    sample_count: int = 100_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


@dataclass(frozen=True)
class BergerEstimate:
    estimate: float
    stderr: float
    sample_count: int


@dataclass(frozen=True)
class BergerComparison:
    """Per-point comparison of the sphere average against the metric trace."""

    point: list
    estimate: float
    stderr: float
    trace_tau: float
    zscore: float
    within_bracket: bool | None = None

    @property
    def near_exact(self) -> bool:
        """Estimate matches the trace up to numerical residue (zero-variance case)."""
        tol = 1e-9 * max(1.0, abs(self.trace_tau))
        return abs(self.estimate - self.trace_tau) < tol

    @property
    def consistent(self) -> bool:
        """Within 3 standard errors, or exact up to numerical residue."""
        return abs(self.zscore) < 3.0 or self.near_exact


def sample_directions(
    g: np.ndarray, count: int, rng: np.random.Generator, antithetic: bool = False
) -> np.ndarray:
    """Uniform samples on the metric unit sphere (Gaussian normalize-and-push).

    Euclidean-uniform unit vectors are pushed through the orthonormal frame,
    which realizes the measure induced by the metric.
    """
    m = g.shape[0]
    half = (count + 1) // 2 if antithetic else count
    raw = rng.standard_normal((half, m)) + 1j * rng.standard_normal((half, m))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    if antithetic:
        raw = np.concatenate([raw, raw[:, ::-1]])[:count]
    return raw @ orthonormal_frame(g).T


def _sphere_average(R: np.ndarray, g: np.ndarray, cfg: SphereSampleConfig) -> BergerEstimate:
    """Monte Carlo estimate of m(m+1)/4 times the mean of K over the unit sphere of (R, g)."""
    m = g.shape[-1]
    rng = np.random.default_rng(cfg.seed)
    xis = sample_directions(g, cfg.sample_count, rng, cfg.antithetic)
    values = 0.25 * m * (m + 1) * batch_hsc(R, g, xis)
    if cfg.antithetic and values.size >= 2:
        half = values.size // 2
        values = 0.5 * (values[:half] + values[half : 2 * half])
    est = float(np.mean(values))
    sem = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return BergerEstimate(est, sem, cfg.sample_count)


def berger_scalar(model: MetricModel, z, cfg: SphereSampleConfig) -> BergerEstimate:
    """Monte Carlo estimate of the scalar curvature at a chart point.

    Returns m(m+1)/4 times the sample mean of K over the metric unit sphere
    together with the standard error of that mean (antithetic pairs are
    averaged before the error estimate, keeping it unbiased).
    """
    jet = model.metric_jet(z)
    return _sphere_average(curvature_tensor(jet), jet.g, cfg)


def _zscore(diff: float, stderr: float) -> float:
    if stderr > 0.0:
        return diff / stderr
    return 0.0 if diff == 0.0 else np.inf


def berger_vs_trace(
    model: MetricModel, points, cfg: SphereSampleConfig, bracket=None
) -> list[BergerComparison]:
    """Compare the Monte Carlo estimate with the trace scalar curvature.

    The jets and curvature tensors of all points come from one stacked
    evaluation; each point's sphere average reseeds from ``cfg.seed``, as
    :func:`berger_scalar` does.  ``bracket`` optionally carries the (lower,
    upper) scalar-curvature bounds; for Hitchin models every trace value is
    checked against it.
    """
    points = list(points)
    if not points:
        return []
    jet = model.metric_jet(np.stack([np.atleast_1d(np.asarray(z, dtype=complex)) for z in points]))
    R = curvature_tensor(jet)
    rows = []
    for i, z in enumerate(points):
        tau = scalar_curvature(R[i], jet.g[i])
        est = _sphere_average(R[i], jet.g[i], cfg)
        within = None
        if bracket is not None:
            lo, hi = bracket
            pad = 1e-9 * max(1.0, abs(tau))
            within = (lo - pad) <= tau <= (hi + pad)
        rows.append(
            BergerComparison(
                point=[complex(c) for c in np.asarray(z, dtype=complex)],
                estimate=est.estimate,
                stderr=est.stderr,
                trace_tau=tau,
                zscore=_zscore(est.estimate - tau, est.stderr),
                within_bracket=within,
            )
        )
    return rows


def default_points(model: MetricModel) -> list:
    """Stock evaluation points per model kind, all in the standard chart."""
    m = model.dimension
    if isinstance(model, Hitchin):
        return [model.fiber_point(r) for r in (0.0, 1.0, 9.0)]
    pts = [np.zeros(m, dtype=complex)]
    base = np.array([0.7, -0.4, 0.25, 0.1], dtype=complex) * (1 + 0.3j)
    pts.append(base[:m])
    return pts
