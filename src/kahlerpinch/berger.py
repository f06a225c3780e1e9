"""Monte Carlo verification of the integral formula for scalar curvature.

The scalar curvature of an m-dimensional Kahler metric equals
m(m+1)/4 times the average of the holomorphic sectional curvature over the
metric unit sphere of the tangent space (Berger's integral formula).  This
module estimates that average by seeded Monte Carlo sampling and compares it
with the trace-based scalar curvature, with standard errors.

The sampling works in frame coordinates: K has degree 0 in the direction, and
the metric-uniform measure on the unit sphere is the push of the Euclidean one
through an orthonormal frame, so raw complex Gaussian rows scored on each
point's frame tensor give the average without a normalising or frame product.
Every point reseeds from the configured seed, so one draw per call serves all
points, scored as one stacked :func:`~kahlerpinch.optimize.batch_hsc`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import curvature_tensor, orthonormal_frame, scalar_curvature
from .models import Hitchin, MetricModel
from .optimize import _frame_tensor, batch_hsc

__all__ = [
    "SphereSampleConfig",
    "BergerEstimate",
    "BergerComparison",
    "berger_scalar",
    "berger_vs_trace",
    "default_points",
]


@dataclass(frozen=True)
class SphereSampleConfig:
    """Monte Carlo sampling configuration.

    ``antithetic`` pairs every draw with its coordinate-reversed mirror (a
    measure-preserving map of the sphere), which damps the variance of
    weight-quadratic integrands; the last draw of an odd count has no mirror
    in the sample and counts alone.  Acceptance runs use at least 1000 samples.
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

    def consistent(self, zmax: float) -> bool:
        """Within ``zmax`` standard errors, or exact up to numerical residue."""
        return abs(self.zscore) < zmax or self.near_exact


def _gaussian_rows(m: int, count: int, rng: np.random.Generator, antithetic: bool) -> np.ndarray:
    """``count`` complex standard normal rows in C^m, drawn as real then imaginary parts.

    With ``antithetic`` the first ceil(count/2) rows are draws and the rest
    their coordinate-reversed mirrors, in draw order.  Each real draw goes
    into the complex rows as it is made, so the two are never held together.
    """
    half = (count + 1) // 2 if antithetic else count
    raw = np.empty((count, m), dtype=complex)
    raw.real[:half] = rng.standard_normal((half, m))
    raw.imag[:half] = rng.standard_normal((half, m))
    raw[half:] = raw[: count - half, ::-1]
    return raw


def _sphere_average(R: np.ndarray, g: np.ndarray, cfg: SphereSampleConfig) -> list[BergerEstimate]:
    """Monte Carlo estimates of m(m+1)/4 times the mean of K over the unit spheres of (R, g).

    Stacked over a leading point axis, with one draw for the whole stack: in
    the frame coordinates c of each point, xi = F c, K is
    2 Rhat(c, c, c, c)/|c|^4 with the frame tensor Rhat (metric I), so the raw
    Gaussian rows need neither normalising nor pushing through the frame, and
    a Euclidean-uniform direction of c is a metric-uniform one of xi.  With
    ``antithetic`` every draw is averaged with its own mirror; the last draw
    of an odd count, whose mirror falls outside the sample, counts alone.
    """
    m = g.shape[-1]
    count = cfg.sample_count
    Rhat = _frame_tensor(R, orthonormal_frame(g))
    rng = np.random.default_rng(cfg.seed)
    values = batch_hsc(Rhat, np.eye(m), _gaussian_rows(m, count, rng, cfg.antithetic))
    values *= 0.25 * m * (m + 1)
    if cfg.antithetic:
        # draw i is column i and its mirror column count - pairs + i
        pairs = count // 2
        mean_pairs = 0.5 * (values[:, :pairs] + values[:, count - pairs :])
        values = np.concatenate([mean_pairs, values[:, pairs : count - pairs]], axis=1)
    n = values.shape[1]
    est = np.mean(values, axis=1)
    sem = np.std(values, axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(values))
    return [BergerEstimate(float(e), float(s), count) for e, s in zip(est, sem)]


def _curvature_at(model: MetricModel, points):
    """One stacked jet and curvature tensor for a list of chart points."""
    jet = model.metric_jet(np.stack([np.atleast_1d(np.asarray(z, dtype=complex)) for z in points]))
    return curvature_tensor(jet), jet.g


def berger_scalar(model: MetricModel, z, cfg: SphereSampleConfig) -> BergerEstimate:
    """Monte Carlo estimate of the scalar curvature at a chart point.

    Returns m(m+1)/4 times the sample mean of K over the metric unit sphere
    together with the standard error of that mean (antithetic pairs are
    averaged before the error estimate, keeping it unbiased).  This is the
    one-point stack of :func:`berger_vs_trace`'s sphere average.
    """
    return _sphere_average(*_curvature_at(model, [z]), cfg)[0]


def _zscore(diff: float, stderr: float) -> float:
    if stderr > 0.0:
        return diff / stderr
    return 0.0 if diff == 0.0 else np.inf


def berger_vs_trace(
    model: MetricModel, points, cfg: SphereSampleConfig, bracket=None
) -> list[BergerComparison]:
    """Compare the Monte Carlo estimate with the trace scalar curvature.

    The jets and curvature tensors of all points come from one stacked
    evaluation, and every point's sphere average from the one draw of
    ``cfg.seed`` that :func:`berger_scalar` makes for a single point, so each
    row equals it.  ``bracket`` optionally carries the (lower,
    upper) scalar-curvature bounds; for Hitchin models every trace value is
    checked against it.
    """
    points = list(points)
    if not points:
        return []
    R, g = _curvature_at(model, points)
    rows = []
    for i, (z, est) in enumerate(zip(points, _sphere_average(R, g, cfg))):
        tau = scalar_curvature(R[i], g[i])
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
