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
points, and a point's row is the same alone as in a stack.  The draw follows
the order of the seeded stream: all real parts into one array, then the
imaginary parts of each block into one reused block buffer, drawn just before
the block is scored on the whole stack, together with its antithetic mirrors.
So a call holds the real parts but never all the imaginary ones.  The blocks
and the scorer (``_HSCScorer``) are those of
:func:`~kahlerpinch.optimize.batch_hsc`, so the estimates are bit for bit
those of one complex row array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _scalar_curvature, _stack_first, curvature_tensor
from .models import Hitchin, MetricModel, _as_point
from .optimize import _HSCScorer, _blocks, _frame_tensor, _widest_block

__all__ = [
    "SphereSampleConfig",
    "BergerComparison",
    "berger_vs_trace",
    "default_points",
]


@dataclass(frozen=True)
class SphereSampleConfig:
    """Monte Carlo sampling configuration.

    ``antithetic`` pairs every draw with its coordinate-reversed mirror (a
    measure-preserving map of the sphere), which damps the variance of
    weight-quadratic integrands; the last draw of an odd count has no mirror
    in the sample and counts alone.  A standard error needs two independent
    values, draws or antithetic pairs, so a count that leaves fewer is
    refused.  Acceptance runs use at least 1000 samples.
    """

    sample_count: int = 100_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        least = 3 if self.antithetic else 2  # two draws, or a pair's mean and a lone draw
        if self.sample_count < least:
            raise ValueError(f"a standard error needs at least {least} samples, got {self.sample_count}")


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


def _columns(rows: np.ndarray, mirrored: int, out: np.ndarray) -> np.ndarray:
    """The rows (B, m), then mirrors, as the first B + ``mirrored`` columns of ``out`` (m, width).

    The mirrors are the first ``mirrored`` rows, their coordinates reversed.
    """
    width = len(rows)
    cols = out[:, : width + mirrored]
    cols[:, :width] = rows.T
    if mirrored:
        cols[:, width:] = rows[:mirrored, ::-1].T
    return cols


def _sphere_average(R: np.ndarray, F: np.ndarray, cfg: SphereSampleConfig):
    """Monte Carlo estimates of m(m+1)/4 times the mean of K over the unit spheres of (R, F).

    Stacked over a leading point axis, with one draw for the whole stack: in
    the frame coordinates c of each point, xi = F c, K is
    2 Rhat(c, c, c, c)/|c|^4 with the frame tensor Rhat (metric I), so the raw
    complex Gaussian rows need neither normalising nor pushing through the
    frame, and a Euclidean-uniform direction of c is a metric-uniform one of
    xi.  With ``antithetic`` the first ceil(count/2) rows are draws and the
    rest their coordinate-reversed mirrors, and every draw is averaged with
    its own mirror; the last draw of an odd count, whose mirror falls outside
    the sample, counts alone.  Returns the estimates and their standard
    errors, one per point; pairs are averaged before the error estimate,
    keeping it unbiased.  F (m, m, P) is the carried orthonormal frame of
    each point's metric, which is not checked.

    The draw follows the order of the seeded stream, a single (draws, m)
    real draw followed by an imaginary one: the real parts of all draws in
    one ``standard_normal`` call into a full array, then the imaginary parts
    of each block of :func:`~kahlerpinch.optimize._blocks` (``_HSC_BLOCK``
    draws) into one reused block buffer, just before the block is scored,
    with the mirrors of the block's draws as the last columns of the same
    product; plain and antithetic runs take this one path.  Every block is
    scored by the one ``_HSCScorer`` of the call, built on the frame tensors
    and the identity metric, so every value is bit for bit that of
    :func:`~kahlerpinch.optimize.batch_hsc` on the complex rows.
    """
    m, count = R.shape[-1], cfg.sample_count
    half = (count + 1) // 2 if cfg.antithetic else count
    pairs = count - half  # draws whose mirror is in the sample: none in a plain run
    width = _widest_block(half)
    try:
        re = np.empty((half, m))
        values = np.empty(R.shape[:-4] + (count,))
    except ValueError as exc:  # numpy's "array is too big", past any address space
        raise MemoryError(f"the sample buffers cannot be allocated: {exc}") from exc
    im = np.empty((width, m))
    scored = width + min(width, pairs)  # the widest block with its mirrors
    columns = np.empty((2, m, scored))
    score = _HSCScorer(_frame_tensor(R, F), np.eye(m), scored)
    rng = np.random.default_rng(cfg.seed)
    rng.standard_normal(out=re)
    for start, end in _blocks(half):
        rng.standard_normal(out=im[: end - start])
        mirrored = max(min(end, pairs) - start, 0)  # sample half + i mirrors draw i < pairs
        K = score(
            _columns(re[start:end], mirrored, columns[0]),
            _columns(im[: end - start], mirrored, columns[1]),
        )
        values[..., start:end] = K[..., : end - start]
        if mirrored:
            values[..., half + start : half + start + mirrored] = K[..., end - start :]
    del re  # freed first, the statistics' temporaries can reuse its memory
    values *= 0.25 * m * (m + 1)
    if cfg.antithetic:
        # draw i is column i and its mirror column half + i
        mean_pairs = 0.5 * (values[:, :pairs] + values[:, half:])
        values = np.concatenate([mean_pairs, values[:, pairs:half]], axis=1)
    est = np.mean(values, axis=1)
    sem = np.std(values, axis=1, ddof=1) / np.sqrt(values.shape[1])
    return est, sem


def _zscore(diff: float, stderr: float) -> float:
    if stderr > 0.0:
        return diff / stderr
    return 0.0 if diff == 0.0 else np.inf


def berger_vs_trace(
    model: MetricModel, points, cfg: SphereSampleConfig, bracket=None
) -> list[BergerComparison]:
    """Compare the Monte Carlo estimate with the trace scalar curvature.

    The jets, curvature tensors and traces of all points come from one
    stacked evaluation each (``metric_jet`` checks the metrics definite), and
    every point's sphere average from the one draw of ``cfg.seed``, so a
    point's row is the same alone as in a stack.  ``bracket`` optionally
    carries the (lower, upper) scalar-curvature bounds; for Hitchin models
    every trace value is checked against it.
    """
    points = list(points)
    if not points:
        return []
    zs = np.stack([_as_point(z, model.dimension, batched=False) for z in points])
    jet = model.metric_jet(zs)
    R = curvature_tensor(jet)
    ests, sems = _sphere_average(R, jet._factors.frame, cfg)
    taus = _scalar_curvature(R, _stack_first(jet._factors.inverse, zs.shape[:-1]))
    rows = []
    for z, est, sem, tau in zip(zs.tolist(), ests.tolist(), sems.tolist(), taus.tolist()):
        within = None
        if bracket is not None:
            lo, hi = bracket
            pad = 1e-9 * max(1.0, abs(tau))
            within = (lo - pad) <= tau <= (hi + pad)
        rows.append(BergerComparison(z, est, sem, tau, _zscore(est - tau, sem), within))
    return rows


def default_points(model: MetricModel) -> list:
    """Stock evaluation points per model kind, all in the standard chart."""
    m = model.dimension
    if isinstance(model, Hitchin):
        return [model.fiber_point(r) for r in (0.0, 1.0, 9.0)]
    pts = [np.zeros(m, dtype=complex)]
    base = np.array([0.7, -0.4, 0.25, 0.1], dtype=complex) * (1 + 0.3j)
    pts.append(np.resize(base, m))  # the base entries repeated past m = 4
    return pts
