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
points, and a point's row is the same alone as in a stack.  The draw runs on
one short-lived thread per call: all real parts, then the imaginary parts
block by block, the order of the seeded stream.  The calling thread scores
each block of the stack as it arrives, in the blocks and with the arithmetic
of :func:`~kahlerpinch.optimize.batch_hsc`, so the estimates are bit for bit
those of one thread.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .geometry import _curvature, _frame, _scalar_curvature
from .models import Hitchin, MetricModel, _as_point
from .optimize import _HSC_BLOCK, _frame_tensor, _hermitian_form, _hsc_columns

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
    in the sample and counts alone.  Acceptance runs use at least 1000 samples.
    """

    sample_count: int = 100_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


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


def _columns(parts: np.ndarray, start: int, stop: int, half: int) -> np.ndarray:
    """Samples ``start`` to ``stop`` of one coordinate part, as contiguous columns (m, stop - start).

    ``parts`` holds the real or the imaginary parts of the draws, shape
    (half, m); sample half + i is the mirror of draw i, its coordinates
    reversed.
    """
    draws = max(min(stop, half) - start, 0)
    cols = np.empty((parts.shape[1], stop - start))
    cols[:, :draws] = parts[start : start + draws].T
    cols[:, draws:] = parts[start + draws - half : stop - half, ::-1].T
    return cols


def _sphere_average(R: np.ndarray, g: np.ndarray, cfg: SphereSampleConfig):
    """Monte Carlo estimates of m(m+1)/4 times the mean of K over the unit spheres of (R, g).

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
    keeping it unbiased.  g must be known definite: the frame is not checked.

    One draw thread per call fills the buffers the caller allocated: the real
    parts of all draws in one ``standard_normal`` call, then the imaginary
    parts in blocks of ``_HSC_BLOCK`` rows, the stream order of a single
    (draws, m) real draw followed by an imaginary one.  The caller builds the
    Hermitian form meanwhile and scores each block of draws as its imaginary
    part arrives, in the blocks of :func:`~kahlerpinch.optimize.batch_hsc`
    over all rows; blocks that hold mirrors are scored after the join.  So
    every value is bit for bit that of :func:`batch_hsc` on the complex rows.
    A failure of the draw is raised here; a failure of the caller stops the
    draw at its next block, and the thread is joined before this returns.
    """
    m, count = g.shape[-1], cfg.sample_count
    half = (count + 1) // 2 if cfg.antithetic else count
    try:
        re, im = np.empty((half, m)), np.empty((half, m))
        values = np.empty(R.shape[:-4] + (count,))
    except ValueError as exc:  # numpy's "array is too big", past any address space
        raise MemoryError(f"the sample buffers cannot be allocated: {exc}") from exc
    rng = np.random.default_rng(cfg.seed)
    drawn, stop, failed = threading.Semaphore(0), threading.Event(), []

    def draw():
        # Only the Generator runs here, and it fills without the GIL; every
        # package function stays on the caller's thread, where a span tracer
        # such as perfbench's keeps its one call stack.
        try:
            rng.standard_normal(out=re)
            for i in range(0, half, _HSC_BLOCK):
                if stop.is_set():
                    return
                rng.standard_normal(out=im[i : i + _HSC_BLOCK])
                drawn.release()
        except BaseException as exc:  # re-raised by the caller
            failed.append(exc)
            drawn.release()

    thread = threading.Thread(target=draw, name="berger-draw")
    thread.start()
    try:
        N, gamma = _hermitian_form(_frame_tensor(R, _frame(g)), np.eye(m))
        gamma = gamma[..., None, :]
        for start in range(0, count, _HSC_BLOCK):
            end = min(start + _HSC_BLOCK, count)
            if end <= half:
                drawn.acquire()  # this block's imaginary parts
            else:
                thread.join()  # a block with mirrors needs every draw
            if failed:
                break
            re_cols, im_cols = _columns(re, start, end, half), _columns(im, start, end, half)
            values[..., start:end] = _hsc_columns(N, gamma, re_cols, im_cols)
    except BaseException:
        stop.set()
        raise
    finally:
        thread.join()
    if failed:
        raise failed[0]
    values *= 0.25 * m * (m + 1)
    if cfg.antithetic:
        # draw i is column i and its mirror column count - pairs + i
        pairs = count // 2
        mean_pairs = 0.5 * (values[:, :pairs] + values[:, count - pairs :])
        values = np.concatenate([mean_pairs, values[:, pairs : count - pairs]], axis=1)
    n = values.shape[1]
    est = np.mean(values, axis=1)
    sem = np.std(values, axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(values))
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
    zs = np.stack([_as_point(z, model.dimension) for z in points])
    jet = model.metric_jet(zs)
    R = _curvature(jet)
    ests, sems = _sphere_average(R, jet.g, cfg)
    taus = _scalar_curvature(R, jet.g)
    rows = []
    for z, est, sem, tau in zip(zs.tolist(), ests.tolist(), sems.tolist(), taus.tolist()):
        within = None
        if bracket is not None:
            lo, hi = bracket
            pad = 1e-9 * max(1.0, abs(tau))
            within = (lo - pad) <= tau <= (hi + pad)
        rows.append(
            BergerComparison(
                point=z,
                estimate=est,
                stderr=sem,
                trace_tau=tau,
                zscore=_zscore(est - tau, sem),
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
    pts.append(np.resize(base, m))  # the base entries repeated past m = 4
    return pts
