"""Extremization of holomorphic sectional curvature over directions and parameters.

This module is the generic numerical route to the pinching constants: its
fiber sweep reads no closed form, only curvature tensors.  The compactified
fiber endpoint t = 1, where the chart (z1, z2) degenerates, is the point
w = 0 of the chart (z1, w = 1/z2), an ordinary sample (``Hitchin.fiber_jet``).

The extrema over the directions of a two-dimensional tangent space are exact:
there the direction lines form the Bloch sphere S^2, on which K is a quadratic
v.Av + b.v + c0 whose extrema :mod:`kahlerpinch.sphere` finds by Newton's
method on the one Lagrange multiplier of each that can win.  The weight
quadratic of the Hirzebruch family is extremized exactly on its interval.
The two-dimensional solve is stacked: the fiber sweep hands it all its
tangent spaces at once, and a single tangent space is the one-row stack of
the same code.  Past the frame, the Bloch quadratic and the sphere solve keep
the stack axis last, in elementwise arithmetic with every sum over a Bloch
index written out in a fixed order, so that numpy's inner loops run over the
stack and a row gets the same bits alone as in any stack; only the sphere
solve's one LAPACK call, ``eigh``, takes it first.  Higher
dimensions are stacked the same way: every curvature tensor of the stack is
contracted into its orthonormal frame, one seeded set of start directions is
scored on all of them at once, and one trust-region Newton search (More and
Sorensen 1983) with the analytic gradient and Hessian runs from every row's
best starts, each in an affine chart of the direction space: a stacked local
search with no global guarantee, which converges quadratically to residuals
at rounding, in which no row depends on another.  A trust-region step on the
boundary solves the S^2 solve's secular equation, with the one root finder
of :mod:`kahlerpinch.sphere` (``_secular_root``).  Curvature at many
directions is one real quadratic form per tensor in the m^2 real coordinates
of xi xi*, scored by one ``_HSCScorer`` per call as a matrix product over
blocks of directions and over a stack of tensors; ``batch_hsc`` and the
Berger sphere average share it.
The fiber sweep solves its grid, t = 1 included, through one stacked cell
function, and refines an extreme cell inside the grid by zooming on the
bracket of its grid neighbours: each round is one call of the same stacked
solve on interior samples of the bracket.  A surface's extrema are certified
by their duality gaps (:mod:`kahlerpinch.sphere`): each is within rounding of
the true extremum of its rounded Bloch quadratic.  The stationarity residual,
the norm of the analytic gradient of K, which vanishes at extremal
directions, is reported for every dimension and certifies the local search
of higher dimensions; the fiber sweep takes it only at the cells it can
report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .geometry import (
    _real_part,
    _require_positive_definite,
    _stack_first,
    _stack_last,
    curvature_tensor,
    holomorphic_sectional_curvature,
    hsc_gradient,
)
from .hirzebruch import hsc_coefficients, require_admissible
from .models import _S_RANGE, Hitchin
from .sphere import _secular_root, _sphere_extrema

__all__ = [
    "DirectionExtrema",
    "NewtonResult",
    "QuadraticExtrema",
    "PinchingReport",
    "SweepSResult",
    "batch_hsc",
    "extremize_directions",
    "extremize_quadratic",
    "minimize",
    "sweep_fiber",
    "sweep_s",
]

# Compactified fiber samples per parameter value in sweep_s, t = 1 included;
# verify reads the fiber's Ricci eigenvalues on the same samples.
_SWEEP_T_POINTS = 65
# Fiber samples per stacked solve in sweep_fiber: a fixed cost per solve against
# buffers that grow with the block.  Grid-512 sweeps (n = 1, 3 and 6 at s*,
# lower quartiles of 100 interleaved rounds on a 2-core VM, one BLAS thread):
# 5.00, 3.30 and 2.77 ms a sweep at 128, 256 and 512; a grid-4096 sweep (n = 3)
# 25.9, 19.6 and 19.3 ms at 256, 512 and 1024.  The 12 pinch jobs of
# certify-fiber peak 0.2-0.3 MB (1 %) higher at 512 than at 256.
_FIBER_BLOCK = 512
# Directions per matrix product of the _HSCScorer of batch_hsc and of the
# Berger sphere average, and per draw of the Berger imaginary parts.  A scorer
# allocates its work buffers once and reuses them from block to block, and a
# direction's value does not depend on the block's width (tests compare 64,
# 2048 and 8192), so the block is sized for the cache: at m = 4 its q takes
# 256 kB.  Against 8192,
# mc-product (2-core VM, 10 pairs) went from 54.2 to 48.2 MB peak RSS and
# from 0.0235 to 0.0193 s for its slowest job.
_HSC_BLOCK = 2048
# OpenBLAS multiplies an (M, K) by a (K, N) matrix with its small-matrix
# kernel while M N K <= this, on one thread, and with its packed kernel above,
# whose last N mod 8 columns round differently under one and two threads (seen
# at m = 4 to 16).  So _HSCScorer hands the packed kernel a multiple of
# _NARROW columns, where a column's bits depend neither on the width, nor on
# the column's place, nor on the thread count.
_SMALL_PRODUCT = 10**6
# Blocks narrower than this go through other BLAS kernels (matrix-vector at
# one column, edge kernels up to 7) than the same columns at the end of a
# wider block, so a last remainder this narrow joins the block before it.
_NARROW = 8
_EPS = float(np.finfo(float).eps)
# Gradient tolerance of each general-dimension search, relative to max(1, |K|)
# at its start.
_GRADIENT_TOL = 1e-12
# Evaluations of one general-dimension Newton search.
_MAX_ITER = 100
# Interior samples of the bracket per round of the fiber refine.
_ZOOM = 16
# The fiber refine stops once its bracket is within twice this width in t.
_REFINE_XTOL = 1e-9
# An extremum is unconverged when its stationarity residual exceeds this
# fraction of max(1, |K|).
_RESIDUAL_TOL = 1e-4
# Ulps in a rounding floor: of the largest term of the S^2 quadratic for its
# extrema, and of |K| for the decreases the Newton search can tell apart.
_ROUNDING_ULPS = 4.0
# The Bloch matrix 1/2 sigma_m (x) sigma_n, in the Pauli basis with sigma_0 =
# I, as a (16, 16) matrix with rows p = ab cd and columns mn: Rhat's flattened
# contraction with it is M_mn = sum Rhat_abcd sigma_m,ab sigma_n,cd / 2.  Per
# column mn, its four nonzero entries c, each +-1/2 or +-i/2, in increasing
# row p, as (4, 16) tables: the rows p, the part of Rhat_p that Re(Rhat_p c)
# takes (0 real, 1 imaginary) and the sign it takes it with, so
# Re(Rhat_p c) = sign part / 2.  Written out, since deriving them at import
# raised the peak memory of every command by about 0.2 MB; a test derives
# them from the Pauli matrices.
_BLOCH_ROWS = np.array(
    [
        [0, 1, 1, 0, 4, 5, 5, 4, 4, 5, 5, 4, 0, 1, 1, 0],
        [3, 2, 2, 3, 7, 6, 6, 7, 7, 6, 6, 7, 3, 2, 2, 3],
        [12, 13, 13, 12, 8, 9, 9, 8, 8, 9, 9, 8, 12, 13, 13, 12],
        [15, 14, 14, 15, 11, 10, 10, 11, 11, 10, 10, 11, 15, 14, 14, 15],
    ]
)
_BLOCH_PART = np.array([[0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0]] * 4)
_BLOCH_SIGN = np.array(
    [
        [1.0, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1, 1, 1],
        [1.0, 1, -1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1, 1, -1, -1],
        [1.0, 1, 1, 1, 1, 1, 1, 1, -1, -1, 1, -1, -1, -1, -1, -1],
        [1.0, 1, -1, -1, 1, 1, -1, -1, -1, -1, -1, 1, -1, -1, 1, 1],
    ]
)


def _hermitian_coordinates(re: np.ndarray, im: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Real coordinates q of xi xi* for the column directions xi = re + i im, written to ``out`` (m^2, B).

    re and im are the real and imaginary parts, shape (m, B), fastest with
    contiguous rows.  q = (|xi_a|^2, Re xi_a conj(xi_b), Im xi_a conj(xi_b))
    over a and the pairs a < b in ``np.triu_indices`` order.
    """
    m, q = len(re), out
    np.multiply(re, re, out=q[:m])
    q[:m] += im * im
    pairs, j = m * (m - 1) // 2, m
    for a in range(m - 1):
        re_ab, im_ab = q[j : j + m - 1 - a], q[j + pairs : j + pairs + m - 1 - a]
        np.multiply(re[a], re[a + 1 :], out=re_ab)
        re_ab += im[a] * im[a + 1 :]
        np.multiply(im[a], re[a + 1 :], out=im_ab)
        im_ab -= re[a] * im[a + 1 :]
        j += m - 1 - a
    return q


def _hermitian_form(R: np.ndarray, g: np.ndarray):
    """(N, gamma) with K(xi) = 2 q.N q / (gamma.q)^2, q from :func:`_hermitian_coordinates`.

    With vec(xi xi*) = T q (row-major vec), N is the real symmetric part of
    T^T M T, M the tensor R reshaped to (m^2, m^2), and gamma = Re(T^T vec(g));
    stacked over the leading axes of R and of g.  The quadratic form of a
    Kahler curvature tensor is real on Hermitian matrices, so the imaginary
    part of the symmetrised form is residue, checked here once per tensor.
    """
    m = g.shape[-1]
    a, b = np.triu_indices(m, 1)
    re, im = m + np.arange(len(a)), m + len(a) + np.arange(len(a))
    T = np.zeros((m * m, m * m), dtype=complex)
    T[np.arange(m) * (m + 1), np.arange(m)] = 1.0
    T[a * m + b, re] = T[b * m + a, re] = 1.0
    T[a * m + b, im], T[b * m + a, im] = 1j, -1j
    A = T.T @ R.reshape(R.shape[:-4] + (m * m, m * m)) @ T
    N = _real_part(0.5 * (A + A.swapaxes(-1, -2)), "sectional curvature form", 2)
    return N, (g.reshape(g.shape[:-2] + (m * m,)) @ T).real


def batch_hsc(R: np.ndarray, g: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Holomorphic sectional curvature of every row direction of ``xis`` (shape (B, m)).

    R and g may carry leading tensor axes, (..., m, m, m, m) and (..., m, m);
    the result is (..., B), every tensor of the stack at every direction.  In
    the real coordinates q of xi xi*, K(xi) = 2 q.N q / (gamma.q)^2 with the
    form of :func:`_hermitian_form`; one :class:`_HSCScorer` evaluates the
    rows as one real matrix product per block of :func:`_blocks`.  Directions
    or a metric of another dimension than R's raise a ValueError.
    """
    R, g, xis = (np.asarray(a, dtype=complex) for a in (R, g, xis))
    m = R.shape[-1]
    if xis.ndim != 2 or xis.shape[1] != m:
        raise ValueError(f"directions must be a (B, {m}) stack, got shape {xis.shape}")
    if g.shape[-2:] != (m, m):
        raise ValueError(f"metric must be a (..., {m}, {m}) stack, got shape {g.shape}")
    score = _HSCScorer(R, g, _widest_block(len(xis)))
    K = np.empty(score.stack + (len(xis),))
    for start, stop in _blocks(len(xis)):
        block = xis[start:stop].T
        K[..., start:stop] = score(block.real, block.imag)
    return K


def _blocks(rows: int):
    """(start, stop) of the blocks of ``_HSC_BLOCK`` rows, a last remainder narrower than ``_NARROW`` joined to the block before it."""
    start = 0
    while start < rows:
        stop = start + _HSC_BLOCK
        if rows - stop < _NARROW:
            stop = rows
        yield start, stop
        start = stop


def _widest_block(rows: int) -> int:
    """The width of the widest of the :func:`_blocks` of ``rows``."""
    return min(rows, _HSC_BLOCK + _NARROW - 1)


class _HSCScorer:
    """K on the tensors R of the metrics g, for blocks of up to ``width`` column directions.

    Holds the form (N, gamma) of :func:`_hermitian_form`, stacked over the
    broadcast leading axes ``stack`` of R and g, and work buffers allocated
    once.  A call on a block of columns re + i im, (m, B) each, returns the
    block's K (stack + (B,)) as a view of the buffers, valid until the next
    call.
    """

    def __init__(self, R: np.ndarray, g: np.ndarray, width: int):
        N, gamma = _hermitian_form(R, g)
        # One (1, m^2) row per metric, so that a shared metric and a stacked one
        # take the same matrix product and give the same bits.
        gamma = gamma[..., None, :]
        self.stack = np.broadcast_shapes(N.shape[:-2], gamma.shape[:-2])
        self._N, self._gamma = (np.broadcast_to(a, self.stack + a.shape[-2:]) for a in (N, gamma))
        m2 = N.shape[-1]
        self._shapes = ((m2,), self.stack + (m2,), self.stack + (1,), self.stack)
        width = self._product_width(width)
        self._flat = [np.empty(math.prod(shape) * width) for shape in self._shapes]
        self._views = {}

    def _product_width(self, width: int) -> int:
        """Columns of the matrix product for a block of ``width``.

        ``width`` itself on OpenBLAS's small-matrix kernel, else the next
        multiple of ``_NARROW`` (see ``_SMALL_PRODUCT``).
        """
        if self._N.shape[-1] ** 2 * width <= _SMALL_PRODUCT:  # N q: (m^2, m^2) by (m^2, width)
            return width
        return -(-width // _NARROW) * _NARROW

    def __call__(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """K of the columns re + i im, scored with copies of the first column up to the product width.

        The buffers of a product width are the leading parts of the flat
        buffers, so contiguous at any width, laid out as fresh arrays of the
        block would be; the padding keeps every column's bits independent of
        the BLAS thread count.
        """
        width = re.shape[1]
        columns = self._product_width(width)
        if columns not in self._views:
            self._views[columns] = tuple(
                flat[: math.prod(shape) * columns].reshape(shape + (columns,))
                for flat, shape in zip(self._flat, self._shapes)
            )
        q, Nq, den, K = self._views[columns]
        _hermitian_coordinates(re, im, q[:, :width])
        q[:, width:] = q[:, :1]  # scored and dropped
        np.matmul(self._N, q, out=Nq)
        Nq *= q
        np.add.reduce(Nq, axis=-2, out=K)
        K *= 2.0
        np.matmul(self._gamma, q, out=den)
        den *= den
        K /= den[..., 0, :]
        return K[..., :width]


@dataclass(frozen=True)
class DirectionExtrema:
    """Extrema of K over the unit direction spheres of a stack of tangent spaces.

    Every field is an array over the stack.
    """

    min_K: np.ndarray
    max_K: np.ndarray
    argmin: np.ndarray
    argmax: np.ndarray
    min_residual: np.ndarray
    max_residual: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True)
class QuadraticExtrema:
    """Extrema of the weight quadratic alpha a^2 + beta ab + gamma b^2 on a+b=1.

    Fields have the broadcast shape of the coefficients.
    """

    min_K: np.ndarray
    max_K: np.ndarray


def _residual(R, g, xi) -> np.ndarray:
    """Stationarity residual |dK/d conj(xi)| at the Euclidean-normalised xi, stacked.

    The leading axes of R, g and xi broadcast, as in :func:`hsc_gradient`,
    whose rows do not depend on the stack.
    """
    xi = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    return np.linalg.norm(hsc_gradient(R, g, xi), axis=-1)


def _frame_tensor(R: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Rhat = R(F., conj(F)., F., conj(F).), the curvature tensor in the frame F, stacked.

    In the frame the metric is the identity, so K(F c) = 2 sum Rhat_abcd c_a
    conj(c_b) c_c conj(c_d) / |c|^4 for every nonzero c in C^m.  F (m, m, N)
    is a carried frame, the leading axes of R flattened into its last axis;
    the contractions move R's stack last too (:func:`_stack_last_frame_tensor`),
    so that numpy's inner loops run over the stack rather than over index
    axes of length m.
    """
    return np.moveaxis(_stack_last_frame_tensor(R, F), -1, 0).reshape(R.shape)


def _stack_last_frame_tensor(R: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Rhat of :func:`_frame_tensor`, its leading axes flattened into one last axis: (m, m, m, m, N)."""
    R = _stack_last(R, 4)
    Rhat = np.einsum("ijkl...,ld...->ijkd...", R, F.conj())
    Rhat = np.einsum("ijkd...,kc...->ijcd...", Rhat, F)
    Rhat = np.einsum("ijcd...,jb...->ibcd...", Rhat, F.conj())
    return np.einsum("ibcd...,ia...->abcd...", Rhat, F)


def _bloch_quadratic(R: np.ndarray, F: np.ndarray):
    """(A, b, c0) with K(F c) = v.A v + b.v + c0 for unit c, c c* = (I + v.sigma)/2.

    In the frame, K(F c) = 2 sum Rhat_abcd P_ab P_cd with P = c c* =
    sum_mu v_mu sigma_mu / 2 and v_0 = 1, a quadratic form in (1, v) whose
    matrix M_mn = sum_abcd Rhat_abcd sigma_m,ab sigma_n,cd / 2 is real on its
    symmetric part.
    Each entry takes its four nonzero terms, in increasing p, from the
    flattened Rhat with the stack axis last, and adds them elementwise; that
    is the contraction's order, and a row's bits do not depend on the stack.
    Stacked over the leading axes of R, which lead the results too; F is
    the carried (2, 2, N) frame, as in :func:`_frame_tensor`.  R and F may be
    float64, whose frame tensor is read with zero imaginary parts.
    """
    Rhat = _stack_last_frame_tensor(R, F).reshape(16, -1).astype(complex, copy=False)
    parts = Rhat.view(float).reshape(16, -1, 2)
    terms = parts[_BLOCH_ROWS, :, _BLOCH_PART] * _BLOCH_SIGN[..., None]  # (4, 16, N)
    # The contraction sums from +0 and scales each term by 1/2; both are exact here.
    M = ((terms[0] + terms[1] + terms[2] + terms[3]) * 0.5 + 0.0).reshape(4, 4, -1)
    M = 0.5 * (M + M.swapaxes(0, 1))
    M = np.moveaxis(M, -1, 0).reshape(R.shape[:-4] + (4, 4))
    return M[..., 1:, 1:], 2.0 * M[..., 0, 1:], M[..., 0, 0]


def _bloch_direction(F: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Directions F c of the unit c with c c* = (I + v.sigma)/2, for F (2, 2, P) and v (3, ..., P).

    c is the larger column of that projector, normalised.  Written out
    elementwise with the stack axis last; the directions come back with it
    first, (..., P, 2).
    """
    v1, v2, v3 = v
    upper = v3 >= 0.0
    c0 = np.where(upper, 1.0 + v3, v1 - 1j * v2)
    c1 = np.where(upper, v1 + 1j * v2, 1.0 - v3)
    norm = np.sqrt((c0.real * c0.real + c0.imag * c0.imag) + (c1.real * c1.real + c1.imag * c1.imag))
    c0, c1 = c0 / norm, c1 / norm
    return np.stack([F[0, 0] * c0 + F[0, 1] * c1, F[1, 0] * c0 + F[1, 1] * c1], axis=-1)


def _direction_extrema(R, g, xi, K, certified=True) -> DirectionExtrema:
    """Residuals and convergence flags at given extremizers, stacked.

    xi (2, P, m) and K (2, P) hold the minima of the P points of (R, g), then
    their maxima.  Their residuals are one :func:`_residual` call, over which
    R and g broadcast, so neither is copied for the two rows.  A point is
    converged when both its residuals are within ``_RESIDUAL_TOL`` times
    max(1, |K|) and the solve ``certified`` it.
    """
    res = _residual(R, g, xi)
    converged = np.all(res <= _RESIDUAL_TOL * np.maximum(1.0, np.abs(K)), axis=0) & certified
    return DirectionExtrema(K[0], K[1], xi[0], xi[1], res[0], res[1], converged)


def _extremize_surfaces(R: np.ndarray, F: np.ndarray):
    """Exact extrema of K over stacked two-dimensional tangent spaces, certified by their duality gaps.

    In the orthonormal frame F of the metric, carried (2, 2, B), K is the
    Bloch quadratic of :func:`_bloch_quadratic`, extremized by
    :func:`~kahlerpinch.sphere._sphere_extrema` with the stack axis last.
    Its rounding floor is a few ulps of the largest value the quadratic's
    terms can take: K is a sum of terms of that size, so its absolute error
    is no smaller.  A point is converged when the duality gap of each of its
    extrema is within the floor, so each is within rounding of the true
    extremum of the rounded quadratic, and the floor is within
    ``_RESIDUAL_TOL`` times max(1, |K|).  R (B, 2, 2, 2, 2) carries one
    leading stack axis, and a row gets the same bits alone as in any stack.
    Returns K (2, B), the minima then the maxima, the extremizers' Bloch
    vectors (3, 2, B), whose third component gives the frame weights, and
    the flags (B,).  The metric must be known definite: F is not checked.
    """
    A, b, c0 = _bloch_quadratic(R, F)
    v, K, gap = _sphere_extrema(A, b, c0)
    A, b = np.moveaxis(A, 0, -1), b.T  # views of the stack-last arrays of _bloch_quadratic
    floor = np.abs(c0) + np.abs(b[0]) + np.abs(b[1]) + np.abs(b[2])
    for entry in np.abs(A).reshape(9, -1):
        floor = floor + entry
    floor, K = _ROUNDING_ULPS * _EPS * floor, K.reshape(2, -1)
    converged = (gap.reshape(2, -1) <= floor) & (floor <= _RESIDUAL_TOL * np.maximum(1.0, np.abs(K)))
    return K, v.reshape(3, 2, -1), converged.all(axis=0)


def _start_candidates(m: int, seed: int) -> np.ndarray:
    """Unit frame vectors that seed the general search: e_i, (e_i + phase e_j)/sqrt 2, 64 random."""
    cands = list(np.eye(m, dtype=complex))
    for i in range(m):
        for j in range(i + 1, m):
            for phase in (1.0, -1.0, 1j, -1j):
                d = np.zeros(m, dtype=complex)
                d[i] = 1.0
                d[j] = phase
                cands.append(d / math.sqrt(2.0))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((64, m)) + 1j * rng.standard_normal((64, m))
    cands.extend(raw / np.linalg.norm(raw, axis=1)[:, None])
    return np.asarray(cands)


def _chart_vector(x: np.ndarray) -> np.ndarray:
    """Rows c = (1, z) in C^m for the chart points x = (Re z_1, Im z_1, Re z_2, ...), stacked."""
    return np.concatenate([np.ones((len(x), 1), dtype=complex), x.view(complex)], axis=1)


def _chart_objective(Rhat: np.ndarray, sign: np.ndarray):
    """sign * K, with its gradient and Hessian, in the affine chart c_0 = 1 of the frame.

    Stacked over the rows of Rhat (B, m, m, m, m) and sign (B,): ``fun(x,
    rows)`` evaluates the rows ``rows`` at the chart points x (len(rows),
    2(m - 1)).  A real chart point x holds the other coordinates of c,
    interleaved as (Re, Im).  With S = |c|^2, N = conj(c).v, v_b = sum
    Rhat_abcd c_a c_c conj(c_d), W_ba = sum Rhat_abcd c_c conj(c_d) and U_bd
    = sum Rhat_abcd c_a c_c, K = 2N/S^2 has the Wirtinger derivatives

        dK/dconj(c)            = 4v/S^2 - 4Nc/S^3,
        d2K/dconj(c) dc        = 8W/S^2 - 8(v c* + c v*)/S^3 - 4N I/S^3 + 12N c c*/S^4,
        d2K/dconj(c) dconj(c)  = 4U/S^2 - 8(v c^T + c v^T)/S^3 + 12N c c^T/S^4,

    from which the real gradient and Hessian in x follow.
    """
    m = Rhat.shape[-1]
    M_ba_cd = Rhat.transpose(0, 2, 1, 3, 4).reshape(-1, m * m, m * m)
    M_ac_bd = Rhat.transpose(0, 1, 3, 2, 4).reshape(-1, m * m, m * m)

    def fun(x, rows):
        c = _chart_vector(x)
        cc = c.conj()
        P, Q = np.einsum("ka,kb->kab", c, cc), np.einsum("ka,kb->kab", c, c)
        W = np.einsum("kpq,kq->kp", M_ba_cd[rows], P.reshape(-1, m * m)).reshape(-1, m, m)
        U = np.einsum("kp,kpq->kq", Q.reshape(-1, m * m), M_ac_bd[rows]).reshape(-1, m, m)
        v = np.einsum("kba,ka->kb", W, c)
        S = np.einsum("ka,ka->k", cc, c).real[:, None, None]
        N = np.einsum("ka,ka->k", cc, v).real[:, None, None]
        G = (4.0 / S[:, 0] ** 2) * v - (4.0 * N[:, 0] / S[:, 0] ** 3) * c
        vc, vq = np.einsum("ka,kb->kab", v, cc), np.einsum("ka,kb->kab", v, c)
        H1 = (8.0 / S**2) * W - (8.0 / S**3) * (vc + vc.conj().swapaxes(1, 2))
        H1 += (12.0 * N / S**4) * P
        H1[:, range(m), range(m)] -= 4.0 * N[:, 0] / S[:, 0] ** 3
        H2 = (4.0 / S**2) * U - (8.0 / S**3) * (vq + vq.swapaxes(1, 2)) + (12.0 * N / S**4) * Q
        # d/dx = d/dz + d/dconj(z) and d/dy = i (d/dz - d/dconj(z)) on each coordinate z = x + iy.
        s = sign[rows, None, None]
        A, B = s * (H1 + H2)[:, 1:, 1:], s * (H1 - H2)[:, 1:, 1:]
        hess = np.empty((len(x), 2 * m - 2, 2 * m - 2))
        hess[:, 0::2, 0::2], hess[:, 1::2, 0::2] = 2.0 * A.real, 2.0 * A.imag
        hess[:, 0::2, 1::2], hess[:, 1::2, 1::2] = -2.0 * B.imag, 2.0 * B.real
        grad = (2.0 * s[:, 0]) * G[:, 1:].view(float)
        return (s * 2.0 * N / S**2)[:, 0, 0], grad, 0.5 * (hess + hess.swapaxes(1, 2))

    return fun


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two stacks of vectors; a row's value never depends on the others."""
    return np.einsum("ki,ki->k", a, b)


def _trust_region_step(g: np.ndarray, H: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Minimisers p of g.p + p.Hp/2 over |p| <= radius (More and Sorensen 1983), stacked.

    For each row of g (B, n), H (B, n, n) and radius (B,), in the eigenbasis
    of H, p = -(H + mu I)^-1 g for the least mu >= max(0, -lambda_min) that
    puts p in the region.  Rows whose Newton step -H^-1 g lies inside take
    it.  On the boundary, p/radius = -beta/(gap + t) with gap = lambda -
    lambda_min, beta = a/radius and t = lambda_min + mu: the S^2 solve's
    secular equation, whose one root finder
    (:func:`~kahlerpinch.sphere._secular_root`) solves it with low =
    lambda_min, so that mu = t - lambda_min >= 0.  If p stays inside the
    region at its floor (the hard case), it is completed to the boundary
    along the eigenvector of lambda_min.
    """
    lam, Q = np.linalg.eigh(H)
    a = np.einsum("kji,kj->ki", Q, g)
    p = np.zeros_like(a)
    inside = lam[:, 0] > 0.0
    p[inside] = -a[inside] / lam[inside]
    rows = np.flatnonzero(~inside | (_dot(p, p) > radius**2))
    lam, beta, r = lam[rows].T, a[rows].T / radius[rows], radius[rows]
    gap = lam - lam[0]
    # p/radius with contiguous rows, like p, so that _dot sums a row in one order in any stack
    w = (-beta / (gap + _secular_root(gap, beta, lam[0]))).T.copy()
    short = 1.0 - _dot(w, w)
    hard = short > 0.0
    w[hard, 0] = -np.copysign(np.sqrt(w[hard, 0] ** 2 + short[hard]), beta[0, hard])
    p[rows] = r[:, None] * w
    return np.einsum("kij,kj->ki", Q, p)


@dataclass(frozen=True)
class NewtonResult:
    """Last iterates of :func:`minimize`, their values and the evaluations spent on all rows."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def minimize(fun, x0: np.ndarray, gtol: np.ndarray) -> NewtonResult:
    """Local minima of ``fun`` by trust-region Newton (More and Sorensen 1983), one per row of x0.

    ``fun(x, rows)`` returns the values, gradients and Hessians of the rows
    ``rows`` of the stack at the points x.  Each step minimises the quadratic
    model exactly in the trust region, which grows when the model predicts
    the decrease well and shrinks when it does not.  Near a minimum the
    decreases fall below the rounding of the value, where the ratio of
    actual to predicted decrease is noise; there a step is taken when it
    lowers the gradient norm.  A row stops once its largest gradient entry
    is within its ``gtol``, its region has shrunk below the rounding of x,
    or after ``_MAX_ITER`` evaluations.  Every row keeps its own region and
    stop rule, and each step evaluates only the rows still running, so a
    row's result does not depend on the others.
    """
    x = np.array(x0, dtype=float)
    rows = np.arange(len(x))
    f, g, H = fun(x, rows)
    nfev, radius = np.ones(len(x), dtype=int), np.ones(len(x))
    while len(rows := rows[(np.abs(g[rows]).max(axis=1) > gtol[rows]) & (nfev[rows] < _MAX_ITER)]):
        f0, g0, H0, r = f[rows], g[rows], H[rows], radius[rows]
        p = _trust_region_step(g0, H0, r)
        predicted = -(_dot(g0, p) + _dot(np.einsum("ki,kij->kj", 0.5 * p, H0), p))
        x_new = x[rows] + p
        f_new, g_new, H_new = fun(x_new, rows)
        nfev[rows] += 1
        step = np.sqrt(_dot(p, p))
        flat = predicted <= _ROUNDING_ULPS * _EPS * np.abs(f0)
        ratio = np.divide(f0 - f_new, predicted, out=np.zeros_like(f0), where=~flat)
        accept = np.where(flat, _dot(g_new, g_new) < _dot(g0, g0), ratio > 0.1)
        ratio[flat] = accept[flat]
        grow = (ratio > 0.75) & (step >= 0.99 * r)
        radius[rows] = np.where(ratio < 0.25, 0.25 * step, np.where(grow, 2.0 * r, r))
        i = rows[accept]
        x[i], f[i], g[i], H[i] = x_new[accept], f_new[accept], g_new[accept], H_new[accept]
        rows = rows[radius[rows] > _EPS * (1.0 + np.sqrt(_dot(x[rows], x[rows])))]
    return NewtonResult(x, f, int(nfev.sum()))


def extremize_directions(R: np.ndarray, g: np.ndarray, seed: int = 0) -> DirectionExtrema:
    """Extrema of K over the unit spheres of a stack of tangent spaces.

    R and g carry a leading point axis, (P, m, m, m, m) and (P, m, m); the
    fields of the result are arrays over it.  Two-dimensional tangent spaces
    are solved exactly on the Bloch sphere.  Higher dimensions contract every
    curvature tensor into its orthonormal frame, score one seeded set of
    frame directions on the whole stack with one :func:`batch_hsc`, and run
    one stacked trust-region Newton search (:func:`minimize`) of 2P rows,
    from each point's best start for the minimum and for the maximum, in the
    affine chart of the start's largest frame coordinate; this is a local
    search with no global guarantee.  The returned values are K, and the
    residuals the analytic K-gradient norms, at the returned extremizers, the
    numerical counterpart of the constrained stationarity conditions.  A row
    is flagged unconverged when either residual exceeds ``_RESIDUAL_TOL``
    scaled by the curvature magnitude.  Both the exact solve and the Newton
    search reach residuals near rounding, about 1e-12 relative, so that
    tolerance leaves a wide margin.  A surface's row is also flagged when
    the duality gap of either extremum exceeds the rounding floor of its
    quadratic, or that floor exceeds the same tolerance
    (:func:`_extremize_surfaces`): its flag then says that each value is
    within rounding of the true extremum of the rounded quadratic.
    """
    R, g = np.asarray(R, dtype=complex), np.asarray(g, dtype=complex)
    return _extremize_directions(R, g, _require_positive_definite(g).frame, seed)


def _extremize_directions(R: np.ndarray, g: np.ndarray, F: np.ndarray, seed: int) -> DirectionExtrema:
    """:func:`extremize_directions` of complex stacks with the carried frame F (m, m, P) of their metrics.

    The metrics must be known definite: nothing is checked.
    """
    m = g.shape[-1]
    if m == 2:
        K, v, converged = _extremize_surfaces(R, F)
        return _direction_extrema(R, g, _bloch_direction(F, v), K, converged)
    if m == 1:
        xi = np.concatenate([F[0].T, F[0].T])
    else:
        Rhat, cands = _frame_tensor(R, F), _start_candidates(m, seed)
        values = batch_hsc(Rhat, np.eye(m), cands)
        # Rows k < P of the search seek the minima, rows k >= P the maxima.
        point, sign = np.tile(np.arange(len(g)), 2), np.repeat([1.0, -1.0], len(g))
        best = np.concatenate([values.argmin(axis=1), values.argmax(axis=1)])
        order = (np.arange(m) + np.argmax(np.abs(cands[best]), axis=1)[:, None]) % m
        c0 = cands[best[:, None], order]
        x0 = (c0[:, 1:] / c0[:, :1]).view(float)
        i = order[:, :, None, None, None]
        Rhat = Rhat[(point[:, None, None, None, None], *(i.swapaxes(1, j) for j in range(1, 5)))]
        gtol = _GRADIENT_TOL * np.maximum(1.0, np.abs(values[point, best]))
        res = minimize(_chart_objective(Rhat, sign), x0, gtol)
        Fo = np.take_along_axis(_stack_first(F, (len(g),))[point], order[:, None, :], axis=2)
        xi = np.einsum("kij,kj->ki", Fo, _chart_vector(res.x))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    xi = xi.reshape(2, len(g), m)
    K = np.stack([holomorphic_sectional_curvature(R, g, half) for half in xi])
    return _direction_extrema(R, g, xi, K)


def extremize_quadratic(alpha, beta, gamma) -> QuadraticExtrema:
    """Exact extrema of the weight quadratic over a in [0, 1], elementwise.

    With b = 1 - a the quadratic is (alpha - beta + gamma) a^2 + (beta - 2
    gamma) a + gamma, so its extrema lie at a = 0, a = 1 or its vertex clipped
    to [0, 1].  For finite coefficients it is exactly gamma at a = 0 and alpha
    at a = 1 (up to the sign of a zero), so only the vertex is evaluated.
    """
    alpha, beta, gamma = (np.asarray(x, dtype=float) for x in (alpha, beta, gamma))
    curv, slope0 = alpha - beta + gamma, beta - 2.0 * gamma
    a = np.clip(np.divide(-slope0, 2.0 * curv, out=np.zeros_like(curv), where=curv != 0), 0.0, 1.0)
    K = alpha * a * a + beta * a * (1.0 - a) + gamma * (1.0 - a) ** 2
    extrema = np.minimum(np.minimum(gamma, alpha), K), np.maximum(np.maximum(gamma, alpha), K)
    return QuadraticExtrema(*extrema)


@dataclass(frozen=True)
class PinchingReport:
    """Global curvature extrema, pinching ratio, extremizers and method data."""

    min_K: float
    max_K: float
    pinching: float
    argmin: dict
    argmax: dict
    lagrange_residual: float
    converged: bool
    method: dict
    profile: list

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "profile"}

    def csv_rows(self):
        yield ("t", "min_K_at_t", "max_K_at_t")
        for t, lo, hi in self.profile:
            yield (t, lo, hi)


def _fiber_cells(model: Hitchin, t: np.ndarray):
    """Direction extrema at the fiber samples t of :meth:`Hitchin.fiber_jet`, one stacked solve.

    Returns arrays over t with a last axis (min, max): K (samples, 2), the
    extremizers' weights (samples, 2, 2), read off their Bloch vectors,
    residuals (samples, 2), and the convergence flags (samples,).  A sweep
    reports a cell only at the first lowest minimum, the first highest
    maximum or the last sample of a call, so the directions and residuals
    are computed on those rows alone, to the bits of the whole stack; the
    other rows' residuals are NaN.
    """
    jet = model.fiber_jet(t)
    R, F = curvature_tensor(jet), jet._factors.frame
    K, v, converged = _extremize_surfaces(R, F)
    rows = [np.argmin(K[0]), np.argmax(K[1]), len(t) - 1]
    residual = np.full((len(t), 2), np.nan)
    residual[rows] = _residual(R[rows], jet.g[rows], _bloch_direction(F[..., rows], v[..., rows])).T
    v3 = v[2].T  # the squared moduli of the frame coordinates are ((1 + v_3)/2, (1 - v_3)/2)
    return K.T, np.stack([(1.0 + v3) / 2.0, (1.0 - v3) / 2.0], axis=-1), residual, converged


def _zoom(model: Hitchin, j: int, sign: float, lo: float, hi: float, cell: tuple):
    """(cell, samples solved) for the extremum j (sign +1 the minimum, -1 the maximum) on (lo, hi).

    ``cell`` = (t, K, weights, residual, converged) is the best so far, inside
    the bracket.  Each round solves ``_ZOOM`` interior samples of the bracket
    in one :func:`_fiber_cells` call, and a sample replaces the cell only when
    it beats it strictly.  The bracket then shrinks to the cell's nearest
    neighbours among the round's points, whether or not a sample beat it, by
    a factor (``_ZOOM`` + 1)/2 or more, until it is within twice
    ``_REFINE_XTOL``; there is no early stop, so the bracket and the
    tolerance bound the number of rounds.
    """
    solved = 0
    while hi - lo > 2.0 * _REFINE_XTOL:
        points = np.linspace(lo, hi, _ZOOM + 2)
        t = points[1:-1]
        K, weights, residual, converged = _fiber_cells(model, t)
        solved += len(t)
        k = int(np.argmin(sign * K[:, j]))
        if sign * K[k, j] < sign * cell[1]:
            cell = (t[k], K[k, j], weights[k, j], residual[k, j], converged[k])
        lo = points[np.searchsorted(points, cell[0]) - 1]
        hi = points[np.searchsorted(points, cell[0], side="right")]
    return cell, solved


def sweep_fiber(model: Hitchin, grid: int = 512, seed: int = 0) -> PinchingReport:
    """Extremize K over the compactified central fiber and all directions.

    Sweeps t = r/(1+r) over a uniform grid on [0, 1] in stacks of
    ``_FIBER_BLOCK`` samples.  t = 1, the curve at infinity, is the point
    w = 0 of the chart (z1, w = 1/z2), solved like every other sample: no
    closed form is read, and the samples near t = 1 keep full precision.
    A grid extremum that ties with t = 1 (within 1e-9 relative) is reported
    there, where both extremal directions coexist.  Any other extreme cell
    inside the grid is refined by :func:`_zoom` on the bracket of its grid
    neighbours, to the t-tolerance ``_REFINE_XTOL``, through the same stacked
    solve; the reported cell comes out of that solve.  ``seed`` is recorded
    in the method data; the exact solve draws no random numbers.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    require_admissible(model.n, model.s)
    ts = np.linspace(0.0, 1.0, grid)
    blocks = (_fiber_cells(model, ts[i : i + _FIBER_BLOCK]) for i in range(0, grid, _FIBER_BLOCK))
    K, weights, residual, converged = (np.concatenate(x) for x in zip(*blocks))

    extremes, refine_iters = [], 0
    for j, sign in enumerate((1.0, -1.0)):  # j = 0: the minimum, j = 1: the maximum
        i = int(np.argmin(sign * K[:, j]))
        if sign * K[-1, j] <= sign * K[i, j] + 1e-9 * abs(K[i, j]):
            i = grid - 1
        cell = (ts[i], K[i, j], weights[i, j], residual[i, j], converged[i])
        if 0 < i < grid - 1:
            cell, solved = _zoom(model, j, sign, ts[i - 1], ts[i + 1], cell)
            refine_iters += solved
        extremes.append(cell)
    (t_min, min_K, w_min, r_min, c_min), (t_max, max_K, w_max, r_max, c_max) = extremes

    return PinchingReport(
        min_K=float(min_K),
        max_K=float(max_K),
        pinching=float(min_K / max_K),
        argmin={"t": float(t_min), "weights": w_min.tolist()},
        argmax={"t": float(t_max), "weights": w_max.tolist()},
        lagrange_residual=float(max(r_min, r_max)),
        converged=bool(c_min and c_max),
        method={
            "grid": grid,
            "tol": _REFINE_XTOL,
            "residual_tol": _RESIDUAL_TOL,
            "seed": seed,
            "refine_iterations": refine_iters,
            "unconverged_cells": int(np.count_nonzero(~converged)),
        },
        profile=list(zip(ts.tolist(), K[:, 0].tolist(), K[:, 1].tolist())),
    )


@dataclass(frozen=True)
class SweepSResult:
    """Numerically measured pinching as a function of the family parameter."""

    n: int
    rows: list
    argmax_s: float
    argmax_pinching: float
    cell_width: float
    unimodal: bool

    def csv_rows(self):
        yield ("s", "pinching", "is_argmax")
        for s, p in self.rows:
            yield (s, p, int(s == self.argmax_s))


def _sweep_radii() -> np.ndarray:
    """Fiber radii r = t/(1-t) of the ``_SWEEP_T_POINTS`` samples t of [0, 1], inf at t = 1."""
    t = np.linspace(0.0, 1.0, _SWEEP_T_POINTS)
    with np.errstate(divide="ignore"):
        return t / (1.0 - t)


def sweep_s(n: int, points: int = 999) -> SweepSResult:
    """Measure the pinching ratio on a uniform parameter grid inside (0, 1/n^2).

    Every parameter value is extremized numerically on one (s x t) array: the
    exact interval solve of the weight quadratic at every compactified fiber
    sample, t = 1 (r = inf) its last column.
    """
    if points < 1:
        raise ValueError("empty parameter grid")
    if n < 1:
        raise ValueError("Hirzebruch index n must be >= 1")
    # Hitchin's range rule for s; the grid stays below 1/n^2 <= 1.
    s_min = Fraction(1, n * n * (points + 1))
    if s_min < _S_RANGE[0]:
        raise ValueError(
            f"Hirzebruch index n = {n} puts the {points}-point parameter grid down to "
            f"s = {float(s_min):.3g}, outside [%g, %g]: out of numerical range" % _S_RANGE
        )
    s_max = 1.0 / (n * n)
    svals = s_max * np.arange(1, points + 1) / (points + 1)
    fiber = extremize_quadratic(*hsc_coefficients(n, svals[:, None], _sweep_radii()))
    ps = fiber.min_K.min(axis=1) / fiber.max_K.max(axis=1)
    rows = list(zip(svals.tolist(), ps.tolist()))
    k = int(np.argmax(ps))
    diffs = np.diff(ps)
    unimodal = bool(np.all(diffs[:k] > -1e-12) and np.all(diffs[k:] < 1e-12))
    return SweepSResult(
        n=n,
        rows=rows,
        argmax_s=rows[k][0],
        argmax_pinching=rows[k][1],
        cell_width=float(svals[1] - svals[0]) if points > 1 else float(s_max),
        unimodal=unimodal,
    )
