"""Extremization of holomorphic sectional curvature over directions and parameters.

This module is the generic numerical route to the pinching constants: its
fiber sweep reads no closed form, only curvature tensors.  The compactified
fiber endpoint t = 1, where the chart (z1, z2) degenerates, is the point
w = 0 of the chart (z1, w = 1/z2), an ordinary sample (``Hitchin.fiber_jet``).

The extrema over the directions of a two-dimensional tangent space are exact:
there the direction lines form the Bloch sphere S^2, on which K is a quadratic
v.Av + b.v + c0, and one eigenproblem enumerates its Karush-Kuhn-Tucker points
(Gander, Golub and von Matt, "A constrained eigenvalue problem", 1989): 15 unit
candidates per tangent space, which hold the extremizers in the hard case too.
A spurious candidate is a point of the sphere as well, so it can tie with an
extremum but never beat it; tied candidates are told apart by stationarity,
then by K, never by their order.  The weight quadratic of the Hirzebruch
family is extremized exactly on its interval.  The two-dimensional solve is
stacked: the fiber sweep hands it all its tangent spaces at once, and a
single tangent space is the one-row stack of the same code.  Higher
dimensions are stacked the same way: every curvature tensor of the stack is
contracted into its orthonormal frame, one seeded set of start directions is
scored on all of them at once, and one trust-region Newton search (More and
Sorensen 1983) with the analytic gradient and Hessian runs from every row's
best starts, each in an affine chart of the direction space: a stacked local
search with no global guarantee, which converges quadratically to residuals
at rounding, in which no row depends on another.  Curvature at many
directions is one real quadratic form per tensor in the m^2 real coordinates
of xi xi* (``batch_hsc``), a matrix product over blocks of directions and
over a stack of tensors.
The fiber sweep solves its grid, t = 1 included, through one stacked cell
function, and refines an extreme cell inside the grid by zooming on the
bracket of its grid neighbours: each round is one call of the same stacked
solve on interior samples of the bracket.  Stationarity is certified through
the analytic gradient of K, whose full Euclidean norm vanishes at extremal
directions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import (
    _curvature,
    _frame,
    _real_part,
    _require_positive_definite,
    holomorphic_sectional_curvature,
    hsc_gradient,
    orthonormal_frame,
)
from .hirzebruch import hsc_coefficients, require_admissible
from .models import Hitchin

__all__ = [
    "DirectionExtrema",
    "NewtonResult",
    "QuadraticExtrema",
    "PinchingReport",
    "SweepSResult",
    "batch_hsc",
    "extremize_directions",
    "extremize_quadratic",
    "direction_weights",
    "minimize",
    "sweep_fiber",
    "sweep_s",
]

# Compactified fiber samples per parameter value in sweep_s, t = 1 included.
_SWEEP_T_POINTS = 65
# Fiber samples per stacked solve in sweep_fiber: a fixed cost per solve against
# buffers that grow with the block.  Grid-512 sweeps (n = 1, 3, 6 at s*, lower
# quartiles on a 2-core VM): 20.8, 16.4 and 15.5 ms at 128, 256 and 512;
# certify-fiber peak RSS 36.6, 36.7 and 37.6 MB, so 512 buys 5 % for 0.9 MB.
_FIBER_BLOCK = 256
# Directions per matrix product in batch_hsc and the Berger sphere average:
# bounds their (m^2, rows) buffers.
_HSC_BLOCK = 8192
_EPS = float(np.finfo(float).eps)
# Gradient tolerance of each general-dimension search, relative to max(1, |K|)
# at its start.
_GRADIENT_TOL = 1e-12
# Evaluations of one general-dimension Newton search.
_MAX_ITER = 100
# Newton steps on the trust-region boundary equation.
_TRUST_REGION_ITER = 50
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
# Pauli basis with sigma_0 = I: a unit c in C^2 has c c* = (I + v.sigma)/2, |v| = 1.
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# 1/2 sigma_m (x) sigma_n as a (16, 16) matrix, rows ab cd, columns mn: Rhat's
# flattened contraction with it is M_mn = sum Rhat_abcd sigma_m,ab sigma_n,cd / 2.
_BLOCH = 0.5 * np.einsum("mab,ncd->abcdmn", _PAULI, _PAULI).reshape(16, 16)
# +e_j and -e_j for j = 0, 1, 2, shape (3, 2, 3): the hard-case completions.
_COMPLETION = np.eye(3)[:, None, :] * np.array([1.0, -1.0])[:, None]


def _hermitian_coordinates(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Real coordinates q of xi xi* for the column directions xi = re + i im, as (m^2, B).

    re and im are the real and imaginary parts, shape (m, B), fastest with
    contiguous rows.  q = (|xi_a|^2, Re xi_a conj(xi_b), Im xi_a conj(xi_b))
    over a and the pairs a < b in ``np.triu_indices`` order, written in place.
    """
    m = len(re)
    q = np.empty((m * m, re.shape[1]))
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
    N = _real_part(0.5 * (A + A.swapaxes(-1, -2)), "sectional curvature form")
    return N, (g.reshape(g.shape[:-2] + (m * m,)) @ T).real


def batch_hsc(R: np.ndarray, g: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Holomorphic sectional curvature of every row direction of ``xis`` (shape (B, m)).

    R and g may carry leading tensor axes, (..., m, m, m, m) and (..., m, m);
    the result is (..., B), every tensor of the stack at every direction.  In
    the real coordinates q of xi xi*, K(xi) = 2 q.N q / (gamma.q)^2 with the
    form of :func:`_hermitian_form`; the rows are evaluated as one real matrix
    product per block of ``_HSC_BLOCK`` rows (:func:`_hsc_columns`).
    """
    xis = np.asarray(xis, dtype=complex)
    N, gamma = _hermitian_form(np.asarray(R, dtype=complex), np.asarray(g, dtype=complex))
    # One (1, m^2) row per metric, so that a shared metric and a stacked one
    # take the same matrix product and give the same bits.
    gamma = gamma[..., None, :]
    K = np.empty(np.broadcast_shapes(N.shape[:-2], gamma.shape[:-2]) + (len(xis),))
    for i in range(0, len(xis), _HSC_BLOCK):
        block = xis[i : i + _HSC_BLOCK].T
        K[..., i : i + block.shape[1]] = _hsc_columns(N, gamma, block.real, block.imag)
    return K


def _hsc_columns(N: np.ndarray, gamma: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """K of the column directions re + i im, (m, B) each, on the form (N, gamma[..., None, :]).

    One block of :func:`batch_hsc`, (..., B): its bits depend on the block's
    columns and width, not on where the parts are stored.
    """
    q = _hermitian_coordinates(re, im)
    Nq = N @ q
    Nq *= q
    return 2.0 * Nq.sum(axis=-2) / (gamma @ q)[..., 0, :] ** 2


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
    """Stationarity residual |dK/d conj(xi)| at the Euclidean-normalised xi, stacked."""
    xi = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    return np.linalg.norm(hsc_gradient(R, g, xi), axis=-1)


def _frame_tensor(R: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Rhat = R(F., conj(F)., F., conj(F).), the curvature tensor in the frame F, stacked.

    In the frame the metric is the identity, so K(F c) = 2 sum Rhat_abcd c_a
    conj(c_b) c_c conj(c_d) / |c|^4 for every nonzero c in C^m.  R and F share
    their leading axes, which the contractions flatten and move last, so that
    numpy's inner loops run over the stack rather than over index axes of length m.
    """
    shape, m = R.shape, R.shape[-1]
    R = np.ascontiguousarray(R.reshape(-1, m**4).T).reshape((m,) * 4 + (-1,))
    F = np.ascontiguousarray(F.reshape(-1, m * m).T).reshape(m, m, -1)
    Rhat = np.einsum("ijkl...,ld...->ijkd...", R, F.conj())
    Rhat = np.einsum("ijkd...,kc...->ijcd...", Rhat, F)
    Rhat = np.einsum("ijcd...,jb...->ibcd...", Rhat, F.conj())
    Rhat = np.einsum("ibcd...,ia...->abcd...", Rhat, F)
    return np.moveaxis(Rhat, -1, 0).reshape(shape)


def _bloch_quadratic(R: np.ndarray, F: np.ndarray):
    """(A, b, c0) with K(F c) = v.A v + b.v + c0 for unit c, c c* = (I + v.sigma)/2.

    In the frame, K(F c) = 2 sum Rhat_abcd P_ab P_cd with P = c c* =
    sum_mu v_mu sigma_mu / 2 and v_0 = 1, a quadratic form in (1, v), here
    one contraction of the flattened Rhat with ``_BLOCH``.  Stacked over the
    leading axes of R and F.
    """
    batch = R.shape[:-4]
    M = np.einsum("...p,pq->...q", _frame_tensor(R, F).reshape(batch + (16,)), _BLOCH).real
    M = M.reshape(batch + (4, 4))
    M = 0.5 * (M + M.swapaxes(-1, -2))
    return M[..., 1:, 1:], 2.0 * M[..., 0, 1:], M[..., 0, 0]


def _sphere_kkt_points(A: np.ndarray, b: np.ndarray):
    """Unit vectors (rows) among which lie all KKT points of v.A v + b.v on S^2.

    A KKT point solves (A - mu) v = -b/2 with |v| = 1: in the eigenbasis Q of
    A, w_j = -beta_j/(lam_j - mu) with beta = Q^T b/2.  Its multiplier mu is a
    real eigenvalue of [[A, -I], [-b b^T/4, A]], or, in the hard case, within
    1e-12 of an eigenvalue lam_j of A, where w_j is free.  So the 15
    candidates are w(mu) for the 9 multipliers of both spectra, with w_j = 0
    where mu is that close to lam_j, and the completions w(lam_j) +- fill e_j
    to unit length.  Each is normalised onto the sphere, so a spurious one
    can tie with the extremum but never beat it.

    Stacked over the leading axes of A (..., 3, 3) and b (..., 3): returns the
    candidates (..., 15, 3) and a mask (..., 15) of those that exist, which is
    every candidate but a zero vector.
    """
    lam, Q = np.linalg.eigh(A)
    beta = np.einsum("...ji,...j->...i", Q, b) / 2.0
    H = np.zeros(A.shape[:-2] + (6, 6))
    H[..., :3, :3] = H[..., 3:, 3:] = A
    H[..., :3, 3:] = -np.eye(3)
    H[..., 3:, :3] = -(b[..., :, None] * b[..., None, :]) / 4.0
    mu = np.concatenate([np.linalg.eigvals(H).real, lam], axis=-1)
    gap = lam[..., None, :] - mu[..., :, None]
    scale = np.maximum(1.0, np.maximum(np.abs(lam).max(axis=-1), np.abs(beta).max(axis=-1)))
    singular = np.abs(gap) <= 1e-12 * scale[..., None, None]
    w = -beta[..., None, :] / np.where(singular, np.inf, gap)
    fill = np.sqrt(np.maximum(0.0, 1.0 - np.sum(w[..., 6:, :] ** 2, axis=-1)))
    hard = w[..., 6:, None, :] + fill[..., None, None] * _COMPLETION
    W = np.concatenate([w, hard.reshape(w.shape[:-2] + (6, 3))], axis=-2)
    norm = np.linalg.norm(W, axis=-1)
    valid = norm > 0.0
    W /= np.where(valid, norm, 1.0)[..., None]
    return W @ Q.swapaxes(-1, -2), valid


def _bloch_direction(F: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Direction F c of the unit c with c c* = (I + v.sigma)/2, stacked.

    c is the larger column of that projector, normalised.
    """
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    c = np.where(
        (v3 >= 0.0)[..., None],
        np.stack([1.0 + v3, v1 + 1j * v2], axis=-1),
        np.stack([v1 - 1j * v2, 1.0 - v3], axis=-1),
    )
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    return np.einsum("...ij,...j->...i", F, c)


def _bloch_weights(v: np.ndarray) -> np.ndarray:
    """Squared moduli (|c_0|^2, |c_1|^2) = ((1 + v_3)/2, (1 - v_3)/2) of the frame coordinates."""
    return np.stack([(1.0 + v[..., 2]) / 2.0, (1.0 - v[..., 2]) / 2.0], axis=-1)


def _direction_extrema(R, g, xi_min, min_K, xi_max, max_K, floor=0.0) -> DirectionExtrema:
    """Residuals and convergence flags at given extremizers, stacked.

    An extremum is converged when its residual, and the solve's rounding
    ``floor``, are within ``_RESIDUAL_TOL`` times max(1, |K|).
    """
    res_min, res_max = _residual(R, g, xi_min), _residual(R, g, xi_max)
    tol = _RESIDUAL_TOL
    converged = (np.maximum(res_min, floor) <= tol * np.maximum(1.0, np.abs(min_K))) & (
        np.maximum(res_max, floor) <= tol * np.maximum(1.0, np.abs(max_K))
    )
    return DirectionExtrema(min_K, max_K, xi_min, xi_max, res_min, res_max, converged)


def _extremize_surfaces(R: np.ndarray, g: np.ndarray):
    """Exact extrema of K over stacked two-dimensional tangent spaces.

    In the orthonormal frame F of g, K is the Bloch quadratic of
    :func:`_bloch_quadratic`, and its extremizers are among the candidates of
    :func:`_sphere_kkt_points`.  The rounding floor of the extrema, passed to
    :func:`_direction_extrema`, is a few ulps of the largest value the
    quadratic's terms can take: K is a sum of terms of that size, so its
    absolute error is no smaller.  Returns the stacked DirectionExtrema and
    the Bloch vectors of its extremizers, whose third component gives the
    frame weights.  g must be known definite: the frame is not checked.
    """
    F = _frame(g)
    A, b, c0 = _bloch_quadratic(R, F)
    floor = _ROUNDING_ULPS * _EPS * (
        np.abs(A).sum(axis=(-1, -2)) + np.abs(b).sum(axis=-1) + np.abs(c0)
    )
    V, valid = _sphere_kkt_points(A, b)
    VA = V @ A
    quad = np.sum(VA * V, axis=-1)
    Vb = np.einsum("...ki,...i->...k", V, b)
    K = quad + Vb + c0[..., None]
    kkt = np.linalg.norm(VA + b[..., None, :] / 2.0 - (quad + Vb / 2.0)[..., None] * V, axis=-1)
    tie = 1e-12 * np.maximum(1.0, np.abs(np.where(valid, K, 0.0)).max(axis=-1))

    def pick(x):
        # Spurious multipliers next to a multiple eigenvalue of A give points
        # within rounding of a true KKT point; the exact one is the most
        # stationary of the tied candidates.  Equally stationary ones, such as
        # both poles of a rounding-sized b, are told apart by K itself (the
        # lower for the minimum, the higher for the maximum), so the order of
        # the candidates never picks the value.
        x = np.where(valid, x, np.inf)
        residual = np.where(x <= (x.min(axis=-1) + tie)[..., None], kkt, np.inf)
        x[residual > residual.min(axis=-1)[..., None]] = np.inf
        i = np.argmin(x, axis=-1)[..., None]
        v = np.take_along_axis(V, i[..., None], axis=-2)[..., 0, :]
        return v, np.take_along_axis(K, i, axis=-1)[..., 0]

    v_min, min_K = pick(K)
    v_max, max_K = pick(-K)
    xi_min, xi_max = _bloch_direction(F, v_min), _bloch_direction(F, v_max)
    return _direction_extrema(R, g, xi_min, min_K, xi_max, max_K, floor), v_min, v_max


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
    puts p in the region.  On the boundary, mu = max(0, -lambda_min) + shift
    solves |p| = radius, by Newton steps on 1/|p| kept inside a bracket by
    geometric bisection, taken together by the boundary rows until each one
    meets its test.  Shifts below the rounding of the eigenvalues are zero:
    if p stays inside the region there (the hard case), it is completed to
    the boundary along the eigenvector of lambda_min.
    """
    lam, Q = np.linalg.eigh(H)
    a = np.einsum("kji,kj->ki", Q, g)
    p = np.zeros_like(a)
    inside = lam[:, 0] > 0.0
    p[inside] = -a[inside] / lam[inside]
    rows = np.flatnonzero(~inside | (_dot(p, p) > radius**2))
    a, lam, r = a[rows], lam[rows], radius[rows]
    gap = lam - np.minimum(0.0, lam[:, :1])
    hi = np.sqrt(_dot(a, a)) / r  # |p| <= radius at this shift
    lo = _EPS * (np.abs(lam).max(axis=1) + hi)
    q = -a / (gap + lo[:, None])
    short = r**2 - _dot(q, q)
    hard = short >= 0.0
    q[hard, 0] = -np.copysign(np.sqrt(q[hard, 0] ** 2 + short[hard]), a[hard, 0])
    p[rows[hard]] = q[hard]
    rows, a, gap, r, lo, hi = (y[~hard] for y in (rows, a, gap, r, lo, hi))
    shift = hi
    for _ in range(_TRUST_REGION_ITER):
        q = -a / (gap + shift[:, None])
        norm = np.sqrt(_dot(q, q))
        lo, hi = np.where(norm > r, shift, lo), np.where(norm > r, hi, shift)
        shift = shift + (norm / r - 1.0) * norm**2 / _dot(q * q, 1.0 / (gap + shift[:, None]))
        shift = np.where((lo < shift) & (shift < hi), shift, np.sqrt(lo * hi))
        # Rows that meet the test keep this q and leave the loop.
        open_ = np.abs(norm - r) > 1e-12 * r
        p[rows[~open_]] = q[~open_]
        rows, a, gap, r, lo, hi, shift = (y[open_] for y in (rows, a, gap, r, lo, hi, shift))
        if not len(rows):
            break
    p[rows] = -a / (gap + hi[:, None])
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
    scaled by the curvature magnitude (for surfaces, also when the solve's
    rounding floor does).  Both the exact solve and the Newton search reach
    residuals near rounding, about 1e-12 relative, so that tolerance leaves a
    wide margin.
    """
    R, g = np.asarray(R, dtype=complex), _require_positive_definite(g)
    m = g.shape[-1]
    if m == 2:
        ex, _, _ = _extremize_surfaces(R, g)
        return ex
    F = _frame(g)
    if m == 1:
        xi_min = xi_max = F[..., 0]
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
        Fo = np.take_along_axis(F[point], order[:, None, :], axis=2)
        xi = np.einsum("kij,kj->ki", Fo, _chart_vector(res.x))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        xi_min, xi_max = xi[: len(g)], xi[len(g) :]
    min_K = holomorphic_sectional_curvature(R, g, xi_min)
    max_K = holomorphic_sectional_curvature(R, g, xi_max)
    return _direction_extrema(R, g, xi_min, min_K, xi_max, max_K)


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


def direction_weights(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Squared moduli of the frame coordinates of ``xi`` (sums to one)."""
    c = np.linalg.solve(orthonormal_frame(g), np.asarray(xi, dtype=complex))
    w = np.abs(c) ** 2
    return w / w.sum()


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
    residuals (samples, 2), and the convergence flags (samples,).
    """
    jet = model.fiber_jet(t)
    ex, v_min, v_max = _extremize_surfaces(_curvature(jet), jet.g)
    return (
        np.stack([ex.min_K, ex.max_K], axis=-1),
        np.stack([_bloch_weights(v_min), _bloch_weights(v_max)], axis=-2),
        np.stack([ex.min_residual, ex.max_residual], axis=-1),
        ex.converged,
    )


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
    s_max = 1.0 / (n * n)
    svals = s_max * np.arange(1, points + 1) / (points + 1)
    tvals = np.linspace(0.0, 1.0, _SWEEP_T_POINTS)
    with np.errstate(divide="ignore"):
        radii = tvals / (1.0 - tvals)  # inf at t = 1
    fiber = extremize_quadratic(*hsc_coefficients(n, svals[:, None], radii))
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
