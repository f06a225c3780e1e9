"""Exact extrema of quadratics on the unit sphere S^2, stacked.

On S^2 a quadratic v.A v + b.v + c0 takes its extrema at Karush-Kuhn-Tucker
points, which one eigenproblem enumerates (Gander, Golub and von Matt, "A
constrained eigenvalue problem", 1989): 15 unit candidates per quadratic,
which hold the extremizers in the hard case too.  A spurious candidate is a
point of the sphere as well, so it can tie with an extremum but never beat
it; tied candidates are told apart by stationarity, then by value, never by
their order.

The solve is stacked over quadratics.  Its two LAPACK calls, ``eigh`` of A
and ``eigvals`` of a 6 x 6 matrix, take the stack axis first; everything
after them keeps it last, as elementwise arithmetic on (..., B) arrays whose
sums over index axes of length 3 are written out in a fixed order
(:func:`~kahlerpinch.geometry._sum_first`).  Numpy's inner loops then run
over the stack, and every element is rounded in the same order whatever the
stack's length, which a matrix product (through BLAS) or an einsum does not
promise: a quadratic gets the same bits alone as in any stack.
"""
from __future__ import annotations

import numpy as np

from .geometry import _sum_first

__all__: list[str] = []

# The hard-case completions +e_j and -e_j for j = 0, 1, 2, as columns of shape
# (3, 6, 1) in the candidate order +e_0, -e_0, +e_1, ...; column k completes
# the multiplier lam_j with j = _PAIR[k].
_PAIR = np.repeat(np.arange(3), 2)
_COMPLETION = (np.eye(3)[:, _PAIR] * np.tile([1.0, -1.0], 3))[..., None]


def _sphere_kkt_points(A: np.ndarray, b: np.ndarray):
    """Unit vectors among which lie all KKT points of v.A v + b.v on S^2, stack axis last.

    A KKT point solves (A - mu) v = -b/2 with |v| = 1: in the eigenbasis Q of
    A, w_j = -beta_j/(lam_j - mu) with beta = Q^T b/2.  Its multiplier mu is a
    real eigenvalue of [[A, -I], [-b b^T/4, A]], or, in the hard case, within
    1e-12 of an eigenvalue lam_j of A, where w_j is free.  So the 15
    candidates are w(mu) for the 9 multipliers of both spectra, with w_j = 0
    where mu is that close to lam_j, and the completions w(lam_j) +- fill e_j
    to unit length.  Each is normalised onto the sphere, so a spurious one
    can tie with the extremum but never beat it.

    A (B, 3, 3) and b (B, 3) carry one leading stack axis, on which ``eigh``
    of A and ``eigvals`` of the 6 x 6 matrix run.  After them the stack axis
    is last and the arithmetic elementwise, every sum over an index of length
    3 written out, so that a row's bits do not depend on the stack (see the
    module docstring).  Returns the candidates (3, 15, B), component first,
    and a mask (15, B) of those that exist, which is every candidate but a
    zero vector.
    """
    lam, Q = np.linalg.eigh(A)
    H = np.zeros((len(A), 6, 6))
    H[:, :3, :3] = H[:, 3:, 3:] = A
    H[:, :3, 3:] = -np.eye(3)
    H[:, 3:, :3] = -(b[:, :, None] * b[:, None, :]) / 4.0
    mu = np.concatenate([np.linalg.eigvals(H).real.T, lam.T])  # (9, B)
    # lam_j (3, B), Q[i, j] component i of the eigenvector j (3, 3, B), b_i (3, B)
    lam, Q, b = lam.T, np.ascontiguousarray(np.moveaxis(Q, 0, -1)), b.T
    beta = _sum_first(Q, b[:, None]) / 2.0
    gap = lam[:, None] - mu  # (3, 9, B): lam_j - mu_k
    scale = np.maximum(1.0, np.maximum(np.abs(lam).max(axis=0), np.abs(beta).max(axis=0)))
    w = -beta[:, None] / np.where(np.abs(gap) <= 1e-12 * scale, np.inf, gap)
    lam_w = w[:, 6:]  # the w(lam_j), which the hard case completes along e_j
    fill = np.sqrt(np.maximum(0.0, 1.0 - _sum_first(lam_w, lam_w)))
    W = np.concatenate([w, lam_w[:, _PAIR] + fill[_PAIR] * _COMPLETION], axis=1)
    norm = np.sqrt(_sum_first(W, W))
    valid = norm > 0.0
    W /= np.where(valid, norm, 1.0)
    # v_i = sum_j W_j Q[i, j], the candidates in the original coordinates
    return _sum_first(W, Q.swapaxes(0, 1)[:, :, None]), valid


def _sphere_extrema(A: np.ndarray, b: np.ndarray, c0: np.ndarray):
    """Minima and maxima of v.A v + b.v + c0 on S^2, stacked, and their points.

    A (B, 3, 3), b (B, 3) and c0 (B,) carry one leading stack axis.  The
    candidates of :func:`_sphere_kkt_points` are scored and picked like they
    are made, with the stack axis last and every sum over an index of length
    3 written out, so a row gets the same bits alone as in any stack.  Returns
    the extremal points (3, 2B), the minima's then the maxima's, and their
    values (2B,).
    """
    V, valid = _sphere_kkt_points(A, b)
    A, b = np.moveaxis(A, 0, -1), b.T
    VA = _sum_first(V, A[:, :, None])  # (V A)_j = sum_i V_i A_ij
    quad, Vb = _sum_first(VA, V), _sum_first(V, b)
    K = quad + Vb + c0
    # the KKT residual |A v + b/2 - (v.A v + b.v/2) v| of every candidate
    r = VA + b[:, None] / 2.0 - (quad + Vb / 2.0) * V
    kkt = np.sqrt(_sum_first(r, r))
    tie = 1e-12 * np.maximum(1.0, np.abs(np.where(valid, K, 0.0)).max(axis=0))

    def pick(x):
        # Spurious multipliers next to a multiple eigenvalue of A give points
        # within rounding of a true KKT point; the exact one is the most
        # stationary of the tied candidates.  Equally stationary ones, such as
        # both poles of a rounding-sized b, are told apart by the value itself
        # (the lower for the minimum, the higher for the maximum), so the order
        # of the candidates never picks the value.
        x = np.where(valid, x, np.inf)
        residual = np.where(x <= x.min(axis=0) + tie, kkt, np.inf)
        x[residual > residual.min(axis=0)] = np.inf
        return np.argmin(x, axis=0)

    i, rows = np.concatenate([pick(K), pick(-K)]), np.tile(np.arange(len(c0)), 2)
    return V[:, i, rows], K[i, rows]


