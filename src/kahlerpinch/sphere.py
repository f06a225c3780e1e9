"""Exact extrema of quadratics on the unit sphere S^2, stacked.

A quadratic v.A v + b.v + c0 takes its minimum on S^2 at a Karush-Kuhn-Tucker
point v = Q w, w_j = -beta_j/(lam_j - mu), with beta = Q^T b/2 in the
eigenbasis Q of A (lam ascending) and a multiplier mu <= lam_1 (Gander, Golub
and von Matt, "A constrained eigenvalue problem", 1989); its maximum is the
minimum of -A, -b.  Below lam_1, |w(mu)| = 1 has at most one root, which
Newton's method on 1/|w(mu)| finds (More and Sorensen 1983).  In the hard
case beta_1 = 0 and |w(lam_1)| < 1 leave no root, and the minimizer is the
completion of w(lam_1), w_1 = 0, along e_1 to unit length; near it the root
lies within rounding of lam_1.  So each extremum scores two unit candidates:
w at the root, and that completion.  Either is a point of the sphere, so the
one that is not the extremizer can tie with it but never beat it; tied
candidates are told apart by stationarity, then by value, never by their
order.  The other seven multipliers of each quadratic cannot win, so none of
them is computed.

Each value comes with a certificate.  The problem has no duality gap (More
and Sorensen 1983; Gander, Golub and von Matt 1989): for the multiplier
lam_1 - t, t > 0, the Lagrangian's minimum over all of R^3, L(t) = c0 +
lam_1 - t - sum_j beta_j^2/(gap_j + t), bounds the minimum from below and
meets it at the root, and its mirror U(t) = c0 + lam_3 + t + sum_j
beta_j^2/(gap_j + t) bounds the maximum from above.  At the t the solve
ends with, K - L(t) and U(t) - K, the duality gaps, bound how far each
returned value lies from the true extremum whether or not Newton's method
has converged, up to the rounding of the two.

This secular equation has one root finder in the package,
:func:`_secular_root`, which solves for the distance t >= max(low, tiny) of
the multiplier below the pole.  The S^2 solve calls it with low = 0.  The
trust-region step of :func:`kahlerpinch.optimize.minimize` calls it for its
boundary rows with low = lam_1 of their Hessian, so that its shift
t - lam_1 is not negative, and completes a hard case the same way.

The solve is stacked over quadratics.  Its one LAPACK call, ``eigh`` of A,
takes the stack axis first; everything after it keeps it last, as
elementwise arithmetic on (..., B) arrays whose sums over index axes of
length 3 are written out in a fixed order
(:func:`~kahlerpinch.geometry._sum_first`).  Numpy's inner loops then run
over the stack, and every element is rounded in the same order whatever the
stack's length, which a matrix product (through BLAS) or an einsum does not
promise.  Each row's Newton iteration stops by its own rule and is then
frozen, so a quadratic gets the same bits alone as in any stack.
"""
from __future__ import annotations

import numpy as np

from .geometry import _sum_first

__all__: list[str] = []

# Newton steps per root at most.  S^2 rows take 1 or 2 on the central fiber
# and up to about 15 elsewhere, the most where beta at the pole is many orders
# below |beta| and the iterates first climb away from the pole; the
# trust-region rows of the Hitchin products take 1 to 13, most of them 2 to 4.
_NEWTON_STEPS = 40
_TINY = float(np.finfo(float).tiny)
# The eigen-index of the pole lam_1 of the minimum and lam_3 of the maximum, on (j, (min, max)).
_POLE = ([0, 2], [0, 1])


def _sphere_extrema(A: np.ndarray, b: np.ndarray, c0: np.ndarray):
    """Minima and maxima of v.A v + b.v + c0 on S^2, stacked, and their points.

    A (B, 3, 3), b (B, 3) and c0 (B,) carry one leading stack axis.  The
    minima and maxima share one (min, max) axis: the maximum is the minimum
    of -A, -b, whose pole is lam_3 and whose gaps lam_3 - lam_j keep A's
    eigen-order.  Each multiplier is solved for as its distance t >= 0 below
    the pole (:func:`_secular_root` with low = 0), which keeps the digits of
    w at the pole when t is tiny.  Returns the extremal points (3, 2B), the
    minima's then the maxima's, their values (2B,) and their duality gaps
    (2B,), K - L(t) of each minimum and U(t) - K of each maximum, from the t,
    gap and beta the solve already holds.
    """
    lam, Q = np.linalg.eigh(A)
    lam, Q, A, b = lam.T, np.ascontiguousarray(np.moveaxis(Q, 0, -1)), np.moveaxis(A, 0, -1), b.T
    beta = _sum_first(Q, b[:, None]) / 2.0
    # (3, 2, B): eigen-index j, (min, max), stack.  The maximum is the minimum
    # of -A, -b, whose pole is lam_3: gap_j = lam_j - lam_1 or lam_3 - lam_j.
    gap, beta = np.stack([lam - lam[0], lam[2] - lam], axis=1), np.stack([beta, -beta], axis=1)
    t = _secular_root(gap, beta, 0.0)
    # the completion of w at the pole along its eigenvector, with the sign that
    # lowers the value; gaps within rounding of 0 are the pole's too
    scale = np.maximum(np.maximum(1.0, np.abs(beta).max(axis=0)), np.maximum(np.abs(lam[0]), np.abs(lam[2])))
    fill = -beta / np.where(gap <= 1e-12 * scale, np.inf, gap)
    fill[_POLE] = np.where(beta[_POLE] > 0.0, -1.0, 1.0) * np.sqrt(np.maximum(0.0, 1.0 - _sum_first(fill, fill)))
    W = np.stack([-beta / (gap + t), fill], axis=1)  # (3, 2 candidates, 2, B)
    norm = np.sqrt(_sum_first(W, W))
    W /= np.where(norm > 0.0, norm, 1.0)
    # v_i = sum_j Q[i, j] W_j, the candidates in the original coordinates
    V = _sum_first(W[:, None], Q.swapaxes(0, 1)[:, :, None, None])
    VA = _sum_first(V, A[:, :, None, None])  # (V A)_j = sum_i V_i A_ij
    quad, Vb = _sum_first(VA, V), _sum_first(V, b[:, None, None])
    K = quad + Vb + c0
    # the KKT residual |A v + b/2 - (v.A v + b.v/2) v| of every candidate
    r = VA + b[:, None, None] / 2.0 - (quad + Vb / 2.0) * V
    V, K = _pick(V, K, np.sqrt(_sum_first(r, r)), norm > 0.0)
    # the duality gaps K - L(t) and U(t) - K: sign (K - c0 - lam_pole) + t + sum_j beta_j^2/(gap_j + t)
    return V, K, ((K.reshape(2, -1) - c0 - lam[::2]) * [[1.0], [-1.0]] + t + _sum_first(beta, beta / (gap + t))).reshape(-1)


def _secular_root(gap: np.ndarray, beta: np.ndarray, low) -> np.ndarray:
    """The distance t >= max(low, tiny) below the pole at which |beta/(gap + t)| = 1, stacked.

    gap (n, ...) >= 0, the distances of the eigenvalues from the pole, and
    beta (n, ...) take the index axis first; low, a lower bound on t, and
    the result are stacked over the rest.  There 1/|w(t)|, w = beta/(gap +
    t), is concave and increasing, so Newton's method from t = |beta|, at or
    right of the root, steps to its left and from there climbs monotonically
    onto it.  No step goes below max_j (|beta_j| - gap_j), where some
    |w_j| >= 1, so still left of the root, nor below low or ``_TINY``, which
    stands for the pole itself.  A row stops when its first step does not
    move it or a later one does not climb, or after ``_NEWTON_STEPS``, and is
    then frozen.  Without a root above the floor (the hard case) a row stops
    at the floor with |w| < 1, which the caller completes along the pole's
    eigenvector.
    """
    floor = np.maximum(np.maximum((np.abs(beta) - gap).max(axis=0), low), _TINY)
    t = np.maximum(np.sqrt(_sum_first(beta, beta)), _TINY)
    active = np.ones(t.shape, dtype=bool)
    for step in range(_NEWTON_STEPS):
        # Newton on 1/|w(t)| = 1, w_j = beta_j/d_j: t += |w|^2 (|w| - 1) / sum_j w_j^2/d_j
        d = gap + t
        w = beta / d
        s2, q = _sum_first(w, w), np.maximum(_sum_first(w, w / d), _TINY)
        t_next = np.maximum(t + s2 * (np.sqrt(s2) - 1.0) / q, floor)
        active &= t_next > t if step else t_next != t
        np.copyto(t, t_next, where=active)
        if not active.any():
            break
    return t


def _pick(V: np.ndarray, K: np.ndarray, kkt: np.ndarray, valid: np.ndarray):
    """The better of the two candidates of each extremum: points (3, 2B) and values (2B,).

    V (3, 2, 2, B), and K, the KKT residuals kkt and the mask valid of the
    candidates that are points of the sphere (2, 2, B), are laid out
    (candidate, (min, max), stack).  Within 1e-12 of each other two values
    tie: the candidate within rounding of a KKT point is the more stationary
    one.  Equally stationary ones, such as both poles of a rounding-sized b,
    are told apart by the value itself, so the candidates' order never picks
    the value.
    """
    x = np.where(valid, K * np.array([1.0, -1.0])[:, None], np.inf)  # lower is better
    tie = 1e-12 * np.maximum(1.0, np.maximum(np.abs(K[0]), np.abs(K[1])))
    second = np.where((np.abs(x[1] - x[0]) <= tie) & (kkt[1] != kkt[0]), kkt[1] < kkt[0], x[1] < x[0])
    return np.where(second, V[:, 1], V[:, 0]).reshape(3, -1), np.where(second, K[1], K[0]).reshape(-1)
