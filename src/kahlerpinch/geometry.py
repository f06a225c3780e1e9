"""Pointwise curvature machinery for Kahler metrics in complex chart coordinates.

Index conventions used throughout the package:

    g[i, j]         = g_{i jbar}
    dg[i, j, k]     = d g_{i jbar} / d z_k
    ddg[i, j, k, l] = d^2 g_{i jbar} / (d z_k d zbar_l)
    R[i, j, k, l]   = R_{i jbar k lbar}

Every array may carry leading batch axes ahead of these indices: a stack of
points has g of shape (..., m, m), dg (..., m, m, m), ddg and R (..., m, m, m,
m), and directions (..., m).  ``MetricJet``, ``inverse_metric``,
``curvature_tensor``, ``orthonormal_frame``, ``norm_squared``,
``holomorphic_sectional_curvature``, ``hsc_gradient``, ``ricci``,
``scalar_curvature`` and ``check_symmetries`` act on the whole stack at once
through ``...`` einsum subscripts and batched ``np.linalg``; a single point is
the stack with no batch axis.  A kernel may move the stack axes last inside,
so that numpy's inner loops run over the stack; its inputs and results keep
the convention above.  ``_curvature`` contracts its quadratic term D g^-1 D^H
over contiguous stack-last copies of g^-1 and D, and ``hsc_gradient`` keeps
the stack axes last and writes out every sum over an index, added in a fixed
order elementwise (:func:`_sum_first`), so that its rows get the same bits
alone as in any stack.  An einsum over ``...`` may group its sums
differently for one point than for a stack, so ``ricci`` can give a point
alone other last bits than the same row of a stack.

The public functions that take a metric from outside check it definite; the
package runs the jets that :mod:`kahlerpinch.models` checked when it made them
through the unchecked cores ``_curvature``, ``_ricci``, ``_scalar_curvature`` and
``_frame``.

All operations are stateless functions of their array inputs, so they are safe
to evaluate from many threads concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateMetricError",
    "ZeroDirectionError",
    "MetricJet",
    "SymmetryReport",
    "metric_eigenvalues",
    "inverse_metric",
    "curvature_tensor",
    "norm_squared",
    "holomorphic_sectional_curvature",
    "hsc_gradient",
    "ricci",
    "scalar_curvature",
    "orthonormal_frame",
    "check_symmetries",
]

_IMAG_TOL = 1e-10


class DegenerateMetricError(ValueError):
    """Raised when a metric is singular or not positive definite, first at stack row ``row``."""

    def __init__(self, min_eigenvalue: float, reason: str | None = None, row: int = 0):
        super().__init__(
            reason or f"degenerate metric: smallest eigenvalue {min_eigenvalue:.6e}"
        )
        self.min_eigenvalue = min_eigenvalue
        self.row = int(row)


class ZeroDirectionError(ValueError):
    """Raised when a tangent direction is numerically the zero vector."""


@dataclass(frozen=True)
class MetricJet:
    """Metric matrix plus first and mixed second Wirtinger derivatives.

    At one point, or at a stack of points sharing the leading batch axes.
    """

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray

    def __post_init__(self):
        for name in ("g", "dg", "ddg"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        m = self.g.shape[-1] if self.g.ndim >= 2 else 0
        shapes = [self.g.shape[:-2] + (m,) * rank for rank in (2, 3, 4)]
        if m < 1 or [self.g.shape, self.dg.shape, self.ddg.shape] != shapes:
            raise ValueError("inconsistent metric jet array shapes")

    @property
    def dimension(self) -> int:
        return self.g.shape[-1]


@dataclass(frozen=True)
class SymmetryReport:
    """Maximum violations of the curvature and metric symmetry relations."""

    first_pair: float
    second_pair: float
    conjugation: float
    kahler: float
    hermiticity: float

    @property
    def max_violation(self) -> float:
        return max(
            self.first_pair,
            self.second_pair,
            self.conjugation,
            self.kahler,
            self.hermiticity,
        )


def _real_part(value, what: str):
    """Real part of a complex NumPy scalar or array that must be real.

    The imaginary residue may reach _IMAG_TOL times max(1, |value|).
    """
    residue = abs(value.imag)
    if ((residue > _IMAG_TOL) & (residue > _IMAG_TOL * abs(value))).any():
        raise ValueError(
            f"{what} has imaginary residue {np.max(residue):.3e}, expected real"
        )
    return value.real


def _hermitian_part(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def metric_eigenvalues(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of ``g``, ascending."""
    return np.linalg.eigvalsh(_hermitian_part(np.asarray(g, dtype=complex)))


def _require_positive_definite(g: np.ndarray) -> np.ndarray:
    """``g`` as a complex stack; raises unless every metric is finite and positive definite."""
    g = np.asarray(g, dtype=complex)
    finite = np.isfinite(g)
    if not finite.all():
        row = finite.all(axis=(-2, -1)).argmin()
        raise DegenerateMetricError(math.nan, "degenerate metric: non-finite entries", row)
    ev = metric_eigenvalues(g)
    low = ev[..., 0]
    bad = ~np.all(np.isfinite(ev), axis=-1) | (low <= 0.0)
    if np.any(bad):
        raise DegenerateMetricError(float(low[bad][0]), row=bad.argmax())
    return g


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse metric g^{i jbar}, computed by a direct linear solve."""
    return np.linalg.inv(_require_positive_definite(g))


def curvature_tensor(jet: MetricJet) -> np.ndarray:
    """Curvature components R_{i jbar k lbar} of the metric described by ``jet``.

    Implements
        R[i,j,k,l] = -ddg[i,j,k,l]
                     + sum_{p,q} g^{p qbar} dg[i,p,k] conj(dg[j,q,l]),
    with conj(dg[j,q,l]) = d g_{q jbar} / d zbar_l.  The sum is the matrix
    product D g^{-1} D^H with D[(i,k), p] = dg[i,p,k], an (m^2, m) matrix.
    """
    _require_positive_definite(jet.g)
    return _curvature(jet)


def _stack_last(a: np.ndarray, rank: int) -> np.ndarray:
    """Contiguous copy of a stack of (m,) * rank arrays, its leading axes flattened into one last axis."""
    m = a.shape[-1]
    return a.reshape(-1, m**rank).T.copy().reshape((m,) * rank + (-1,))


def _curvature(jet: MetricJet) -> np.ndarray:
    """:func:`curvature_tensor` of a jet whose metric is known definite, unchecked."""
    m = jet.dimension
    # g^-1 (m, m, N) and D (m^2, m, N), D[(i, k), p] = dg[i, p, k], with the
    # flattened stack axis last and contiguous: the einsum's inner loop runs
    # over the stack, adding each entry's m^2 terms in (p, q) order.
    ginv = _stack_last(np.linalg.inv(jet.g), 2)
    D = np.ascontiguousarray(jet.dg.reshape(-1, m, m, m).transpose(1, 3, 2, 0))
    D = D.reshape(m * m, m, -1)
    quad = np.einsum("pq...,ap...,bq...->ab...", ginv, D, D.conj())
    quad = np.moveaxis(quad, -1, 0).reshape(jet.ddg.shape).swapaxes(-3, -2)
    return np.subtract(quad, jet.ddg, out=np.empty_like(jet.ddg))


def norm_squared(g: np.ndarray, xi: np.ndarray):
    """Squared metric norm sum_{ij} g_{i jbar} xi_i conj(xi_j).

    A NumPy scalar, or an array over the leading axes of a stack.
    """
    g = np.asarray(g, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    return _real_part(np.einsum("...ij,...i,...j->...", g, xi, xi.conj()), "metric norm")


def holomorphic_sectional_curvature(R: np.ndarray, g: np.ndarray, xi: np.ndarray):
    """Holomorphic sectional curvature K(xi) of the complex line through xi.

    Invariant under nonzero complex rescaling of ``xi``.  A NumPy scalar, or
    an array over the leading axes of a stack.
    """
    xi = np.asarray(xi, dtype=complex)
    if not np.all(np.any(xi, axis=-1)):
        raise ZeroDirectionError("zero direction")
    n2 = norm_squared(g, xi)
    if np.any(n2 <= 0.0):
        raise ZeroDirectionError("direction with non-positive metric norm")
    num = 2.0 * np.einsum("...ijkl,...i,...j,...k,...l->...", R, xi, xi.conj(), xi, xi.conj())
    return _real_part(num, "sectional curvature numerator") / (n2 * n2)


def hsc_gradient(R: np.ndarray, g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Wirtinger gradient dK/d(conj(xi)).

    Vanishes identically at every extremal direction because K is invariant
    under complex rescaling; its norm is the stationarity residual of the
    constrained extremization over the metric unit sphere.  The leading
    axes of R, g and xi broadcast.
    """
    R, g, xi = (np.asarray(a, dtype=complex) for a in (R, g, xi))
    stack = np.broadcast_shapes(R.shape[:-4], g.shape[:-2], xi.shape[:-1])
    if not stack:  # a point is the one-row stack: numpy's scalar arithmetic rounds otherwise
        return hsc_gradient(R[None], g[None], xi[None])[0]
    k = len(stack)

    def stack_last(a, order):
        """Contiguous copy of ``a`` with its index axes in ``order``, then its stack axes padded to k."""
        a = a.reshape((1,) * (k + len(order) - a.ndim) + a.shape)
        return np.ascontiguousarray(a.transpose([k + i for i in order] + list(range(k))))

    # K = 2N/S^2 with S = g(xi, xi) = sum_j dS_j conj(xi_j), dS_j = sum_i g_ij xi_i,
    # and N = R(xi, xi, xi, xi) = sum_j u_j conj(xi_j), u_j = sum_i T_ij xi_i,
    # T_ij = sum_kl R_ijkl xi_k conj(xi_l); dS and dN = 2u are their gradients.
    x = stack_last(xi, [0])
    xc = x.conj()
    dS = _sum_first(stack_last(g, [0, 1]), x[:, None])
    S = _real_part(_sum_first(dS, xc), "metric norm")
    if np.any(S <= 0.0):
        raise ZeroDirectionError("zero direction")
    V = _sum_first(stack_last(R, [3, 0, 1, 2]), xc[:, None, None, None])  # V_ijk, the sum over l
    T = _sum_first(np.moveaxis(V, 2, 0), x[:, None, None])
    u = _sum_first(T, x[:, None])
    N = _sum_first(u, xc)
    return np.moveaxis(4.0 * u / S**2 - 4.0 * N.real * dS / S**3, 0, -1)


def _sum_first(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x_i y_i over the first axes of x and y, added left to right, elementwise over the rest.

    Every element is multiplied and added in the same order whatever the
    other axes hold, so a stack row gets the bits it gets alone.
    """
    total = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        total += a * b
    return total


def ricci(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ricci curvature R_{i jbar} = sum_{kl} g^{k lbar} R_{i jbar k lbar}, of shape (..., m, m)."""
    return _ricci(R, inverse_metric(g))


def _ricci(R: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """:func:`ricci` from the inverse ``ginv`` of a metric known to be definite, unchecked."""
    return np.einsum("...lk,...ijkl->...ij", ginv, R)


def scalar_curvature(R: np.ndarray, g: np.ndarray):
    """Scalar curvature, the double metric trace of the curvature tensor.

    A NumPy scalar, or an array over the leading axes of a stack.
    """
    return _scalar_curvature(R, _require_positive_definite(g))


def _scalar_curvature(R: np.ndarray, g: np.ndarray):
    """:func:`scalar_curvature` of a complex stack known to be definite, unchecked."""
    ginv = np.linalg.inv(g)
    value = np.einsum("...ji,...lk,...ijkl->...", ginv, ginv, R)
    return _real_part(value, "scalar curvature")


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Matrix F whose columns are orthonormal for the metric pairing.

    Satisfies sum_{ij} g_{i jbar} F[i,a] conj(F[j,b]) = delta_{ab} (Cholesky
    based), so Euclidean-unit coordinate vectors c push forward to unit
    vectors F c of the metric norm with the metric-induced uniform measure.
    Note the pairing conjugates the second slot, matching
    :func:`norm_squared`; as a matrix identity this reads F^T g conj(F) = I.
    """
    return _frame(_require_positive_definite(g))


def _frame(g: np.ndarray) -> np.ndarray:
    """:func:`orthonormal_frame` of a complex stack known to be definite, unchecked."""
    L = np.linalg.cholesky(_hermitian_part(g).conj())
    return np.linalg.inv(L).conj().swapaxes(-1, -2)


def check_symmetries(R: np.ndarray, jet: MetricJet) -> SymmetryReport:
    """Report the largest violation of each Kahler symmetry relation.

    Report-only: never raises, suitable as a diagnostic for corrupted jets.
    Over a stack, each violation is the largest over its rows.
    """
    R = np.asarray(R, dtype=complex)
    first = float(np.max(np.abs(R - R.swapaxes(-4, -2))))
    second = float(np.max(np.abs(R - R.swapaxes(-3, -1))))
    conj_rel = float(np.max(np.abs(R - R.swapaxes(-4, -3).swapaxes(-2, -1).conj())))
    kahler = float(np.max(np.abs(jet.dg - jet.dg.swapaxes(-3, -1))))
    hermit = float(np.max(np.abs(jet.g - jet.g.conj().swapaxes(-2, -1))))
    return SymmetryReport(first, second, conj_rel, kahler, hermit)
