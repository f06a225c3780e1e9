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
``holomorphic_sectional_curvature``, ``hsc_gradient`` and ``scalar_curvature``
act on the whole stack at once through ``...`` einsum subscripts and batched
``np.linalg``; a single point is the stack with no batch axis.  A kernel may
move the stack axes last inside, so that numpy's inner loops run over the
stack; its inputs and results keep the convention above.

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


def _curvature(jet: MetricJet) -> np.ndarray:
    """:func:`curvature_tensor` of a jet whose metric is known definite, unchecked."""
    ginv = np.linalg.inv(jet.g)
    D = jet.dg.swapaxes(-1, -2).reshape(jet.ddg.shape[:-4] + (-1, jet.dimension))
    quad = np.einsum("...pq,...ap,...bq->...ab", ginv, D, D.conj()).reshape(jet.ddg.shape)
    return -jet.ddg + quad.swapaxes(-3, -2)


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
    constrained extremization over the metric unit sphere.
    """
    g = np.asarray(g, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    S = _real_part(np.einsum("...ij,...i,...j->...", g, xi, xi.conj())[..., None], "metric norm")
    if np.any(S <= 0.0):
        raise ZeroDirectionError("zero direction")
    N = np.einsum("...ijkl,...i,...j,...k,...l->...", R, xi, xi.conj(), xi, xi.conj())
    dN = 2.0 * np.einsum("...ijkl,...i,...k,...l->...j", R, xi, xi, xi.conj())
    dS = np.einsum("...ij,...i->...j", g, xi)
    return 2.0 * dN / S**2 - 4.0 * N.real[..., None] * dS / S**3


def ricci(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ricci curvature R_{i jbar} = sum_{kl} g^{k lbar} R_{i jbar k lbar}."""
    ginv = inverse_metric(g)
    return np.einsum("lk,ijkl->ij", ginv, R)


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
    """
    R = np.asarray(R, dtype=complex)
    first = float(np.max(np.abs(R - R.transpose(2, 1, 0, 3))))
    second = float(np.max(np.abs(R - R.transpose(0, 3, 2, 1))))
    conj_rel = float(np.max(np.abs(R - R.transpose(1, 0, 3, 2).conj())))
    kahler = float(np.max(np.abs(jet.dg - jet.dg.transpose(2, 1, 0))))
    hermit = float(np.max(np.abs(jet.g - jet.g.conj().T)))
    return SymmetryReport(first, second, conj_rel, kahler, hermit)
