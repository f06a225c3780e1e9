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
the convention above.  ``curvature_tensor`` contracts its quadratic term
D g^-1 D^H over the carried stack-last inverse and a contiguous stack-last
copy of D, and ``hsc_gradient`` keeps the stack axes last and writes out
every sum over an index, added in a fixed order elementwise
(:func:`_sum_first`), so that its rows get the same bits alone as in any
stack.  An einsum over ``...`` may group its sums differently for one point
than for a stack, so ``ricci`` can give a point alone other last bits than
the same row of a stack.

A metric is factored once, where it is checked definite
(:func:`_require_positive_definite`): the check returns the inverse and the
orthonormal frame of the stack, with the stack axis last.  A 2 x 2 metric is
factored in elementwise arithmetic written out in a fixed order, so a row gets
the same bits alone as in any stack, and LAPACK runs only to name the smallest
eigenvalue of a stack it refuses; other sizes take an eigenvalue check, one
Cholesky factor and one triangular inverse.  The public functions that take a
metric from outside check and factor it; a jet that :mod:`kahlerpinch.models`
checked when it made it carries its factors (``MetricJet._factors``), which
``curvature_tensor``, the unchecked cores ``_ricci`` and ``_scalar_curvature``,
the direction searches of :mod:`kahlerpinch.optimize` and the Berger average
read without inverting or factoring again.

A jet of a 2-dimensional metric whose three parts are float64 stays float64,
and so do its factors and its curvature tensor: at real points the complex
arithmetic would only add exact zeros.  The factors divide by a real
denominator as a product with its reciprocal, which is how numpy divides a
complex array by a real one, so both dtypes give the same bits.  Every other
metric is made complex, and LAPACK factors it; ``hsc_gradient``
and the direction arrays are complex.

All operations are stateless functions of their array inputs, so they are safe
to evaluate from many threads concurrently.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import astuple, dataclass, field

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
        super().__init__(reason or f"degenerate metric: smallest eigenvalue {min_eigenvalue:.6e}")
        self.min_eigenvalue = min_eigenvalue
        self.row = int(row)


class ZeroDirectionError(ValueError):
    """Raised when a tangent direction is numerically the zero vector."""


class _ResidueError(ValueError):
    """Raised when a value that must be real is not, first at stack row ``row``."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


# The inverse and the orthonormal frame of a stack of definite metrics, each
# (m, m, N): the stack's leading axes are flattened into the last axis, N rows.
_Factors = namedtuple("_Factors", ["inverse", "frame"])


@dataclass(frozen=True)
class MetricJet:
    """Metric matrix plus first and mixed second Wirtinger derivatives.

    At one point, or at a stack of points sharing the leading batch axes.
    A jet checked where it was made carries the factors of its metric.  The
    arrays stay float64 when all three are float64 and the metric is 2 x 2,
    whose factors are then float64 too; otherwise they are made complex.
    """

    g: np.ndarray
    dg: np.ndarray
    ddg: np.ndarray
    _factors: _Factors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        parts = [np.asarray(getattr(self, name)) for name in ("g", "dg", "ddg")]
        dtype = _metric_dtype(parts)
        for name, a in zip(("g", "dg", "ddg"), parts):
            object.__setattr__(self, name, np.asarray(a, dtype=dtype))
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
        return max(astuple(self))


def _real_part(value, what: str, rank: int = 0):
    """Real part of a complex NumPy scalar or array that must be real.

    The imaginary residue may reach _IMAG_TOL times max(1, |value|).  The
    last ``rank`` axes hold one row of the stack; the error names the first
    row past the bound, and gives that row's largest residue.
    """
    residue = abs(value.imag)
    bad = (residue > _IMAG_TOL) & (residue > _IMAG_TOL * abs(value))
    if bad.any():
        size = math.prod(np.shape(value)[np.ndim(value) - rank :])
        row = int(np.argmax(bad)) // size
        worst = residue.reshape(-1, size)[row].max()
        raise _ResidueError(f"{what} has imaginary residue {worst:.3e}, expected real", row)
    return value.real


def _hermitian_part(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + g.conj().swapaxes(-1, -2))


def metric_eigenvalues(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of ``g``, ascending."""
    return np.linalg.eigvalsh(_hermitian_part(np.asarray(g, dtype=complex)))


def _require_positive_definite(g: np.ndarray) -> _Factors:
    """The factors of the stack ``g``; raises unless every metric is finite and positive definite.

    Both factors are those of the Hermitian part h of g.  A 2 x 2 metric is
    definite when h_00 > 0 and det h / h_00 > 0 (:func:`_surface_factors`);
    other sizes when the smallest eigenvalue of h is.  The error names the
    smallest eigenvalue of the first refused row, and the row.  A float64 2 x 2
    stack is factored in real arithmetic; any other stack is made complex.
    """
    g = np.asarray(g)
    g = np.asarray(g, dtype=_metric_dtype([g]))
    finite = np.isfinite(g)
    if not finite.all():
        row = finite.all(axis=(-2, -1)).argmin()
        raise DegenerateMetricError(math.nan, "degenerate metric: non-finite entries", row)
    factors, ok = (_surface_factors if g.shape[-1] == 2 else _cholesky_factors)(g)
    if not ok.all():  # the first row refused, and its smallest eigenvalue
        raise DegenerateMetricError(float(metric_eigenvalues(g)[..., 0][~ok][0]), row=ok.argmin())
    return factors


def _metric_dtype(parts) -> type:
    """float when ``parts`` (a metric stack first) are float64 and the metric is 2 x 2, complex otherwise.

    Only a 2 x 2 metric is factored in real arithmetic (:func:`_surface_factors`).
    """
    return float if parts[0].shape[-1:] == (2,) and all(a.dtype == float for a in parts) else complex


def _surface_factors(g: np.ndarray) -> tuple[_Factors, np.ndarray]:
    """The factors of a stack of 2 x 2 metrics, and whether each is definite (over the stack).

    Written out elementwise with the stack axis last, in this order, on the
    Hermitian part h: r = h_10/h_00 and the Schur complement d = h_11 - |h_10|^2/h_00
    = det h / h_00 (taken as a quotient, so that neither under- nor overflows
    where h does not); h is definite when h_00 > 0 and d > 0.  Then
    h^-1 = [[1/h_00 + Re(conj(r) r/d), -conj(r/d)], [-r/d, 1/d]], and the frame is
    the Cholesky-based F = [[1/sqrt(h_00), -r/sqrt(d)], [0, 1/sqrt(d)]], so
    that F^T h conj(F) = I.  The values of a row that is not definite are not
    used.  The quotients by h_00 and d are products with their reciprocals,
    numpy's complex-by-real division, so a float64 stack gets the factors of
    the same stack typed complex (up to the sign of a zero).
    """
    G = _stack_last(g, 2)
    h00, h11, h10 = G[0, 0].real, G[1, 1].real, 0.5 * (G[1, 0] + G[0, 1].conj())
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused or extreme rows
        r = h10 * (1.0 / h00)
        d = h11 - (r.real * h10.real + r.imag * h10.imag)
        rd, root = r * (1.0 / d), 1.0 / np.sqrt(d)
        inverse = [1.0 / h00 + (r.real * rd.real + r.imag * rd.imag), -rd.conj(), -rd, 1.0 / d]
        frame = [1.0 / np.sqrt(h00), -r * root, np.zeros_like(d), root]
    factors = _Factors(*(np.stack(f).reshape(G.shape) for f in (inverse, frame)))
    return factors, ((h00 > 0.0) & (d > 0.0)).reshape(g.shape[:-2])


def _cholesky_factors(g: np.ndarray) -> tuple[_Factors | None, np.ndarray]:
    """:func:`_surface_factors` of a stack of metrics of any size, through LAPACK once each.

    h is definite when its eigenvalues are finite and the smallest is
    positive; then, with conj(h) = L L^H, the frame is F = L^-H and
    h^-1 = conj(F) F^T, whose sums over k are added in order elementwise with
    the stack axis last.  A stack with a row that is not definite is not
    factored.
    """
    ev = metric_eigenvalues(g)
    ok = np.all(np.isfinite(ev), axis=-1) & (ev[..., 0] > 0.0)
    if not ok.all():
        return None, ok
    L = np.linalg.cholesky(_hermitian_part(g).conj())
    F = _stack_last(np.linalg.inv(L).conj().swapaxes(-1, -2), 2)
    Ft = F.swapaxes(0, 1)  # Ft[k, i] = F[i, k]: h^-1_ij = sum_k conj(Ft[k, i]) Ft[k, j]
    return _Factors(_sum_first(Ft.conj()[:, :, None], Ft[:, None]), F), ok


def _stack_first(a: np.ndarray, batch: tuple) -> np.ndarray:
    """Contiguous copy of a stack-last (..., N) array, its stack axis first as the leading axes ``batch``."""
    return a.reshape(-1, a.shape[-1]).T.copy().reshape(batch + a.shape[:-1])


def inverse_metric(g: np.ndarray) -> np.ndarray:
    """Inverse metric g^{i jbar} of the Hermitian part of ``g`` (:func:`_require_positive_definite`)."""
    return _stack_first(_require_positive_definite(g).inverse, np.shape(g)[:-2])


def curvature_tensor(jet: MetricJet) -> np.ndarray:
    """Curvature components R_{i jbar k lbar} of the metric described by ``jet``.

    Implements
        R[i,j,k,l] = -ddg[i,j,k,l]
                     + sum_{p,q} g^{p qbar} dg[i,p,k] conj(dg[j,q,l]),
    with conj(dg[j,q,l]) = d g_{q jbar} / d zbar_l.  The sum is the matrix
    product D g^{-1} D^H with D[(i,k), p] = dg[i,p,k], an (m^2, m) matrix.
    A jet checked where it was made is read with the inverse it carries;
    any other jet's metric is checked (:func:`_require_positive_definite`).
    """
    m = jet.dimension
    factors = jet._factors if jet._factors is not None else _require_positive_definite(jet.g)
    # g^-1 (m, m, N), as carried, and D (m^2, m, N), D[(i, k), p] = dg[i, p, k],
    # with the flattened stack axis last and contiguous: the einsum's inner loop
    # runs over the stack, adding each entry's m^2 terms in (p, q) order.
    D = np.ascontiguousarray(jet.dg.reshape(-1, m, m, m).transpose(1, 3, 2, 0))
    D = D.reshape(m * m, m, -1)
    quad = np.einsum("pq...,ap...,bq...->ab...", factors.inverse, D, D.conj())
    quad = np.moveaxis(quad, -1, 0).reshape(jet.ddg.shape).swapaxes(-3, -2)
    return np.subtract(quad, jet.ddg, out=np.empty_like(jet.ddg))


def _stack_last(a: np.ndarray, rank: int) -> np.ndarray:
    """Contiguous copy of a stack of (m,) * rank arrays, its leading axes flattened into one last axis."""
    m = a.shape[-1]
    return a.reshape(-1, m**rank).T.copy().reshape((m,) * rank + (-1,))


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
    return _scalar_curvature(R, inverse_metric(g))


def _scalar_curvature(R: np.ndarray, ginv: np.ndarray):
    """:func:`scalar_curvature` from the inverse ``ginv`` of a metric known to be definite, unchecked."""
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
    return _stack_first(_require_positive_definite(g).frame, np.shape(g)[:-2])


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
