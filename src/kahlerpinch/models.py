"""Built-in Kahler metric models and their analytic metric jets.

Every model is defined by a global potential Phi that is a sum of logarithms
of real polynomial kernels in (z, zbar).  The metric jet (g, dg, ddg) is
assembled from closed-form Wirtinger derivatives of those kernels through the
hand-expanded chain/product rule for log-compositions; no numerical
differentiation is involved.  A kernel jet carries only the unbarred
derivatives of its real kernel; :func:`log_jet` takes the barred ones as
their conjugates.

Each model jet is checked finite and positive definite once per stack, where
it is made: a model's ``metric_jet`` and :meth:`Hitchin.fiber_jet` hand their
unchecked rows to :func:`_jet_on_rows`, which checks the whole stack and keeps
the inverse and orthonormal frame of its metrics that the check computes, so
the curvature, the direction searches and the Berger average never factor a
metric again.  A product is checked and factored on its product stack, not
factor by factor; :func:`log_jet` and :func:`product_jet` check nothing, and
:func:`product_jet` of two factored jets of one stack shape pairs their
factors block by block.

The dtype follows the points, with no switch: a float64 stack of points, such
as the central fiber's samples of :meth:`Hitchin.fiber_jet`, gives float64
kernels and, for a 2-dimensional metric, a float64 jet and factors
(:class:`~kahlerpinch.geometry.MetricJet`); any other stack is complex.
At real points the complex arithmetic only adds exact zeros, so both give the
same bits: every product is taken in the same order, and every quotient by a
real denominator is a product with its reciprocal, which is how numpy divides
a complex array by a real one.

Models:

* ``FubiniStudy(m)``   -- complex projective space P^m, potential log(1+|z|^2).
* ``Hitchin(n, s)``    -- the Kahler family on the n-th Hirzebruch surface with
  potential log(1+|z1|^2) + s log((1+|z1|^2)^n + |z2|^2), and in the chart
  (z1, w = 1/z2) of the curve at infinity log(1+|z1|^2) + s log(1 + |w|^2 (1+|z1|^2)^n).
  All three kernels are U^a + |x|^2 U^b with U = 1+|z1|^2: (a, b) = (1, none),
  (n, 0) and (0, n), built by one function.
* ``Product(a, b)``    -- block product metric of two factor models (:func:`product_jet`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import DegenerateMetricError, MetricJet, _Factors, _require_positive_definite
from .geometry import _stack_first, _stack_last

# Curvature scales like 1/s and the two-dimensional direction solve squares
# it; outside this range the square leaves the floating-point range.
_S_RANGE = (1e-150, 1e150)

__all__ = [
    "KernelJet",
    "FubiniStudy",
    "Hitchin",
    "Product",
    "MetricModel",
    "log_jet",
    "product_jet",
    "model_to_json",
    "model_from_json",
]


@dataclass(frozen=True)
class KernelJet:
    """Wirtinger derivatives of a real polynomial kernel w(z, zbar) up to order (2, 2).

    Array index conventions (i, k unbarred; j, l barred):

        dw[i]          = dw/dz_i
        d2w[i, k]      = d2w/(dz_i dz_k)
        dmix[i, j]     = d2w/(dz_i dzbar_j)
        d3w[i, k, j]   = d3w/(dz_i dz_k dzbar_j)
        d4w[i, k, j, l] = d4w/(dz_i dz_k dzbar_j dzbar_l)

    The kernel is real, so its derivatives with more barred than unbarred
    indices are conjugates of these; :func:`log_jet` derives them.  At a
    stack of points every field carries the stack's leading batch axes,
    ``w`` of shape (...) and ``dw`` of shape (..., m) and so on.
    """

    w: float | np.ndarray
    dw: np.ndarray
    d2w: np.ndarray
    dmix: np.ndarray
    d3w: np.ndarray
    d4w: np.ndarray


def log_jet(kernel: KernelJet) -> MetricJet:
    """Metric jet of the potential log(w) from the kernel jet of w.

    The three returned arrays are the mixed Wirtinger derivatives of log(w) of
    orders (1,1), (2,1) and (2,2), expanded by the chain and product rules,
    with the leading batch axes of the kernel, C-contiguous.

    The batch axes are flattened into one stack axis, and each kernel field is
    copied once to a contiguous layout with that axis last, so that numpy's
    inner loops run over the stack rather than over index axes of length m;
    g, dg and ddg are copied back to the stack-first layout at the end.  Every
    product is an einsum: it multiplies each element's factors in the same
    order whatever the layout or the stack size, so a point gets the same bits
    alone as in a stack, which ``@`` and broadcast multiplication do not promise.

    The fields may be float64 or complex.  Each quotient by w^k is a product
    with 1/w^k: numpy divides a complex array by a real one as x * (1/y), so a
    float64 kernel, whose own quotient would round differently, gets the bits
    of the same kernel typed complex.
    """
    w = np.asarray(kernel.w, dtype=float)
    # Powers w**k (k >= 2) per element as Python floats, through the C library's pow:
    # numpy's vectorised power takes a SIMD path on some hosts (AVX-512) whose
    # last bit can differ from it, and the jets should not depend on the host.
    flat = w.ravel().tolist()
    try:
        powers = [np.array([x**k for x in flat]) for k in (2, 3, 4)]
    except OverflowError:
        powers = [np.array([_pow(x, k) for x in flat]) for k in (2, 3, 4)]
    r1, r2, r3, r4 = (1.0 / wk for wk in [w.reshape(-1)] + powers)
    dw, d2w, dmix = _stack_last(kernel.dw, 1), _stack_last(kernel.d2w, 2), _stack_last(kernel.dmix, 2)
    d3w, d4w = _stack_last(kernel.d3w, 3), _stack_last(kernel.d4w, 4)
    # The barred derivatives of a real kernel; d3wb[i, j, l] = conj(d3w[j, l, i]).
    dwb, d2wb, d3wb = dw.conj(), d2w.conj(), np.moveaxis(d3w.conj(), 2, 0)

    g = dmix * r1 - np.einsum("i...,j...->ij...", dw, dwb) * r2

    dg = (
        np.einsum("ikj...->ijk...", d3w) * r1
        - (
            np.einsum("kj...,i...->ijk...", dmix, dw)
            + np.einsum("ij...,k...->ijk...", dmix, dw)
            + np.einsum("ik...,j...->ijk...", d2w, dwb)
        )
        * r2
        + 2.0 * np.einsum("i...,k...,j...->ijk...", dw, dw, dwb) * r3
    )

    ddg = (
        np.einsum("ikjl...->ijkl...", d4w) * r1
        - (
            np.einsum("ikj...,l...->ijkl...", d3w, dwb)
            + np.einsum("ikl...,j...->ijkl...", d3w, dwb)
            + np.einsum("kjl...,i...->ijkl...", d3wb, dw)
            + np.einsum("ijl...,k...->ijkl...", d3wb, dw)
            + np.einsum("ij...,kl...->ijkl...", dmix, dmix)
            + np.einsum("kj...,il...->ijkl...", dmix, dmix)
            + np.einsum("ik...,jl...->ijkl...", d2w, d2wb)
        )
        * r2
        + 2.0
        * (
            np.einsum("ij...,k...,l...->ijkl...", dmix, dw, dwb)
            + np.einsum("kj...,i...,l...->ijkl...", dmix, dw, dwb)
            + np.einsum("il...,k...,j...->ijkl...", dmix, dw, dwb)
            + np.einsum("kl...,i...,j...->ijkl...", dmix, dw, dwb)
            + np.einsum("jl...,i...,k...->ijkl...", d2wb, dw, dw)
            + np.einsum("ik...,j...,l...->ijkl...", d2w, dwb, dwb)
        )
        * r3
        - 6.0 * np.einsum("i...,k...,j...,l...->ijkl...", dw, dw, dwb, dwb) * r4
    )

    return MetricJet(*(_stack_first(part, w.shape) for part in (g, dg, ddg)))


def _pow(x: float, k: int) -> float:
    """x**k of a kernel value x > 0, inf past the float range, for the finiteness checks."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def product_jet(left: MetricJet, right: MetricJet) -> MetricJet:
    """Block-diagonal jet of a product metric from any two factor jets, batch axes broadcast.

    A product row has the bits, and so the definiteness, of its factor rows.
    When both factor jets carry factors over one stack shape, so does the
    product: its inverse and frame are theirs, block by block.
    """
    ml, m = left.dimension, left.dimension + right.dimension
    batch = np.broadcast_shapes(left.g.shape[:-2], right.g.shape[:-2])
    parts = [np.zeros(batch + (m,) * rank, dtype=complex) for rank in (2, 3, 4)]
    for part, a, b in zip(parts, (left.g, left.dg, left.ddg), (right.g, right.dg, right.ddg)):
        rank = part.ndim - len(batch)
        part[(...,) + (slice(ml),) * rank], part[(...,) + (slice(ml, None),) * rank] = a, b
    factors = None
    if left._factors and right._factors and left.g.shape[:-2] == right.g.shape[:-2]:
        factors = _Factors(*(np.zeros((m, m) + a.shape[2:], dtype=complex) for a in left._factors))
        for part, a, b in zip(factors, left._factors, right._factors):
            part[:ml, :ml], part[ml:, ml:] = a, b
    return MetricJet(*parts, factors)


def _as_point(z, m: int, batched: bool = True) -> np.ndarray:
    """Chart point(s) as an array of shape (..., m), or of shape (m,) unless ``batched``.

    A float64 array stays float64, and the kernels and jets of its points are
    taken in real arithmetic, to the bits of the same points typed complex;
    any other input is made complex.
    """
    z = np.asarray(z)
    z = np.asarray(z, dtype=float if z.dtype == float else complex)
    if z.shape[-1:] != (m,) or not (batched or z.ndim == 1):
        raise ValueError(f"expected a point with {m} coordinates, got an array of shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("chart point coordinates must be finite")
    return z


def _jet_on_rows(jet_of, z, m: int) -> MetricJet:
    """Finite, definite metric jet ``jet_of`` of the points z, as a stack of rows.

    Every model jet is checked here, once per stack: ``jet_of`` maps a (P, m)
    stack of points to their unchecked jet rows (a model's ``_rows``, or the
    block of both charts of :meth:`Hitchin.fiber_jet`).  The check factors
    the metrics, and the jet carries the factors.

    A point alone is the one-row stack: numpy's scalar arithmetic can differ
    from its array loops in the last bit, and a point should get the same jet
    alone as in a stack.  The jet comes back with the batch axes of z.
    """
    z = _as_point(z, m)
    jet = jet_of(z.reshape(-1, m))
    factors = _require_positive_definite(jet.g)
    if not (np.all(np.isfinite(jet.dg)) and np.all(np.isfinite(jet.ddg))):
        dg_ok, ddg_ok = (np.isfinite(a.reshape(len(a), -1)).all(axis=1) for a in (jet.dg, jet.ddg))
        row = (dg_ok & ddg_ok).argmin()
        raise DegenerateMetricError(math.nan, "metric jet has non-finite derivatives", row)
    return MetricJet(*(a.reshape(z.shape[:-1] + a.shape[1:]) for a in (jet.g, jet.dg, jet.ddg)), factors)


def _power_kernel(z, a: int, b: int | None) -> KernelJet:
    """Kernel jet of U^a + |x|^2 U^b, U = 1 + |z1|^2, at the chart points z = (z1, x).

    b = None drops the second term.  A function f of q = |z1|^2, with fk its
    k-th derivative in q (perm(e, k) U^(e-k) for U^e), has the derivatives
    (1, d/dz1, d2/dz1^2, d2/dz1 dzbar1, d3/dz1^2 dzbar1, d4/dz1^2 dzbar1^2) f =
    (f, f1 z1bar, f2 z1bar^2, f1 + f2 q, z1bar (f3 q + 2 f2), 2 f2 + 4 f3 q + f4 q^2).
    In the terms with x indices |x|^2 contributes its derivatives xbar, x and 1.
    """
    z = _as_point(z, 2)
    z1, x = z[..., 0], z[..., 1]
    z1c, xc = z1.conjugate(), x.conjugate()
    q = (z1 * z1c).real

    def z1_jet(e):
        V0, V1, V2, V3, V4 = (math.perm(e, k) * (1.0 + q) ** (e - k) for k in range(5))
        V21 = z1c * (V3 * q + 2.0 * V2)
        return V0, V1 * z1c, V2 * z1c**2, V1 + V2 * q, V21, 2.0 * V2 + 4.0 * V3 * q + V4 * q * q

    dw, d2w, dmix, d3w, d4w = (np.zeros(z.shape[:-1] + (2,) * r, z.dtype) for r in (1, 2, 2, 3, 4))
    parts = z1_jet(a)
    if b is not None:
        p, B = (x * xc).real, z1_jet(b)
        parts = tuple(Ak + p * Bk for Ak, Bk in zip(parts, B))
        B0, B1, B2, B11, B21, _ = B
        dw[..., 1] = xc * B0
        d2w[..., 0, 1] = d2w[..., 1, 0] = xc * B1
        dmix[..., 0, 1], dmix[..., 1, 0], dmix[..., 1, 1] = x * B1, xc * B1.conjugate(), B0
        d3w[..., 0, 0, 1] = x * B2
        d3w[..., 0, 1, 0] = d3w[..., 1, 0, 0] = xc * B11
        d3w[..., 0, 1, 1] = d3w[..., 1, 0, 1] = B1
        d4w[..., 0, 0, 0, 1] = d4w[..., 0, 0, 1, 0] = x * B21
        d4w[..., 0, 1, 0, 0] = d4w[..., 1, 0, 0, 0] = xc * B21.conjugate()
        for index in ((0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)):
            d4w[(...,) + index] = B11
    w, dw[..., 0], d2w[..., 0, 0], dmix[..., 0, 0], d3w[..., 0, 0, 0], d4w[..., 0, 0, 0, 0] = parts
    return KernelJet(w, dw, d2w, dmix, d3w, d4w)


class _Model:
    """The checked ``metric_jet`` of every model, made by :func:`_jet_on_rows` from its ``_rows``.

    ``_rows`` maps a (P, m) stack of chart points to their jet rows, unchecked,
    so a :class:`Product` pairs the rows of its factors and checks the
    product stack once.
    """

    def metric_jet(self, z) -> MetricJet:
        """Finite, definite metric jet at the chart point(s) z, with their batch axes."""
        return _jet_on_rows(self._rows, z, self.dimension)


@dataclass(frozen=True)
class FubiniStudy(_Model):
    """Fubini-Study metric on P^m in an affine chart."""

    m: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dimension(self) -> int:
        return self.m

    def kernel(self, z) -> KernelJet:
        z = _as_point(z, self.m)
        d2w, dmix, d3w, d4w = (np.zeros(z.shape[:-1] + (self.m,) * r, z.dtype) for r in (2, 2, 3, 4))
        w = 1.0 + (z.conj() * z).real.sum(axis=-1)
        return KernelJet(w, z.conj(), d2w, dmix + np.eye(self.m), d3w, d4w)

    def potential(self, z) -> float:
        return math.log(self.kernel(z).w)

    def _rows(self, z) -> MetricJet:
        return log_jet(self.kernel(z))


@functools.cache
def _fiber_base_jet() -> MetricJet:
    """Jet of log(1 + |z1|^2) at z1 = 0, one read-only row: the base term of every fiber jet.

    The base kernel of :class:`Hitchin` depends on neither n nor s, so this
    is taken once per process, on first use.
    """
    jet = log_jet(_power_kernel(np.zeros((1, 2)), 1, None))
    for part in (jet.g, jet.dg, jet.ddg):
        part.flags.writeable = False
    return jet


@dataclass(frozen=True)
class Hitchin(_Model):
    """Hitchin's Kahler family on the n-th Hirzebruch surface.

    Potential:  log(u) + s log(v)  with  u = 1 + |z1|^2,  v = u^n + |z2|^2.
    The metric is Kahler for every s > 0 and Hodge when s is rational: ``s``
    is kept as a Fraction when it is given exactly, and as a float otherwise.
    """

    n: int
    s: float | Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("Hirzebruch index n must be >= 1")
        if not isinstance(self.s, Fraction):
            object.__setattr__(self, "s", float(self.s))
        if not self.s > 0.0:
            raise ValueError("family parameter s must be positive")
        if not _S_RANGE[0] <= self.s <= _S_RANGE[1]:
            raise ValueError(
                "family parameter s outside [%g, %g] is out of numerical range" % _S_RANGE
            )

    @classmethod
    def make(cls, n: int, s) -> "Hitchin":
        """Build from ``s`` given as float, Fraction, or a 'p/q' string."""
        try:
            return cls(n, Fraction(s) if isinstance(s, str) else s)
        except ZeroDivisionError as exc:
            raise ValueError(f"family parameter {s!r} has a zero denominator") from exc

    @property
    def dimension(self) -> int:
        return 2

    @property
    def is_hodge(self) -> bool:
        return isinstance(self.s, Fraction)

    def base_kernel(self, z) -> KernelJet:
        """Base kernel 1 + |z1|^2."""
        return _power_kernel(z, 1, None)

    def fiber_kernel(self, z) -> KernelJet:
        """Fiber kernel (1+|z1|^2)^n + |z2|^2."""
        return _power_kernel(z, self.n, 0)

    def far_kernel(self, z) -> KernelJet:
        """Fiber kernel 1 + |w|^2 (1+|z1|^2)^n in the chart (z1, w = 1/z2).

        It is |w|^2 times :meth:`fiber_kernel`, so its potential differs by the
        pluriharmonic s log|w|^2 and gives the same metric, and it stays well
        conditioned at w = 0, the curve at infinity.
        """
        return _power_kernel(z, 0, self.n)

    def potential(self, z) -> float:
        return math.log(self.base_kernel(z).w) + float(self.s) * math.log(self.fiber_kernel(z).w)

    def _rows(self, z, kernel=None, base: MetricJet | None = None) -> MetricJet:
        """Unchecked jet of log(base kernel) + s log(``kernel``) at the rows z of its chart.

        ``kernel`` is :meth:`fiber_kernel` unless given.  ``base``, if given, is
        the jet of log(base kernel) already evaluated, one row that broadcasts
        over z.
        """
        b = log_jet(self.base_kernel(z)) if base is None else base
        fiber, s = log_jet((kernel or self.fiber_kernel)(z)), float(self.s)
        return MetricJet(b.g + s * fiber.g, b.dg + s * fiber.dg, b.ddg + s * fiber.ddg)

    def fiber_point(self, r) -> np.ndarray:
        """Chart point (0, z2) with |z2|^2 = r on the central fiber.

        An array of radii gives the stack of points, of shape r.shape + (2,).
        """
        r = np.asarray(r, dtype=float)
        if not np.all((r >= 0.0) & np.isfinite(r)):
            raise ValueError("fiber radius must be finite and non-negative")
        z = np.zeros(r.shape + (2,), dtype=complex)
        z[..., 1] = np.sqrt(r)
        return z

    def fiber_jet(self, t) -> MetricJet:
        """Metric jet at the compactified fiber parameters t = r/(1+r) in [0, 1], stacked.

        t <= 1/2 is the point (0, z2) with |z2|^2 = t/(1-t); t > 1/2 the point
        (0, w) with |w|^2 = (1-t)/t of the chart of :meth:`far_kernel`, where
        t = 1 is w = 0.  Both metrics and the Jacobian diag(1, -1/z2^2) of the
        chart change are diagonal on z1 = 0, so frame weights agree.  A t
        outside [0, 1] gives a negative radius, a ValueError.  The rows of both
        charts are scattered into one block, checked once (:func:`_jet_on_rows`);
        when every t lies in one chart, that chart's rows are the block as they
        come.

        The base kernel 1 + |z1|^2 depends on z1 alone, and every sample of
        both charts has z1 = 0 exactly, so the jet of its logarithm is taken
        once per process, on a one-row stack at z1 = 0 (:func:`_fiber_base_jet`),
        and broadcast into the sum of both charts.  :func:`log_jet` gives a row
        the same bits alone as in a stack, and the broadcast sum adds element
        by element, so every row gets the bits of evaluating the base at that
        row.

        Every sample is real, so the points are the real parts of
        :meth:`fiber_point`: the kernels, the jet, its factors and its
        curvature are float64, with the bits of the same points typed complex
        (see the module docstring); a block of both charts takes the rows' dtype.
        """
        t = np.asarray(t, dtype=float)
        far = t > 0.5
        radius = np.where(far, 1.0 - t, t) / np.where(far, t, 1.0 - t)
        kernels = ((~far, self.fiber_kernel), (far, self.far_kernel))
        charts = [(rows.ravel(), kernel) for rows, kernel in kernels if rows.any()]

        def jet_of(z):
            if len(charts) == 1:
                return self._rows(z, charts[0][1], _fiber_base_jet())
            arrays = [np.empty((len(z),) + (2,) * rank, dtype=z.dtype) for rank in (2, 3, 4)]
            for rows, kernel in charts:
                jet = self._rows(z[rows], kernel, _fiber_base_jet())
                for out, part in zip(arrays, (jet.g, jet.dg, jet.ddg)):
                    out[rows] = part
            return MetricJet(*arrays)

        return _jet_on_rows(jet_of, self.fiber_point(radius).real, 2)


@dataclass(frozen=True)
class Product(_Model):
    """Product metric of two factor models, block diagonal in all jets."""

    left: "MetricModel"
    right: "MetricModel"

    @property
    def dimension(self) -> int:
        return self.left.dimension + self.right.dimension

    def potential(self, z) -> float:
        z = _as_point(z, self.dimension)
        ml = self.left.dimension
        return self.left.potential(z[:ml]) + self.right.potential(z[ml:])

    def _rows(self, z) -> MetricJet:
        ml = self.left.dimension
        return product_jet(self.left._rows(z[:, :ml]), self.right._rows(z[:, ml:]))


MetricModel = FubiniStudy | Hitchin | Product


def model_to_json(model: MetricModel) -> dict:
    """JSON-serializable descriptor; rational Hitchin parameters stay exact."""
    if isinstance(model, FubiniStudy):
        return {"kind": "fubini_study", "m": model.m}
    if isinstance(model, Hitchin):
        return {"kind": "hitchin", "n": model.n, "s": str(model.s) if model.is_hodge else model.s}
    if isinstance(model, Product):
        return {
            "kind": "product",
            "left": model_to_json(model.left),
            "right": model_to_json(model.right),
        }
    raise TypeError(f"not a metric model: {model!r}")


def _field(obj: dict, name: str, types, what: str):
    value = obj.get(name)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"model field {name!r} must be {what}, got {value!r}")
    return value


def model_from_json(obj) -> MetricModel:
    """Model of a :func:`model_to_json` descriptor; a malformed one raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"a model descriptor must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "fubini_study":
        return FubiniStudy(_field(obj, "m", int, "an integer"))
    if kind == "hitchin":
        s = _field(obj, "s", (int, float, str), "a number or a 'p/q' string")
        return Hitchin.make(_field(obj, "n", int, "an integer"), s)
    if kind == "product":
        return Product(model_from_json(obj.get("left")), model_from_json(obj.get("right")))
    raise ValueError(f"unknown model kind: {kind!r}")
