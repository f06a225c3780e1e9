"""Built-in Kahler metric models and their analytic metric jets.

Every model is defined by a global potential Phi that is a sum of logarithms
of real polynomial kernels in (z, zbar).  The metric jet (g, dg, ddg) is
assembled from closed-form Wirtinger derivatives of those kernels through the
hand-expanded chain/product rule for log-compositions; no numerical
differentiation is involved.  A kernel jet carries only the unbarred
derivatives of its real kernel; :func:`log_jet` takes the barred ones as
their conjugates.

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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import DegenerateMetricError, MetricJet, _require_positive_definite

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
    """
    w = np.asarray(kernel.w, dtype=float)
    m = kernel.dw.shape[-1]

    def stack_last(field, rank):
        return field.reshape(-1, m**rank).T.copy().reshape((m,) * rank + (-1,))

    def stack_first(part):
        return part.reshape(-1, part.shape[-1]).T.copy().reshape(w.shape + part.shape[:-1])

    # Powers w**k (k >= 2) per element as Python floats, through the C library's pow:
    # numpy's vectorised power takes a SIMD path on some hosts (AVX-512) whose
    # last bit can differ from it, and the jets should not depend on the host.
    flat = w.ravel().tolist()
    w1 = w.reshape(-1)
    try:
        w2, w3, w4 = (np.array([x**k for x in flat]) for k in (2, 3, 4))
    except OverflowError:
        w2, w3, w4 = (np.array([_pow(x, k) for x in flat]) for k in (2, 3, 4))
    dw, d2w, dmix = stack_last(kernel.dw, 1), stack_last(kernel.d2w, 2), stack_last(kernel.dmix, 2)
    d3w, d4w = stack_last(kernel.d3w, 3), stack_last(kernel.d4w, 4)
    # The barred derivatives of a real kernel; d3wb[i, j, l] = conj(d3w[j, l, i]).
    dwb, d2wb, d3wb = dw.conj(), d2w.conj(), np.moveaxis(d3w.conj(), 2, 0)

    g = dmix / w1 - np.einsum("i...,j...->ij...", dw, dwb) / w2

    dg = (
        np.einsum("ikj...->ijk...", d3w) / w1
        - (
            np.einsum("kj...,i...->ijk...", dmix, dw)
            + np.einsum("ij...,k...->ijk...", dmix, dw)
            + np.einsum("ik...,j...->ijk...", d2w, dwb)
        )
        / w2
        + 2.0 * np.einsum("i...,k...,j...->ijk...", dw, dw, dwb) / w3
    )

    ddg = (
        np.einsum("ikjl...->ijkl...", d4w) / w1
        - (
            np.einsum("ikj...,l...->ijkl...", d3w, dwb)
            + np.einsum("ikl...,j...->ijkl...", d3w, dwb)
            + np.einsum("kjl...,i...->ijkl...", d3wb, dw)
            + np.einsum("ijl...,k...->ijkl...", d3wb, dw)
            + np.einsum("ij...,kl...->ijkl...", dmix, dmix)
            + np.einsum("kj...,il...->ijkl...", dmix, dmix)
            + np.einsum("ik...,jl...->ijkl...", d2w, d2wb)
        )
        / w2
        + 2.0
        * (
            np.einsum("ij...,k...,l...->ijkl...", dmix, dw, dwb)
            + np.einsum("kj...,i...,l...->ijkl...", dmix, dw, dwb)
            + np.einsum("il...,k...,j...->ijkl...", dmix, dw, dwb)
            + np.einsum("kl...,i...,j...->ijkl...", dmix, dw, dwb)
            + np.einsum("jl...,i...,k...->ijkl...", d2wb, dw, dw)
            + np.einsum("ik...,j...,l...->ijkl...", d2w, dwb, dwb)
        )
        / w3
        - 6.0 * np.einsum("i...,k...,j...,l...->ijkl...", dw, dw, dwb, dwb) / w4
    )

    return MetricJet(stack_first(g), stack_first(dg), stack_first(ddg))


def _pow(x: float, k: int) -> float:
    """x**k of a kernel value x > 0, inf past the float range, for the finiteness checks."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def product_jet(left: MetricJet, right: MetricJet) -> MetricJet:
    """Block-diagonal jet of a product metric from any two factor jets, batch axes broadcast.

    A product row has the bits, and so the definiteness, of its factor rows.
    """
    ml, m = left.dimension, left.dimension + right.dimension
    batch = np.broadcast_shapes(left.g.shape[:-2], right.g.shape[:-2])
    parts = [np.zeros(batch + (m,) * rank, dtype=complex) for rank in (2, 3, 4)]
    for part, a, b in zip(parts, (left.g, left.dg, left.ddg), (right.g, right.dg, right.ddg)):
        rank = part.ndim - len(batch)
        part[(...,) + (slice(ml),) * rank], part[(...,) + (slice(ml, None),) * rank] = a, b
    return MetricJet(*parts)


def _as_point(z, m: int) -> np.ndarray:
    """Chart point(s) as a complex array of shape (..., m)."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (m,):
        raise ValueError(f"expected a point with {m} coordinates, got an array of shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("chart point coordinates must be finite")
    return z


def _jet_on_rows(jet_of, z, m: int) -> MetricJet:
    """Finite, definite metric jet ``jet_of`` of the points z, as a stack of rows.

    A point alone is the one-row stack: numpy's scalar arithmetic can differ
    from its array loops in the last bit, and a point should get the same jet
    alone as in a stack.  The jet comes back with the batch axes of z.
    """
    z = _as_point(z, m)
    jet = jet_of(z.reshape(-1, m))
    _require_positive_definite(jet.g)
    if not (np.all(np.isfinite(jet.dg)) and np.all(np.isfinite(jet.ddg))):
        dg_ok, ddg_ok = (np.isfinite(a.reshape(len(a), -1)).all(axis=1) for a in (jet.dg, jet.ddg))
        row = (dg_ok & ddg_ok).argmin()
        raise DegenerateMetricError(math.nan, "metric jet has non-finite derivatives", row)
    batch = z.shape[:-1]
    return MetricJet(*(a.reshape(batch + a.shape[1:]) for a in (jet.g, jet.dg, jet.ddg)))


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

    dw, d2w, dmix, d3w, d4w = (np.zeros(z.shape[:-1] + (2,) * r, complex) for r in (1, 2, 2, 3, 4))
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


@dataclass(frozen=True)
class FubiniStudy:
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
        d2w, dmix, d3w, d4w = (np.zeros(z.shape[:-1] + (self.m,) * r, complex) for r in (2, 2, 3, 4))
        w = 1.0 + (z.conj() * z).real.sum(axis=-1)
        return KernelJet(w, z.conj(), d2w, dmix + np.eye(self.m), d3w, d4w)

    def potential(self, z) -> float:
        return math.log(self.kernel(z).w)

    def metric_jet(self, z) -> MetricJet:
        return _jet_on_rows(lambda rows: log_jet(self.kernel(rows)), z, self.m)


@dataclass(frozen=True)
class Hitchin:
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

    def _jet(self, fiber_kernel, z, base: MetricJet | None = None) -> MetricJet:
        """Jet of log(base kernel) + s log(fiber_kernel) at the points z of its chart.

        ``base``, if given, is the jet of log(base kernel) already evaluated,
        one row that broadcasts over the rows of z.
        """

        def jet_of(rows):
            b = log_jet(self.base_kernel(rows)) if base is None else base
            fiber, s = log_jet(fiber_kernel(rows)), float(self.s)
            return MetricJet(b.g + s * fiber.g, b.dg + s * fiber.dg, b.ddg + s * fiber.ddg)

        return _jet_on_rows(jet_of, z, 2)

    def metric_jet(self, z) -> MetricJet:
        return self._jet(self.fiber_kernel, z)

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
        outside [0, 1] gives a negative radius, a ValueError.

        The base kernel 1 + |z1|^2 depends on z1 alone, and every sample of
        both charts has z1 = 0 exactly, so the jet of its logarithm is taken
        once, on a one-row stack at z1 = 0, and broadcast into the sum of
        both charts.  :func:`log_jet` gives a row the same bits alone as in a
        stack, and the broadcast sum adds element by element, so every row
        gets the bits of evaluating the base at that row.
        """
        t = np.asarray(t, dtype=float)
        far = t > 0.5
        radius = np.where(far, 1.0 - t, t) / np.where(far, t, 1.0 - t)
        base = log_jet(self.base_kernel(np.zeros((1, 2))))
        arrays = [np.empty(t.shape + (2,) * rank, dtype=complex) for rank in (2, 3, 4)]
        for rows, kernel in ((~far, self.fiber_kernel), (far, self.far_kernel)):
            if rows.any():
                jet = self._jet(kernel, self.fiber_point(radius[rows]), base)
                for out, part in zip(arrays, (jet.g, jet.dg, jet.ddg)):
                    out[rows] = part
        return MetricJet(*arrays)


@dataclass(frozen=True)
class Product:
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

    def metric_jet(self, z) -> MetricJet:
        z, ml = _as_point(z, self.dimension), self.left.dimension
        return product_jet(self.left.metric_jet(z[..., :ml]), self.right.metric_jet(z[..., ml:]))


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
