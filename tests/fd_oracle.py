"""Finite-difference oracle for the analytic metric jets of the built-in models.

The metric is rebuilt from central Wirtinger differences of a model's
potential; dg and ddg are central differences of the analytic metric, so the
oracle is independent of the hand-expanded third and fourth derivative
formulas it checks.
"""
import numpy as np

from kahlerpinch.geometry import MetricJet
from kahlerpinch.models import _as_point


def _wirtinger(f, z: np.ndarray, k: int, h: float, barred: bool):
    e = np.zeros(z.size, dtype=complex)
    e[k] = 1.0
    fr = (f(z + h * e) - f(z - h * e)) / (2.0 * h)
    fi = (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2.0 * h)
    return 0.5 * (fr + 1j * fi) if barred else 0.5 * (fr - 1j * fi)


def fd_metric_jet(model, z, h: float = 1e-4) -> MetricJet:
    """Finite-difference oracle for ``model.metric_jet(z)`` at one chart point."""
    if h < 1e-12:
        raise ValueError("finite-difference step underflow (h < 1e-12)")
    m = model.dimension
    z = _as_point(z, m)

    def g_of(p):
        return model.metric_jet(p).g

    g = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            inner = lambda p, jj=j: _wirtinger(model.potential, p, jj, h, barred=True)
            g[i, j] = _wirtinger(inner, z, i, h, barred=False)

    dg = np.empty((m, m, m), dtype=complex)
    for k in range(m):
        dg[:, :, k] = _wirtinger(g_of, z, k, h, barred=False)

    ddg = np.empty((m, m, m, m), dtype=complex)
    for k in range(m):
        for l in range(m):
            inner = lambda p, ll=l: _wirtinger(g_of, p, ll, h, barred=True)
            ddg[:, :, k, l] = _wirtinger(inner, z, k, h, barred=False)

    return MetricJet(g, dg, ddg)
