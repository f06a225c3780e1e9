"""Closed-form curvature and pinching quantities for the Hirzebruch family.

Everything here is a rational function of the Hirzebruch index ``n``, the
family parameter ``s`` and the fiber radius ``r = |z2|^2`` along the central
fiber z1 = 0.  Each quantity is one formula in u = 1/(1+r) = 1 - t, where
t = r/(1+r) is the compactified fiber parameter, built from the three
orthonormal-frame curvature components; u = 0 is the rational curve at
infinity (t = 1), an ordinary point of every formula, reached by passing
``r = math.inf`` (or inf inside an array).  All formulas accept exact
:class:`fractions.Fraction` inputs and then return exact rational outputs.

Positive holomorphic sectional curvature requires 0 < s < 1/n^2; the
quantities that depend on positivity raise :class:`AdmissibilityError`
outside that interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "AdmissibilityError",
    "CaseBounds",
    "is_admissible",
    "require_admissible",
    "curvature_components",
    "hsc_coefficients",
    "stationary_weights",
    "stationary_branch",
    "horizontal_branch",
    "vertical_value",
    "critical_radius",
    "critical_value",
    "case_bounds",
    "min_max_hsc",
    "pinching",
    "optimal_s",
    "scalar_bounds",
    "ricci_fiber_eigenvalues",
]


class AdmissibilityError(ValueError):
    """Parameter outside the interval with positive sectional curvature."""


def _check_params(n: int, s) -> None:
    if n < 1:
        raise ValueError("Hirzebruch index n must be >= 1")
    if not np.all(s > 0):
        raise ValueError("family parameter s must be positive")


def _u(r, s):
    """u = 1/(1+r) = 1 - t, exact for exact r and s; r = math.inf gives the integer 0."""
    if not np.all(r >= 0):
        raise ValueError("fiber radius r must be non-negative")
    if isinstance(r, float) and math.isinf(r):
        return 0
    exact = isinstance(r, int) and isinstance(s, (int, Fraction))
    return Fraction(1, 1 + r) if exact else 1 / (1 + r)


def _frame_components(n: int, s, r):
    """Orthonormal-frame curvature components (P, Q, T) = (Rhat_1111, Rhat_1122, Rhat_2222).

    Rational in u = 1/(1+r), and defined at u = 0, the curve at infinity:
    P = 2(1 + nsu - n^2 su(1-u))/(1+nsu)^2, Q = n((1+ns)u^2 - (1-u)^2)/(1+nsu)^2
    and T = 2/s.  K along frame weights (a, b) is 2(P a^2 + 4Q ab + T b^2).
    """
    _check_params(n, s)
    u = _u(r, s)
    nsu = n * s * u
    den = (1 + nsu) ** 2
    P = 2 * (1 + nsu - n * nsu * (1 - u)) / den
    return P, n * ((1 + n * s) * u**2 - (1 - u) ** 2) / den, 2 / s


def is_admissible(n: int, s) -> bool:
    """Whether the parameter pair gives positive sectional curvature."""
    return n >= 1 and 0 < s and s * n * n < 1


def require_admissible(n: int, s) -> None:
    _check_params(n, s)
    if not is_admissible(n, s):
        raise AdmissibilityError("positivity violated (s >= 1/n^2)")


def curvature_components(n: int, s, r):
    """The three independent curvature components along the central fiber.

    Returns (R_{1 1bar 1 1bar}, R_{1 1bar 2 2bar}, R_{2 2bar 2 2bar}) in the
    chart (z1, z2), the frame components times the metric factors g11 = 1+nsu
    and g22 = su^2; all remaining components vanish there.  The chart does not
    reach r = inf.
    """
    if not np.all(r < math.inf):
        raise ValueError("curvature components need a finite fiber radius")
    P, Q, T = _frame_components(n, s, r)
    u = _u(r, s)
    g11, g22 = 1 + n * s * u, s * u**2
    return P * g11**2, Q * g11 * g22, T * g22**2


def hsc_coefficients(n: int, s, r):
    """Coefficients (alpha, beta, gamma) of the direction quadratic.

    The sectional curvature along the unit direction with weights (a, b) is
    alpha a^2 + beta a b + gamma b^2; gamma = 4/s independently of r.  Array
    values of s and r broadcast against each other.
    """
    P, Q, T = _frame_components(n, s, r)
    return 2 * P, 8 * Q, 2 * T


def stationary_weights(n: int, s, r):
    """Unique stationary weights (a0, b0) of the constrained quadratic.

    The vertex of the quadratic on a + b = 1: a0 = (T - 2Q)/D and b0 =
    (P - 2Q)/D with D = P - 4Q + T, so a0 + b0 = 1 holds as an algebraic
    identity and exact inputs give an exact partition of unity.
    """
    P, Q, T = _frame_components(n, s, r)
    den = P - 4 * Q + T
    return (T - 2 * Q) / den, (P - 2 * Q) / den


def stationary_branch(n: int, s, r):
    """Sectional curvature along the stationary weights, the vertex value of the quadratic."""
    P, Q, T = _frame_components(n, s, r)
    return 2 * (P * T - 4 * Q * Q) / (P - 4 * Q + T)


def horizontal_branch(n: int, s, r):
    """Sectional curvature of the pure base direction (a, b) = (1, 0)."""
    return hsc_coefficients(n, s, r)[0]


def vertical_value(s):
    """Sectional curvature of the pure fiber direction (a, b) = (0, 1): 4/s."""
    if not s > 0:
        raise ValueError("family parameter s must be positive")
    return 4 / s


def critical_radius(n: int, s):
    """Shared interior critical radius of both curvature branches.

    Equals (n-1)(1+ns)/(1+n); zero at n = 1 where the stationary point sits on
    the boundary of [0, inf).
    """
    _check_params(n, s)
    return (n - 1) * (1 + n * s) / (1 + n)


def critical_value(n: int, s):
    """Common value of both branches at the critical radius."""
    _check_params(n, s)
    return (4 - s * (n - 1) ** 2) / (1 + n * s)


@dataclass(frozen=True)
class CaseBounds:
    """The ordered curvature landmarks of the three-case analysis.

    ``chain`` lists them from largest to smallest; the descent is strict for
    n >= 2 and collapses to ties at n = 1, where the interior critical radius
    degenerates to the boundary r = 0.
    """

    vertical: float
    horizontal_infinity: float
    horizontal_zero: float
    critical: float
    stationary_zero: float
    stationary_infinity: float
    critical_radius: float
    strictly_decreasing: bool

    @property
    def chain(self):
        return (
            self.vertical,
            self.horizontal_infinity,
            self.horizontal_zero,
            self.critical,
            self.stationary_zero,
            self.stationary_infinity,
        )


def case_bounds(n: int, s) -> CaseBounds:
    """Assemble the six-term bound chain; requires admissible parameters."""
    require_admissible(n, s)
    values = (
        vertical_value(s),
        horizontal_branch(n, s, math.inf),
        horizontal_branch(n, s, 0),
        critical_value(n, s),
        stationary_branch(n, s, 0),
        stationary_branch(n, s, math.inf),
    )
    strict = all(x > y for x, y in zip(values, values[1:]))
    return CaseBounds(*values, critical_radius(n, s), strict)


def min_max_hsc(n: int, s):
    """Global minimum and maximum of the sectional curvature for (n, s)."""
    require_admissible(n, s)
    return stationary_branch(n, s, math.inf), vertical_value(s)


def pinching(n: int, s):
    """Pinching ratio min/max = s(1 - n^2 s)/(1 + s + 2ns)."""
    require_admissible(n, s)
    return s * (1 - n * n * s) / (1 + s + 2 * n * s)


def optimal_s(n: int):
    """Optimal parameter and its pinching ratio, in exact rational arithmetic.

    Returns (1/(2n^2 + n), 1/(1 + 2n)^2).
    """
    if n < 1:
        raise ValueError("Hirzebruch index n must be >= 1")
    s_star = Fraction(1, 2 * n * n + n)
    return s_star, Fraction(1, (1 + 2 * n) ** 2)


def scalar_bounds(n: int, s):
    """Lower and upper bounds of the scalar curvature: 3/2 times min and max."""
    lo, hi = min_max_hsc(n, s)
    return 3 * lo / 2, 3 * hi / 2


def ricci_fiber_eigenvalues(n: int, s, r):
    """Metric-relative Ricci eigenvalues (P + Q, Q + T) along the central fiber.

    At r = inf they are (2 - n, (2 - ns)/s): the base eigenvalue crosses zero
    exactly at n = 2 and is negative beyond, the numerical shadow of the
    absence of positive-Ricci metrics for n >= 2.
    """
    P, Q, T = _frame_components(n, s, r)
    return P + Q, Q + T
