"""Closed-form curvature and pinching quantities for the Hirzebruch family.

Everything here is a rational function of the Hirzebruch index ``n``, the
family parameter ``s`` and the fiber radius ``r = |z2|^2`` along the central
fiber z1 = 0.  All formulas accept exact :class:`fractions.Fraction` inputs
and then return exact rational outputs; ``r = math.inf`` selects the
hard-coded analytic limits at the rational curve at infinity (the compactified
fiber parameter t = r/(1+r) reaches it at t = 1).

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
    "hsc_value",
    "stationary_weights",
    "lagrange_multiplier",
    "stationarity_residual",
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


def _is_inf(r) -> bool:
    return isinstance(r, float) and math.isinf(r)


def _check_params(n: int, s) -> None:
    if n < 1:
        raise ValueError("Hirzebruch index n must be >= 1")
    if not np.all(s > 0):
        raise ValueError("family parameter s must be positive")


def _check_radius(r) -> None:
    if _is_inf(r):
        return
    if not np.all(r >= 0):
        raise ValueError("fiber radius r must be non-negative")


def is_admissible(n: int, s) -> bool:
    """Whether the parameter pair gives positive sectional curvature."""
    return n >= 1 and 0 < s and s * n * n < 1


def require_admissible(n: int, s) -> None:
    _check_params(n, s)
    if not is_admissible(n, s):
        raise AdmissibilityError("positivity violated (s >= 1/n^2)")


def curvature_components(n: int, s, r):
    """The three independent curvature components along the central fiber.

    Returns (R_{1 1bar 1 1bar}, R_{1 1bar 2 2bar}, R_{2 2bar 2 2bar}) as
    functions of the fiber radius; all remaining components vanish there.
    """
    _check_params(n, s)
    _check_radius(r)
    if _is_inf(r):
        raise ValueError("curvature components need a finite fiber radius")
    one_r = 1 + r
    r1111 = 2 * (-(n * n) * s * r + one_r**2 + n * s * one_r) / one_r**2
    r1122 = n * s * (1 + n * s - r * r) / (one_r**3 * (1 + n * s + r))
    r2222 = 2 * s / one_r**4
    return r1111, r1122, r2222


def hsc_coefficients(n: int, s, r):
    """Coefficients (alpha, beta, gamma) of the direction quadratic.

    The sectional curvature along the unit direction with weights (a, b) is
    alpha a^2 + beta a b + gamma b^2; gamma = 4/s independently of r.  Array
    values of s and of a finite r broadcast against each other.
    """
    _check_params(n, s)
    _check_radius(r)
    gamma = 4 / s
    if _is_inf(r):
        return 4, -8 * n, gamma
    one_r = 1 + r
    den = (one_r + n * s) ** 2
    alpha = 4 * (one_r**2 + n * s * (one_r - n * r)) / den
    beta = 8 * n * (1 + n * s - r * r) / den
    return alpha, beta, gamma


def hsc_value(n: int, s, r, a, b=None):
    """Direction quadratic evaluated at weights (a, b) with a + b = 1."""
    if b is None:
        b = 1 - a
    if abs(a + b - 1) > 1e-12:
        raise ValueError("direction weights must satisfy a + b = 1")
    alpha, beta, gamma = hsc_coefficients(n, s, r)
    return alpha * a * a + beta * a * b + gamma * b * b


def stationary_weights(n: int, s, r):
    """Unique stationary weights (a0, b0) of the constrained quadratic.

    a0 + b0 = 1 holds as an algebraic identity (the two numerators sum to the
    shared denominator), so exact inputs give an exact partition of unity.
    """
    _check_params(n, s)
    _check_radius(r)
    if _is_inf(r):
        den = 1 + s + 2 * n * s
        return (1 + n * s) / den, s * (1 + n) / den
    den = 1 + s - (n - 1) * n * s * s + r * (1 + s + 2 * n * s)
    a0 = (1 + r) * (1 + n * s) / den
    b0 = s * (1 - n + r + n * r + n * s - n * n * s) / den
    return a0, b0


def lagrange_multiplier(n: int, s, r):
    """Common directional derivative of the quadratic at the stationary weights."""
    alpha, beta, _ = hsc_coefficients(n, s, r)
    a0, b0 = stationary_weights(n, s, r)
    return 2 * alpha * a0 + beta * b0


def stationarity_residual(n: int, s, r, a, b):
    """|dK/da - dK/db| at (a, b); zero exactly at the stationary weights."""
    alpha, beta, gamma = hsc_coefficients(n, s, r)
    return abs((2 * alpha * a + beta * b) - (beta * a + 2 * gamma * b))


def stationary_branch(n: int, s, r):
    """Sectional curvature along the stationary weights, as a function of r."""
    _check_params(n, s)
    _check_radius(r)
    if _is_inf(r):
        return (4 - 4 * n * n * s) / (1 + s + 2 * n * s)
    ns1 = 1 + n * s
    num = (
        3 * r * r * ns1
        + 3 * r * ns1**2
        - r**3 * (n * n * s - 1)
        - ns1**2 * (n * n * s - n * s - 1)
    )
    den = (1 + r + n * s) ** 2 * (1 + s - (n - 1) * n * s * s + r * (1 + s + 2 * n * s))
    return 4 * num / den


def horizontal_branch(n: int, s, r):
    """Sectional curvature of the pure base direction (a, b) = (1, 0)."""
    if _is_inf(r):
        _check_params(n, s)
        return 4
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
    """Metric-relative Ricci eigenvalues along the central fiber.

    At r = inf the hard-coded limits are (2 - n, (2 - ns)/s): the base
    eigenvalue crosses zero exactly at n = 2 and is negative beyond, the
    numerical shadow of the absence of positive-Ricci metrics for n >= 2.
    """
    _check_params(n, s)
    _check_radius(r)
    if _is_inf(r):
        return 2 - n, (2 - n * s) / s
    r1111, r1122, r2222 = curvature_components(n, s, r)
    one_r = 1 + r
    g11 = (one_r + n * s) / one_r
    g22 = s / one_r**2
    ric11 = r1111 / g11 + r1122 / g22
    ric22 = r1122 / g11 + r2222 / g22
    return ric11 / g11, ric22 / g22
