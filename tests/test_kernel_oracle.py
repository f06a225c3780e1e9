"""Every field of every kernel jet against exact symbolic derivatives of its kernel.

sympy differentiates each kernel in the independent variables z and zbar, and
mpmath evaluates the derivatives at the binary values of the test points with
40 significant digits, so the oracle shares no formula with the kernels it checks.
"""
import numpy as np
import pytest

from kahlerpinch.models import FubiniStudy, Hitchin

from conftest import MASTER_SEED, random_point

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

FIELDS = {"w": (0, 0), "dw": (1, 0), "d2w": (2, 0), "dmix": (1, 1), "d3w": (2, 1), "d4w": (2, 2)}


def _symbolic_jet(kernel, m):
    """Each field name -> function of (z, zbar) giving its nested list of values."""
    z, zb = sympy.symbols(f"z:{m}"), sympy.symbols(f"zb:{m}")
    w = kernel(z, zb)

    def derivatives(unbarred, barred):
        if unbarred + barred == 0:
            return w
        # Index order of KernelJet: the unbarred indices, then the barred ones.
        variables = [z] * unbarred + [zb] * barred

        def nest(expr, rest):
            if not rest:
                return expr
            return [nest(sympy.diff(expr, v), rest[1:]) for v in rest[0]]

        return nest(w, variables)

    return {
        name: sympy.lambdify(z + zb, derivatives(*orders), modules="mpmath")
        for name, orders in FIELDS.items()
    }


def _check(kernel_of, oracle, points):
    got = kernel_of(points)
    with mpmath.workdps(40):
        args = [[mpmath.mpc(c) for c in np.concatenate([p, p.conj()])] for p in points]
        for name in FIELDS:
            want = np.array([np.array(oracle[name](*a), dtype=complex) for a in args])
            value = np.asarray(getattr(got, name))
            assert value.shape == want.shape, name
            # A few ulps of each entry; an entry that vanishes identically is exactly 0.
            assert np.all(np.abs(value - want) <= 8e-16 * np.abs(want)), (name, value - want)


def _points(model, z1_zero):
    rng = np.random.default_rng(MASTER_SEED)
    points = np.array([random_point(model, rng, radius=1.5) for _ in range(6)])
    if z1_zero:
        points[:, 0] = 0.0
        points[0, 1] = 0.0
    return points


@pytest.mark.parametrize("z1_zero", [False, True], ids=["random", "z1=0"])
@pytest.mark.parametrize("kernel", ["base_kernel", "fiber_kernel", "far_kernel"])
@pytest.mark.parametrize("n", range(1, 7))
def test_hitchin_kernels_match_sympy(n, kernel, z1_zero):
    # Each kernel is U^a + |x|^2 U^b, U = 1 + |z1|^2, in its chart (z1, x).
    a, b = {"base_kernel": (1, None), "fiber_kernel": (n, 0), "far_kernel": (0, n)}[kernel]

    def symbolic(z, zb):
        U = 1 + z[0] * zb[0]
        return U**a + (0 if b is None else z[1] * zb[1] * U**b)

    model = Hitchin.make(n, f"1/{10 * n * n}")
    _check(getattr(model, kernel), _symbolic_jet(symbolic, 2), _points(model, z1_zero))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fubini_study_kernel_matches_sympy(m):
    model = FubiniStudy(m)
    oracle = _symbolic_jet(lambda z, zb: 1 + sum(a * b for a, b in zip(z, zb)), m)
    _check(model.kernel, oracle, _points(model, z1_zero=False))
