import threading

import numpy as np
import pytest

from kahlerpinch import optimize
from kahlerpinch.models import FubiniStudy, Hitchin, Product

MASTER_SEED = 20250811


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that ends with a thread it started still running."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running: {leaked}"


@pytest.fixture(autouse=True)
def finite_fiber_residuals(monkeypatch):
    """Fail a fiber sweep that reports a residual it did not compute.

    ``_fiber_cells`` takes residuals only on the rows a sweep can report and
    leaves the others NaN, so a NaN in a report is a cell reported off those
    rows.
    """
    report = optimize.PinchingReport

    def checked(**fields):
        assert np.isfinite(fields["lagrange_residual"]), fields["lagrange_residual"]
        return report(**fields)

    monkeypatch.setattr(optimize, "PinchingReport", checked)


@pytest.fixture
def rng():
    return np.random.default_rng(MASTER_SEED)


def builtin_models():
    return [
        FubiniStudy(1),
        FubiniStudy(2),
        Hitchin.make(1, "1/3"),
        Hitchin.make(2, "1/10"),
        Hitchin.make(3, "1/21"),
        Product(FubiniStudy(1), FubiniStudy(1)),
    ]


def random_point(model, rng, radius=1.2):
    """Random chart point with per-coordinate modulus below ``radius``."""
    m = model.dimension
    rad = rng.uniform(0.05, radius, size=m)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=m)
    return rad * np.exp(1j * ang)


def random_direction(m, rng):
    xi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return xi / np.linalg.norm(xi)


@pytest.fixture
def models():
    return builtin_models()
