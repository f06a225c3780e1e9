"""The factors of a metric: checked once, where the metric is made, and carried by its jet.

A 2 x 2 metric's inverse and orthonormal frame are written out elementwise
with the stack axis last; larger metrics take one Cholesky factor and one
triangular inverse.  Tests: the bits of a row do not depend on the stack, the
factors agree with LAPACK to a few ulps of the condition number, the
definiteness test accepts and refuses what the eigenvalue test does, and no
layer past the check inverts or factors a metric again.
"""
import math

import numpy as np
import pytest

from kahlerpinch import optimize
from kahlerpinch.cli import main
from kahlerpinch.geometry import (
    DegenerateMetricError,
    _hermitian_part,
    _require_positive_definite,
    _stack_first,
    orthonormal_frame,
)
from kahlerpinch.models import FubiniStudy, Hitchin, Product, product_jet

from conftest import MASTER_SEED, random_point

EPS = float(np.finfo(float).eps)


def _random_metrics(rng, count, log_cond=(0.0, 12.0), scale=1.0):
    """Hermitian positive definite 2 x 2 metrics with condition numbers 10^log_cond, random frames."""
    a = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    q, _ = np.linalg.qr(a)
    low = 10.0 ** -rng.uniform(*log_cond, count)
    lam = np.stack([low, np.ones(count)], axis=-1) * rng.uniform(0.5, 2.0, (count, 1))
    g = np.einsum("pij,pj,pkj->pik", q, lam, q.conj())
    return scale * _hermitian_part(g)


def _model_metrics():
    rng = np.random.default_rng(MASTER_SEED)
    hitchin = Hitchin.make(2, "1/10")
    points = [random_point(hitchin, rng, radius=1.5) for _ in range(200)]
    off = hitchin.metric_jet(np.array(points)).g
    fiber = hitchin.fiber_jet(np.linspace(0.0, 1.0, 56)).g
    return np.concatenate([off, fiber])


def _lapack_factors(g):
    """The inverse and the Cholesky frame of the stack g by LAPACK, stack first: the reference."""
    L = np.linalg.cholesky(_hermitian_part(g).conj())
    return np.linalg.inv(_hermitian_part(g)), np.linalg.inv(L).conj().swapaxes(-1, -2)


def _stack_first_factors(g):
    factors = _require_positive_definite(g)
    return tuple(_stack_first(a, g.shape[:-2]) for a in factors)


def test_surface_factor_rows_do_not_depend_on_the_stack(rng):
    """Each row of 256 gets the bits it gets alone, as a point, and in stacks of 2 and 16."""
    g = np.concatenate([_random_metrics(rng, 128), _model_metrics()[:128]])
    full = _require_positive_definite(g)
    for i in range(256):
        alone = _require_positive_definite(g[i])
        for got, want in zip(alone, full):
            assert np.array_equal(got[..., 0], want[..., i]), i
    for size in (1, 2, 16):
        for start in range(0, 256, size):
            part = _require_positive_definite(g[start : start + size])
            for got, want in zip(part, full):
                assert np.array_equal(got, want[..., start : start + size]), (size, start)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
@pytest.mark.parametrize("log_cond", [(0.0, 3.0), (6.0, 12.0)], ids=["random", "near-singular"])
def test_surface_factors_agree_with_lapack(rng, log_cond, scale):
    """Within 8 ulps of the condition number, entry by entry against the largest entry; F^T g conj(F) = I."""
    g = _random_metrics(rng, 500, log_cond, scale)
    if scale == 1.0 and log_cond == (0.0, 3.0):
        g = np.concatenate([g, _model_metrics()])
    cond = np.linalg.cond(g)
    inverse, frame = _stack_first_factors(g)
    for got, want in zip((inverse, frame), _lapack_factors(g)):
        size = np.max(np.abs(want), axis=(-2, -1))
        err = np.max(np.abs(got - want), axis=(-2, -1))
        assert np.all(err <= 8.0 * EPS * cond * size)
    # the frame is orthonormal for the metric, to rounding of the pairing's size
    pairing = np.einsum("pia,pij,pjb->pab", frame, g, frame.conj())
    size = np.einsum("pia,pij,pjb->pab", np.abs(frame), np.abs(g), np.abs(frame))
    assert np.all(np.abs(pairing - np.eye(2)) <= 8.0 * EPS * size)
    assert np.all(np.triu(frame) == frame)


def _eigenvalue_check(g):
    """The definiteness test of the eigenvalues of the Hermitian part: the reference.

    (message, row) of the error it raises, or None.
    """
    finite = np.isfinite(g)
    if not finite.all():
        return "degenerate metric: non-finite entries", finite.all(axis=(-2, -1)).argmin()
    low = np.linalg.eigvalsh(_hermitian_part(g))[..., 0]
    bad = low <= 0.0
    if bad.any():
        return f"degenerate metric: smallest eigenvalue {low[bad][0]:.6e}", bad.argmax()
    return None


_REFUSED = {
    "zero-determinant": [[4.0, 2.0], [2.0, 1.0]],
    "zero-determinant-complex": [[1.0, 1j], [-1j, 1.0]],
    "zero-determinant-off": [[2.0, 1.0 + 1j], [1.0 - 1j, 1.0]],
    "zero-first-entry": [[0.0, 0.0], [0.0, 1.0]],
    "zero-last-entry": [[1.0, 0.0], [0.0, 0.0]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    "indefinite": [[1.0, 2.0], [2.0, 1.0]],
    "negative-first-entry": [[-1.0, 0.0], [0.0, 1.0]],
    "negative": [[-1.0, 0.5j], [-0.5j, -2.0]],
    "nan": [[1.0, math.nan], [0.0, 1.0]],
    "inf": [[math.inf, 0.0], [0.0, 1.0]],
    "complex-inf": [[1.0, 0.0], [complex(0.0, math.inf), 1.0]],
}


@pytest.mark.parametrize("bad", list(_REFUSED), ids=list(_REFUSED))
@pytest.mark.parametrize("at", [0, 5, 15])
def test_surface_rows_are_refused_as_by_their_eigenvalues(rng, bad, at):
    g = _random_metrics(rng, 16)
    g[at] = _REFUSED[bad]
    g[-1] = _REFUSED[bad]  # the first refused row is named
    want = _eigenvalue_check(g)
    assert want is not None
    with pytest.raises(DegenerateMetricError) as err:
        _require_positive_definite(g)
    assert (str(err.value), err.value.row) == want
    # a definite stack, and a definite non-Hermitian one, pass both tests
    g[at] = g[-1] = np.eye(2)
    g[0, 0, 1] += 0.3j
    assert _eigenvalue_check(g) is None
    _require_positive_definite(g)


def test_factors_of_a_non_hermitian_metric_are_those_of_its_hermitian_part(rng):
    noise = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    g = _random_metrics(rng, 64, (0.0, 1.0)) + 0.01 * noise
    for got, want in zip(_require_positive_definite(g), _require_positive_definite(_hermitian_part(g))):
        assert np.array_equal(got, want)


class _LapackCalls:
    """Counts the calls of numpy's inv, cholesky, eigvalsh, eigh and eigvals."""

    def __init__(self, monkeypatch):
        self.calls = {}
        for name in ("inv", "cholesky", "eigvalsh", "eigh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, function):
        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return function(*args, **kwargs)

        return counted


def test_fiber_block_factors_its_metrics_without_lapack(monkeypatch):
    # the one LAPACK call of a block is the S^2 solve's eigh of its Bloch quadratics,
    # on 256 samples and on the block a sweep solves at once
    model = Hitchin.make(3, "1/21")
    lapack = _LapackCalls(monkeypatch)
    for size in (256, optimize._FIBER_BLOCK):
        t = np.linspace(0.0, 1.0, size)
        lapack.calls.clear()
        K, _, _, converged = optimize._fiber_cells(model, t)
        assert lapack.calls == {"eigh": 1}
        assert converged.all() and K.shape == (size, 2)


def test_curvature_factors_its_metric_once(monkeypatch, capsys):
    # eigvalsh runs twice: the definiteness check and the Ricci eigenvalues
    lapack = _LapackCalls(monkeypatch)
    assert main(["curvature", "--model", "product:fs2:fs2", "--point", "0.1,0.2j,0.3,0.4"]) == 0
    assert lapack.calls == {"inv": 1, "cholesky": 1, "eigvalsh": 2}


def test_product_jet_pairs_the_factors_of_its_factor_jets(rng):
    left, right = Hitchin.make(1, "1/3"), FubiniStudy(1)
    zl = np.array([random_point(left, rng) for _ in range(5)])
    zr = np.array([random_point(right, rng) for _ in range(5)])
    product = Product(left, right).metric_jet(np.concatenate([zl, zr], axis=-1))
    paired = product_jet(left.metric_jet(zl), right.metric_jet(zr))
    assert np.array_equal(paired.g, product.g)
    for got, want in zip(paired._factors, product._factors):
        assert np.allclose(got, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))
    # the blocks are the factors' own, bit for bit
    assert np.array_equal(paired._factors.frame[:2, :2], left.metric_jet(zl)._factors.frame)
    assert not paired._factors.frame[2:, :2].any() and not paired._factors.frame[:2, 2:].any()


def test_orthonormal_frame_is_the_carried_frame(rng):
    model = Hitchin.make(2, "1/10")
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(7)]))
    assert np.array_equal(orthonormal_frame(jet.g), _stack_first(jet._factors.frame, (7,)))
