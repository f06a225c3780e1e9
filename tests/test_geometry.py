import numpy as np
import pytest

from kahlerpinch import geometry, models
from kahlerpinch.geometry import (
    DegenerateMetricError,
    MetricJet,
    ZeroDirectionError,
    _real_part,
    _ResidueError,
    check_symmetries,
    curvature_tensor,
    holomorphic_sectional_curvature,
    hsc_gradient,
    inverse_metric,
    norm_squared,
    orthonormal_frame,
    ricci,
    scalar_curvature,
)
from kahlerpinch.models import FubiniStudy, Hitchin

from conftest import random_direction, random_point


def flat_jet(m=2):
    return MetricJet(
        np.eye(m, dtype=complex),
        np.zeros((m, m, m), dtype=complex),
        np.zeros((m, m, m, m), dtype=complex),
    )


def test_flat_jet_has_zero_curvature():
    jet = flat_jet()
    R = curvature_tensor(jet)
    assert np.max(np.abs(R)) == 0.0
    assert np.max(np.abs(ricci(R, jet.g))) == 0.0
    assert scalar_curvature(R, jet.g) == 0.0


def test_fs_p1_at_origin():
    jet = FubiniStudy(1).metric_jet([0.0])
    R = curvature_tensor(jet)
    assert abs(jet.g[0, 0] - 1.0) < 1e-14
    assert abs(R[0, 0, 0, 0] - 2.0) < 1e-14
    assert abs(ricci(R, jet.g)[0, 0] - 2.0) < 1e-14
    assert abs(scalar_curvature(R, jet.g) - 2.0) < 1e-14
    assert abs(holomorphic_sectional_curvature(R, jet.g, [1.0]) - 4.0) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fs_has_constant_hsc_four(m, rng):
    model = FubiniStudy(m)
    for _ in range(6):
        jet = model.metric_jet(random_point(model, rng))
        R = curvature_tensor(jet)
        for _ in range(4):
            K = holomorphic_sectional_curvature(R, jet.g, random_direction(m, rng))
            assert abs(K - 4.0) < 1e-10


def test_fs_p2_scalar_is_six(rng):
    model = FubiniStudy(2)
    for _ in range(5):
        jet = model.metric_jet(random_point(model, rng))
        tau = scalar_curvature(curvature_tensor(jet), jet.g)
        assert abs(tau - 6.0) < 1e-11


def test_hitchin_origin_components():
    jet = Hitchin.make(1, "1/3").metric_jet([0.0, 0.0])
    R = curvature_tensor(jet)
    assert abs(R[0, 0, 0, 0] - 8.0 / 3.0) < 1e-12
    assert abs(R[0, 0, 1, 1] - 1.0 / 3.0) < 1e-12
    assert abs(R[1, 1, 1, 1] - 2.0 / 3.0) < 1e-12
    # every component not forced by the three above (and their symmetry
    # images) vanishes on the fiber
    forced = {
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (1, 0, 0, 1),
    }
    for idx in np.ndindex(2, 2, 2, 2):
        if idx not in forced:
            assert abs(R[idx]) < 1e-12


def test_hitchin_axis_hsc_values():
    jet = Hitchin.make(1, "1/3").metric_jet([0.0, 0.0])
    R = curvature_tensor(jet)
    assert abs(holomorphic_sectional_curvature(R, jet.g, [0.0, 1.0]) - 12.0) < 1e-12
    assert abs(holomorphic_sectional_curvature(R, jet.g, [1.0, 0.0]) - 3.0) < 1e-12


def test_norm_squared_values():
    assert norm_squared(np.eye(2), [1.0, 0.0]) == 1.0
    g = Hitchin.make(1, "1/3").metric_jet([0.0, 0.0]).g
    assert abs(norm_squared(g, [1.0, 0.0]) - 4.0 / 3.0) < 1e-14
    assert abs(norm_squared(g, [0.0, 1.0]) - 1.0 / 3.0) < 1e-14
    assert norm_squared(np.eye(2), [0.0, 0.0]) == 0.0


def test_hsc_scaling_invariance(rng, models):
    for model in models:
        jet = model.metric_jet(random_point(model, rng))
        R = curvature_tensor(jet)
        for _ in range(6):
            xi = random_direction(model.dimension, rng)
            lam = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            K1 = holomorphic_sectional_curvature(R, jet.g, xi)
            K2 = holomorphic_sectional_curvature(R, jet.g, lam * xi)
            assert abs(K1 - K2) < 1e-9


def test_zero_direction_rejected():
    jet = FubiniStudy(2).metric_jet([0.1, 0.2])
    R = curvature_tensor(jet)
    with pytest.raises(ZeroDirectionError):
        holomorphic_sectional_curvature(R, jet.g, [0.0, 0.0])


def test_stacked_hsc_matches_rows_and_keeps_every_check(rng):
    model = Hitchin.make(2, "1/10")
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(4)]))
    R, g = curvature_tensor(jet), jet.g
    xi = np.array([random_direction(2, rng) for _ in range(4)])
    K = holomorphic_sectional_curvature(R, g, xi)
    assert K.shape == (4,)
    for p in range(4):
        assert K[p] == pytest.approx(holomorphic_sectional_curvature(R[p], g[p], xi[p]), rel=1e-14)
    zero = xi.copy()
    zero[1] = 0.0
    with pytest.raises(ZeroDirectionError, match="zero direction"):
        holomorphic_sectional_curvature(R, g, zero)
    indefinite = g.copy()
    indefinite[3] = np.diag([1.0, -1.0])
    with pytest.raises(ZeroDirectionError, match="non-positive"):
        holomorphic_sectional_curvature(R, indefinite, np.array([[0.0, 1.0]] * 4))
    bad = R.copy()
    bad[2, 0, 0, 0, 0] += 1j * np.abs(R).max()
    with pytest.raises(ValueError, match="imaginary residue"):
        holomorphic_sectional_curvature(bad, g, np.array([[1.0, 0.0]] * 4))


def test_residue_error_names_the_first_row_past_the_bound():
    # the last two axes hold one row; row 2 has the larger residue, row 1 comes first
    value = np.ones((3, 2, 2), dtype=complex)
    value[1, 0, 1] += 1e-6j
    value[2, 1, 0] += 1e-3j
    with pytest.raises(_ResidueError, match="form has imaginary residue 1.000e-06") as raised:
        _real_part(value, "form", 2)
    assert raised.value.row == 1
    with pytest.raises(_ResidueError) as raised:
        _real_part(value[:, 1, 0], "value")
    assert raised.value.row == 2
    assert np.array_equal(_real_part(value[0], "form", 2), np.ones((2, 2)))


def test_curvature_of_a_checked_jet_checks_its_metric_once(monkeypatch):
    checked = []
    check = geometry._require_positive_definite

    def counted(g):
        checked.append(np.shape(g))
        return check(g)

    for module in (geometry, models):
        monkeypatch.setattr(module, "_require_positive_definite", counted)
    jet = Hitchin.make(1, "1/3").metric_jet([0.3 + 0.1j, 0.5])
    R = curvature_tensor(jet)
    assert checked == [(1, 2, 2)]  # where the jet was made, not again for its curvature
    # a jet that carries no factors is checked where its curvature is taken
    bare = MetricJet(jet.g, jet.dg, jet.ddg)
    assert np.array_equal(curvature_tensor(bare), R)
    assert checked == [(1, 2, 2), (2, 2)]


def test_degenerate_metric_rejected():
    bad = flat_jet(2)
    jet = MetricJet(np.diag([1.0, -1.0]).astype(complex), bad.dg, bad.ddg)
    with pytest.raises(DegenerateMetricError) as err:
        curvature_tensor(jet)
    assert err.value.min_eigenvalue < 0
    singular = MetricJet(np.diag([1.0, 0.0]).astype(complex), bad.dg, bad.ddg)
    with pytest.raises(DegenerateMetricError):
        inverse_metric(singular.g)


def test_scalar_equals_trace_of_ricci(rng, models):
    for model in models:
        jet = model.metric_jet(random_point(model, rng))
        R = curvature_tensor(jet)
        tau = scalar_curvature(R, jet.g)
        ginv = inverse_metric(jet.g)
        tau2 = np.einsum("ji,ij->", ginv, ricci(R, jet.g)).real
        assert abs(tau - tau2) <= 1e-10 * max(1.0, abs(tau))


def test_ricci_of_one_point_keeps_the_bits_of_the_point_contraction(rng, models):
    # Stacked subscripts must not change what a single point gets.
    for model in models:
        for _ in range(100):
            jet = model.metric_jet(random_point(model, rng))
            R = curvature_tensor(jet)
            want = np.einsum("lk,ijkl->ij", inverse_metric(jet.g), R)
            assert ricci(R, jet.g).tobytes() == want.tobytes()


def test_symmetries_hold_for_builtin_models(rng, models):
    for model in models:
        for _ in range(5):
            jet = model.metric_jet(random_point(model, rng))
            rep = check_symmetries(curvature_tensor(jet), jet)
            assert rep.max_violation < 1e-10


def test_symmetry_check_detects_corruption():
    jet = Hitchin.make(1, "1/3").metric_jet([0.3, 0.4])
    rep = check_symmetries(curvature_tensor(jet), jet)
    assert rep.max_violation < 1e-12
    dg = jet.dg.copy()
    dg[0, 0, 1] += 1e-3
    corrupted = MetricJet(jet.g, dg, jet.ddg)
    rep = check_symmetries(curvature_tensor(jet), corrupted)
    assert abs(rep.kahler - 1e-3) < 1e-9


def test_orthonormal_frame_diagonal_example():
    g = np.diag([4.0 / 3.0, 1.0 / 3.0]).astype(complex)
    F = orthonormal_frame(g)
    assert np.allclose(F, np.diag([np.sqrt(3.0 / 4.0), np.sqrt(3.0)]), atol=1e-14)


def test_orthonormal_frame_random_pd(rng):
    for m in (2, 3, 4):
        A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        g = A @ A.conj().T + 0.1 * m * np.eye(m)
        F = orthonormal_frame(g)
        assert np.max(np.abs(F.T @ g @ F.conj() - np.eye(m))) < 1e-12
        c = random_direction(m, rng)
        assert abs(norm_squared(g, F @ c) - 1.0) < 1e-12


def test_hsc_gradient_vanishes_at_fs_directions(rng):
    model = FubiniStudy(2)
    jet = model.metric_jet(random_point(model, rng))
    R = curvature_tensor(jet)
    for _ in range(4):
        xi = random_direction(2, rng)
        assert np.linalg.norm(hsc_gradient(R, jet.g, xi)) < 1e-10


def test_hitchin_large_fiber_ricci_not_positive():
    jet = Hitchin.make(3, "1/21").metric_jet([0.0, 3.0])
    R = curvature_tensor(jet)
    eigs = np.linalg.eigvalsh(ricci(R, jet.g))
    assert eigs[0] <= 0.0


def test_curvature_tensor_matches_fd_jet_route(rng, models):
    from fd_oracle import fd_metric_jet

    for model in models:
        for _ in range(3):
            z = random_point(model, rng)
            Ra = curvature_tensor(model.metric_jet(z))
            Rf = curvature_tensor(fd_metric_jet(model, z))
            scale = max(np.max(np.abs(Ra)), 1e-12)
            assert np.max(np.abs(Ra - Rf)) / scale < 1e-5
