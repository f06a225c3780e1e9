import inspect
import json
import sys
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from kahlerpinch import hirzebruch as hz
from kahlerpinch import optimize
from kahlerpinch.cli import main
from kahlerpinch.geometry import (
    curvature_tensor,
    holomorphic_sectional_curvature,
    orthonormal_frame,
)
from kahlerpinch.models import FubiniStudy, Hitchin, Product
from kahlerpinch.optimize import (
    extremize_direction,
    batch_hsc,
    extremize_quadratic,
    grid_2d_verify,
    sweep_fiber,
    sweep_s,
)

from conftest import MASTER_SEED, random_point


def test_extremize_constant_model(rng):
    model = FubiniStudy(2)
    jet = model.metric_jet(random_point(model, rng))
    ex = extremize_direction(curvature_tensor(jet), jet.g)
    assert abs(ex.min_K - 4.0) < 1e-8
    assert abs(ex.max_K - 4.0) < 1e-8
    assert ex.converged


def test_extremize_hitchin_origin():
    jet = Hitchin.make(1, "1/3").metric_jet([0.0, 0.0])
    ex = extremize_direction(curvature_tensor(jet), jet.g)
    assert abs(ex.min_K - 3.0) < 1e-9
    assert abs(ex.max_K - 12.0) < 1e-9
    assert ex.min_residual <= 1e-4 * max(1.0, ex.min_K)
    assert ex.max_residual <= 1e-4 * max(1.0, ex.max_K)


def test_extremize_product_origin():
    jet = Product(FubiniStudy(1), FubiniStudy(1)).metric_jet([0.0, 0.0])
    ex = extremize_direction(curvature_tensor(jet), jet.g)
    assert abs(ex.min_K - 2.0) < 1e-9
    assert abs(ex.max_K - 4.0) < 1e-9


def test_extremize_three_dimensional_product(rng):
    model = Product(FubiniStudy(1), FubiniStudy(2))
    jet = model.metric_jet(random_point(model, rng))
    ex = extremize_direction(curvature_tensor(jet), jet.g)
    assert abs(ex.min_K - 2.0) < 1e-6
    assert abs(ex.max_K - 4.0) < 1e-6


def _surface_cases():
    rng = np.random.default_rng(MASTER_SEED)
    # a sampled direction search can stop short of the true maximum 4/s = 312 here
    cases = [
        pytest.param(
            Hitchin.make(6, "1/78"), np.array([0.01 + 0.1j, -1.13 + 0.71j]), id="hitchin-6-1_78"
        )
    ]
    for k in range(6):
        n = int(rng.integers(1, 7))
        model = Hitchin.make(n, float(rng.uniform(0.05, 0.95)) / (n * n))
        z = random_point(model, rng, radius=1.5)
        cases.append(pytest.param(model, z, id=f"hitchin-off-fiber-{k}"))
    for n in (1, 3, 6):
        model = Hitchin.make(n, hz.optimal_s(n)[0])
        for r in (0.0, 0.7, 5.0, 99.0):
            cases.append(pytest.param(model, model.fiber_point(r), id=f"fiber-{n}-r{r}"))
    for name, model in (("fs2", FubiniStudy(2)), ("fs1xfs1", Product(FubiniStudy(1), FubiniStudy(1)))):
        for k in range(2):
            cases.append(pytest.param(model, random_point(model, rng), id=f"{name}-{k}"))
    return cases


@pytest.mark.parametrize("model,z", _surface_cases())
def test_surface_extrema_bracket_dense_sample(model, z):
    jet = model.metric_jet(z)
    R = curvature_tensor(jet)
    ex = extremize_direction(R, jet.g)
    rng = np.random.default_rng(MASTER_SEED)
    raw = rng.standard_normal((20000, 2)) + 1j * rng.standard_normal((20000, 2))
    K = batch_hsc(R, jet.g, raw @ orthonormal_frame(jet.g).T)
    scale = max(1.0, abs(ex.min_K), abs(ex.max_K))
    assert ex.min_K <= K.min() + 1e-12 * scale
    assert ex.max_K >= K.max() - 1e-12 * scale
    assert ex.min_residual <= 1e-10 * max(1.0, abs(ex.min_K))
    assert ex.max_residual <= 1e-10 * max(1.0, abs(ex.max_K))
    assert ex.converged


def test_extremize_quadratic_against_grid(rng):
    for _ in range(25):
        alpha, beta, gamma = rng.uniform(-5.0, 40.0, size=3)
        q = extremize_quadratic(alpha, beta, gamma)
        a = np.linspace(0.0, 1.0, 200001)
        vals = alpha * a * a + beta * a * (1 - a) + gamma * (1 - a) ** 2
        assert q.min_K <= vals.min() + 1e-9
        assert q.max_K >= vals.max() - 1e-9
        assert abs(q.min_K - vals.min()) < 1e-8
        assert abs(q.max_K - vals.max()) < 1e-8


def test_extremize_quadratic_is_elementwise(rng):
    coeffs = rng.uniform(-5.0, 40.0, size=(3, 4, 5))
    q = extremize_quadratic(*coeffs)
    assert q.min_K.shape == (4, 5) and q.max_K.shape == (4, 5)
    for idx in np.ndindex(4, 5):
        one = extremize_quadratic(*coeffs[(slice(None),) + idx])
        assert (one.min_K, one.max_K) == (q.min_K[idx], q.max_K[idx])


@pytest.mark.parametrize(
    "n,s,expected_pinch",
    [(1, Fraction(1, 3), 1.0 / 9.0), (2, Fraction(1, 10), 1.0 / 25.0)],
)
def test_sweep_fiber_reproduces_closed_forms(n, s, expected_pinch):
    report = sweep_fiber(Hitchin.make(n, s), grid=512)
    lo, hi = (float(x) for x in hz.min_max_hsc(n, s))
    assert abs(report.min_K - lo) <= 1e-6 * lo
    assert abs(report.max_K - hi) <= 1e-9 * hi
    assert abs(report.pinching - expected_pinch) <= 1e-6 * expected_pinch
    assert report.converged
    assert report.lagrange_residual < 1e-4 * max(1.0, report.max_K)


def test_sweep_fiber_non_optimal_parameter():
    report = sweep_fiber(Hitchin.make(2, 0.01), grid=256)
    want = 0.01 * (1 - 0.04) / (1 + 0.01 + 0.04)
    assert abs(report.pinching - want) <= 1e-6 * want


def test_sweep_fiber_rejects_bad_parameters():
    with pytest.raises(hz.AdmissibilityError):
        sweep_fiber(Hitchin.make(2, 0.3), grid=16)
    with pytest.raises(ValueError):
        sweep_fiber(Hitchin.make(1, "1/3"), grid=1)


def test_sweep_fiber_deterministic():
    a = sweep_fiber(Hitchin.make(1, "1/3"), grid=64, seed=11)
    b = sweep_fiber(Hitchin.make(1, "1/3"), grid=64, seed=11)
    assert a == b


def test_sweep_profile_shape():
    report = sweep_fiber(Hitchin.make(1, "1/3"), grid=32)
    rows = list(report.csv_rows())
    assert rows[0] == ("t", "min_K_at_t", "max_K_at_t")
    assert len(rows) == 33
    assert rows[1][0] == 0.0 and rows[-1][0] == 1.0
    payload = report.to_json_dict(include_profile=True)
    assert len(payload["profile"]) == 32


def test_limit_state_extremizer_weights():
    for n in (1, 2):
        s_star = float(hz.optimal_s(n)[0])
        report = sweep_fiber(Hitchin.make(n, s_star), grid=128)
        assert report.argmin["t"] == 1.0
        a_inf = 2 * n / (2 * n + 1)
        b_inf = (1 + n) / (1 + 3 * n + 2 * n * n)
        assert abs(report.argmin["weights"][0] - a_inf) < 1e-3
        assert abs(report.argmin["weights"][1] - b_inf) < 1e-3
        assert report.argmax["weights"][0] < 1e-6


@pytest.mark.parametrize("n,s", [(1, "1/3"), (2, "1/10"), (2, "3/40")])
def test_refine_wins_and_limit_tie_lost(n, s, monkeypatch):
    # Lowering the t = 1 row to the extrema (c/2, c) of the weight quadratic
    # (c, 0, c), c = 0.99 gamma, moves both extrema off t = 1: the minimum into
    # the last grid cell, where the refine beats the grid, and the maximum to
    # the finite grid.
    cells = optimize._fiber_cells
    model = Hitchin.make(n, s)
    # K is continuous up to t = 1, so its unpatched value there is the
    # infimum of the refine's bracket.
    infimum = cells(model, np.array([1.0]))[0][0, 0]

    def lowered_limit(model, t):
        K, weights, residual, converged = cells(model, t)
        c = 0.99 * 4.0 / model.s
        K[t == 1.0] = (c / 2.0, c)
        return K, weights, residual, converged

    monkeypatch.setattr(optimize, "_fiber_cells", lowered_limit)
    for grid in (64, 512):
        report = sweep_fiber(model, grid=grid)
        ts = np.linspace(0.0, 1.0, grid)
        finite = report.profile[:-1]
        t = report.argmin["t"]
        assert 0.0 < t < 1.0 and np.min(np.abs(ts - t)) > 0.0
        assert report.min_K < min(row[1] for row in finite)
        assert abs(report.min_K - infimum) <= 1e-8 * infimum
        jet = model.fiber_jet(t)
        ex = extremize_direction(curvature_tensor(jet), jet.g)
        assert abs(report.min_K - ex.min_K) <= 1e-12 * ex.min_K
        # K = 4/s along the vertical direction at every t, so the maximum is a
        # plateau on which the refine may beat the grid by rounding alone.
        assert report.argmax["t"] < 1.0
        assert report.max_K >= max(row[2] for row in finite)
        assert abs(report.max_K - 4.0 / model.s) <= 1e-14 * 4.0 / model.s
        assert report.method["refine_iterations"] > 0
        assert report.converged


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fiber_sweep_exact_to_rounding_on_fine_grids(n):
    # A finer grid must not certify worse: the samples near t = 1 come from
    # the far chart, whose jets stay accurate up to t = 1 itself.
    s_star = hz.optimal_s(n)[0]
    model = Hitchin.make(n, s_star)
    lo, hi = (float(x) for x in hz.min_max_hsc(n, s_star))
    fine = sweep_fiber(model, grid=2048)
    # Both extrema tie with t = 1, where both extremal directions coexist.
    assert fine.argmin["t"] == fine.argmax["t"] == 1.0
    assert abs(fine.min_K - lo) <= 1e-14 * lo
    assert abs(fine.max_K - hi) <= 1e-14 * hi
    ts, k_min, k_max = np.array(sweep_fiber(model, grid=512).profile).T
    with np.errstate(divide="ignore"):
        want = extremize_quadratic(*hz.hsc_coefficients(n, float(s_star), ts / (1.0 - ts)))
    assert np.all(np.abs(k_min - want.min_K) <= 1e-13 * want.min_K)
    assert np.all(np.abs(k_max - want.max_K) <= 1e-13 * want.max_K)


def test_fiber_sweep_reads_no_closed_form(monkeypatch):
    models = [Hitchin.make(n, hz.optimal_s(n)[0]) for n in (1, 2, 3)]
    want = [sweep_fiber(model, grid=32) for model in models]

    def closed_form(*args, **kwargs):
        raise AssertionError("the numeric route read a closed form")

    # Every closed form, wherever it was imported; only the admissibility
    # check (and the input check it runs) stays.
    kept = {"require_admissible", "is_admissible", "_check_params"}
    modules = [m for name, m in sys.modules.items() if name.startswith("kahlerpinch")]
    for name, value in vars(hz).copy().items():
        if inspect.isfunction(value) and value.__module__ == hz.__name__ and name not in kept:
            for module in modules:
                if getattr(module, name, None) is value:
                    monkeypatch.setattr(module, name, closed_form)
    assert [sweep_fiber(model, grid=32) for model in models] == want


@pytest.mark.parametrize("model", [Hitchin.make(1, "1/3"), Hitchin.make(2, "1/10")])
def test_grid_2d_agreement(model):
    rep = grid_2d_verify(model, radii=(0.8, 2.0), angles=3, t_points=7)
    assert rep.agree
    assert rep.rel_min_diff <= 1e-3
    assert rep.rel_max_diff <= 1e-3
    # off-fiber samples never beat the fiber extrema
    assert rep.off_fiber_min >= rep.fiber_min * (1 - 1e-3)
    assert rep.off_fiber_max <= rep.fiber_max * (1 + 1e-3)


def test_grid_2d_constant_model():
    rep = grid_2d_verify(FubiniStudy(2), radii=(1.0, 2.0), angles=2, t_points=5)
    assert rep.agree
    assert abs(rep.grid_min - 4.0) < 1e-8
    assert abs(rep.grid_max - 4.0) < 1e-8


def test_sweep_s_brackets_optimum():
    res = sweep_s(1, points=999)
    assert abs(res.argmax_s - 1.0 / 3.0) <= res.cell_width
    assert res.unimodal
    assert abs(res.argmax_pinching - 1.0 / 9.0) < 1e-4
    rows = list(res.csv_rows())
    assert rows[0] == ("s", "pinching", "is_argmax")
    assert sum(r[2] for r in rows[1:]) == 1


def test_sweep_s_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_s(1, points=0)


def test_unconverged_flag_is_reported_not_silenced(monkeypatch):
    monkeypatch.setattr(optimize, "_RESIDUAL_TOL", 0.0)
    jet = Hitchin.make(1, "1/3").metric_jet([0.0, 0.5])
    ex = extremize_direction(curvature_tensor(jet), jet.g)
    assert not ex.converged
    assert abs(ex.max_K - 12.0) < 1e-8  # the answer is still reported


def _random_tangent_space(model, rng):
    jet = model.metric_jet(random_point(model, rng))
    return curvature_tensor(jet), jet.g


@pytest.mark.parametrize(
    "model",
    [
        FubiniStudy(1),
        Hitchin.make(1, "1/3"),
        Product(FubiniStudy(1), Hitchin.make(2, "1/10")),
        Product(Hitchin.make(1, "1/3"), Hitchin.make(3, "1/21")),
    ],
    ids=["m1", "m2", "m3", "m4"],
)
def test_batch_hsc_matches_pointwise_across_blocks(model, rng, monkeypatch):
    monkeypatch.setattr(optimize, "_HSC_BLOCK", 64)
    R, g = _random_tangent_space(model, rng)
    m = model.dimension
    xis = rng.standard_normal((150, m)) + 1j * rng.standard_normal((150, m))
    K = batch_hsc(R, g, xis)
    want = np.array([holomorphic_sectional_curvature(R, g, xi) for xi in xis])
    assert K.shape == (150,)
    assert np.all(np.abs(K - want) <= 1e-13 * np.abs(want))


def test_batch_hsc_rejects_imaginary_residue(rng):
    R, g = _random_tangent_space(Hitchin.make(1, "1/3"), rng)
    R = R.copy()
    R[0, 0, 0, 0] += 1j * np.abs(R).max()
    with pytest.raises(ValueError, match="imaginary residue"):
        batch_hsc(R, g, np.array([[1.0, 0.5j], [0.3, 1.0]]))


@pytest.mark.parametrize(
    "model",
    [
        FubiniStudy(1),
        Hitchin.make(1, "1/3"),
        Product(FubiniStudy(1), Hitchin.make(2, "1/10")),
        Product(Hitchin.make(1, "1/3"), Hitchin.make(3, "1/21")),
    ],
    ids=["m1", "m2", "m3", "m4"],
)
def test_stacked_batch_hsc_matches_tensor_by_tensor(model, rng, monkeypatch):
    monkeypatch.setattr(optimize, "_HSC_BLOCK", 64)
    m = model.dimension
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(5)]))
    R, g = curvature_tensor(jet), jet.g
    xis = rng.standard_normal((150, m)) + 1j * rng.standard_normal((150, m))
    K = batch_hsc(R, g, xis)
    assert K.shape == (5, 150)
    for p in range(5):
        assert np.all(np.abs(K[p] - batch_hsc(R[p], g[p], xis)) <= 1e-13 * np.abs(K[p]))
        want = np.array([holomorphic_sectional_curvature(R[p], g[p], xi) for xi in xis])
        assert np.all(np.abs(K[p] - want) <= 1e-13 * np.abs(want))
    # one metric broadcast against the stack of tensors
    assert np.array_equal(batch_hsc(R, g[0], xis)[0], K[0])


def test_stacked_batch_hsc_rejects_one_bad_tensor(rng):
    model = Hitchin.make(1, "1/3")
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(4)]))
    R = curvature_tensor(jet)
    batch_hsc(R, jet.g, np.array([[1.0, 0.5j], [0.3, 1.0]]))
    R[2, 0, 1, 1, 0] += 1e-6j * np.abs(R).max()
    with pytest.raises(ValueError, match="imaginary residue"):
        batch_hsc(R, jet.g, np.array([[1.0, 0.5j], [0.3, 1.0]]))


_GENERAL_MODELS = {
    "fs3": FubiniStudy(3),
    "fs1xfs2": Product(FubiniStudy(1), FubiniStudy(2)),
    "hitchin-1_3xfs1": Product(Hitchin.make(1, "1/3"), FubiniStudy(1)),
    "hitchin-2_10xfs2": Product(Hitchin.make(2, "1/10"), FubiniStudy(2)),
    "hitchin-1_3xhitchin-3_21": Product(Hitchin.make(1, "1/3"), Hitchin.make(3, "1/21")),
    "hitchin-6_78xfs1": Product(Hitchin.make(6, "1/78"), FubiniStudy(1)),
}


@pytest.mark.parametrize("name", list(_GENERAL_MODELS))
def test_general_extrema_bracket_dense_sample(name):
    model = _GENERAL_MODELS[name]
    m = model.dimension
    rng = np.random.default_rng(MASTER_SEED)
    for k in range(8):
        R, g = _random_tangent_space(model, rng)
        ex = extremize_direction(R, g, seed=k)
        raw = rng.standard_normal((20000, m)) + 1j * rng.standard_normal((20000, m))
        K = batch_hsc(R, g, raw @ orthonormal_frame(g).T)
        scale = max(1.0, abs(ex.min_K), abs(ex.max_K))
        assert ex.min_K <= K.min() + 1e-12 * scale
        assert ex.max_K >= K.max() - 1e-12 * scale
        assert ex.min_residual <= 1e-11 * max(1.0, abs(ex.min_K))
        assert ex.max_residual <= 1e-11 * max(1.0, abs(ex.max_K))
        assert ex.converged


_STACKED_MODELS = {**_GENERAL_MODELS, "fs2": FubiniStudy(2), "fs1": FubiniStudy(1)}


@pytest.mark.parametrize("name", list(_STACKED_MODELS))
def test_stacked_search_matches_row_by_row(name, monkeypatch):
    model = _STACKED_MODELS[name]
    rng = np.random.default_rng(MASTER_SEED)
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(6)]))
    R = curvature_tensor(jet)
    scored = []
    monkeypatch.setattr(optimize, "batch_hsc", lambda *a: scored.append(a) or batch_hsc(*a))
    ex = optimize.extremize_directions(R, jet.g, seed=3)
    assert len(scored) == (1 if model.dimension >= 3 else 0)  # one scoring of all starts
    monkeypatch.undo()
    for p in range(len(R)):
        one = extremize_direction(R[p], jet.g[p], seed=3)
        for value, residual in (("min_K", "min_residual"), ("max_K", "max_residual")):
            scale = max(1.0, abs(getattr(one, value)))
            assert abs(getattr(ex, value)[p] - getattr(one, value)) <= 1e-14 * scale
            assert abs(getattr(ex, residual)[p] - getattr(one, residual)) <= 1e-14 * scale
        assert ex.converged[p] == one.converged


@pytest.mark.parametrize("name", list(_GENERAL_MODELS))
def test_chart_hessian_matches_gradient_differences(name):
    model = _GENERAL_MODELS[name]
    m = model.dimension
    rng = np.random.default_rng(MASTER_SEED)
    h = 3e-4
    for k in range(4):
        R, g = _random_tangent_space(model, rng)
        F = np.roll(orthonormal_frame(g), -k, axis=1)  # chart c_k = 1 of the frame
        fun = optimize._chart_objective(optimize._frame_tensor(R, F), 1.0 if k % 2 else -1.0)
        x = rng.uniform(-1.0, 1.0, 2 * (m - 1))
        K, _, H = fun(x)
        fd = np.empty_like(H)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = h
            grad = [fun(x + j * e)[1] for j in (-2, -1, 1, 2)]
            # fourth-order central difference of the gradient
            fd[:, i] = (8.0 * (grad[2] - grad[1]) - (grad[3] - grad[0])) / (12.0 * h)
        # fs3 has constant K, so its Hessian is rounding noise; K sets the scale there.
        assert np.abs(H - fd).max() <= 1e-9 * max(abs(K), np.abs(H).max())


def test_newton_minimize_rosenbrock():
    def rosenbrock(x):
        a, b = x
        f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])
        H = np.array([[2.0 - 400.0 * b + 1200.0 * a * a, -400.0 * a], [-400.0 * a, 200.0]])
        return f, g, H

    res = optimize.minimize(rosenbrock, np.array([-1.2, 1.0]), gtol=1e-12)
    assert np.abs(res.x - 1.0).max() <= 1e-10
    assert res.fun <= 1e-20
    assert 1 < res.nfev < optimize._MAX_ITER


def test_general_extrema_repeat_for_a_seed(rng):
    R, g = _random_tangent_space(_GENERAL_MODELS["hitchin-2_10xfs2"], rng)
    a, b = (extremize_direction(R, g, seed=5) for _ in range(2))
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@pytest.mark.parametrize("s", ["1e-16", "1e-17"])
def test_tiny_parameter_is_not_converged(s, capsys):
    # K spans 4 .. 4/s, so the rounding of the S^2 quadratic swamps the minimum.
    assert main(["pinch", "--n", "1", "--grid", "64", "--s", s]) == 1
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["converged"] is False
    assert res["method"]["unconverged_cells"] > 0


@pytest.mark.parametrize("n", range(1, 7))
def test_rounding_floor_leaves_certified_reports_unchanged(n, capsys, monkeypatch):
    for s in (str(hz.optimal_s(n)[0]), f"3/{10 * n * n}"):
        argv = ["pinch", "--n", str(n), "--grid", "512", "--s", s]
        main(argv)
        with_floor = capsys.readouterr().out
        monkeypatch.setattr(optimize, "_ROUNDING_ULPS", 0.0)
        main(argv)
        monkeypatch.undo()
        assert capsys.readouterr().out == with_floor
        assert json.loads(with_floor)["results"]["method"]["unconverged_cells"] == 0
