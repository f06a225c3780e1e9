"""Stacked kernels: stack invariance to the bit, and the Newton solve, candidates and pick of the S^2 solve."""
from dataclasses import fields

import numpy as np
import pytest

from kahlerpinch import optimize, sphere
from kahlerpinch.geometry import (
    MetricJet,
    _Factors,
    _require_positive_definite,
    _stack_first,
    _stack_last,
    curvature_tensor,
    hsc_gradient,
    norm_squared,
    orthonormal_frame,
)
from kahlerpinch.models import FubiniStudy, Hitchin, KernelJet, Product, log_jet
from kahlerpinch.optimize import (
    DirectionExtrema,
    _bloch_quadratic,
    _extremize_directions,
    _extremize_surfaces,
    _frame_tensor,
    extremize_directions,
)

from conftest import MASTER_SEED, random_point

ROWS = 128
# Rows checked alone; each is also checked inside a stack of 3 with two others.
CHECKED = (0, 37, 64, 127)


def _stack_cases():
    hitchin = Hitchin.make(3, "1/21")
    return [
        pytest.param(FubiniStudy(1), None, id="fs1"),
        pytest.param(hitchin, "fiber", id="hitchin-fiber"),
        pytest.param(FubiniStudy(2), None, id="fs2"),
        pytest.param(Product(Hitchin.make(1, "1/3"), FubiniStudy(1)), None, id="hitchin-1xfs1"),
        pytest.param(Product(FubiniStudy(2), Hitchin.make(2, "1/10")), None, id="fs2xhitchin-2"),
    ]


def _points(model):
    rng = np.random.default_rng(MASTER_SEED)
    return np.array([random_point(model, rng, radius=1.5) for _ in range(ROWS)])


def _assert_stack_invariant(kernel, arrays):
    """``kernel`` of one row gives the bits of that row in stacks of 3, of ROWS and of (16, 8).

    ``arrays`` are the kernel's inputs, each with the leading stack axis of
    length ROWS; ``kernel`` returns a tuple of arrays with the inputs' stack axes.
    """
    full = kernel(*arrays)
    grid = kernel(*(a.reshape((16, ROWS // 16) + a.shape[1:]) for a in arrays))
    for i in CHECKED:
        three = [i, (i + 1) % ROWS, (i + 77) % ROWS]
        alone = kernel(*(a[i] for a in arrays))
        stacked = kernel(*(a[three] for a in arrays))
        for k, one in enumerate(alone):
            for other in (stacked[k][0], full[k][i], grid[k][divmod(i, ROWS // 16)]):
                assert np.array_equal(one, other), (k, i)


def _jet_arrays(model, kind):
    if kind == "fiber":
        jet = model.fiber_jet(np.linspace(0.0, 1.0, ROWS))
    else:
        jet = model.metric_jet(_points(model))
    return jet.g, jet.dg, jet.ddg


@pytest.mark.parametrize("model, kind", _stack_cases())
def test_curvature_and_frame_tensor_are_stack_invariant(model, kind):
    g, dg, ddg = _jet_arrays(model, kind)
    _assert_stack_invariant(lambda *a: (curvature_tensor(MetricJet(*a)),), (g, dg, ddg))
    R, F = curvature_tensor(MetricJet(g, dg, ddg)), orthonormal_frame(g)
    # the kernels take the frame as it is carried, stack last
    _assert_stack_invariant(lambda R, F: (_frame_tensor(R, _stack_last(F, 2)),), (R, F))
    if model.dimension == 2:
        _assert_stack_invariant(lambda R, F: _bloch_quadratic(R, _stack_last(F, 2)), (R, F))


# Pauli basis with sigma_0 = I: a unit c in C^2 has c c* = (I + v.sigma)/2, |v| = 1.
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# 1/2 sigma_m (x) sigma_n as a (16, 16) matrix, rows ab cd, columns mn: the
# reference that optimize's Bloch tables and _bloch_quadratic are checked against.
_BLOCH = 0.5 * np.einsum("mab,ncd->abcdmn", _PAULI, _PAULI).reshape(16, 16)


def test_bloch_tables_hold_the_nonzero_entries_of_bloch():
    for q, column in enumerate(_BLOCH.T):
        rows = np.flatnonzero(column)
        c = column[rows]
        assert list(optimize._BLOCH_ROWS[:, q]) == list(rows)
        assert list(optimize._BLOCH_PART[:, q]) == list((c.real == 0.0).astype(int))
        # Re(x c) is c x.re for a real c and -c.imag x.im for an imaginary one
        assert np.array_equal(optimize._BLOCH_SIGN[:, q] / 2.0, np.where(c.real == 0.0, -c.imag, c.real))


@pytest.mark.parametrize("model, kind", [case for case in _stack_cases() if case.values[0].dimension == 2])
def test_bloch_quadratic_has_the_bits_of_the_contraction_with_bloch(model, kind):
    g, dg, ddg = _jet_arrays(model, kind)
    R, F = curvature_tensor(MetricJet(g, dg, ddg)), _stack_last(orthonormal_frame(g), 2)
    M = np.einsum("...p,pq->...q", _frame_tensor(R, F).reshape(-1, 16), _BLOCH).real
    M = M.reshape(-1, 4, 4)
    M = 0.5 * (M + M.swapaxes(-1, -2))
    for got, want in zip(_bloch_quadratic(R, F), (M[:, 1:, 1:], 2.0 * M[:, 0, 1:], M[:, 0, 0])):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _log_jet_cases():
    fs = [pytest.param(FubiniStudy(m), "kernel", "off", id=str(m)) for m in (1, 2, 3, 4)]
    hitchin = Hitchin.make(3, "1/21")
    return fs + [
        pytest.param(hitchin, kernel, where, id=f"hitchin-{kernel.split('_')[0]}-{where}")
        for kernel in ("base_kernel", "fiber_kernel", "far_kernel")
        for where in ("fiber", "off")
    ]


@pytest.mark.parametrize("model, kernel, where", _log_jet_cases())
def test_log_jet_is_stack_invariant(model, kernel, where):
    """Rows of z1 = 0 ("fiber", the points of both charts of fiber_jet) or random points."""
    points = model.fiber_point(np.linspace(0.0, 3.0, ROWS)) if where == "fiber" else _points(model)
    kernel = getattr(model, kernel)(points)
    names = [f.name for f in fields(KernelJet)]

    def jet(*parts):
        out = log_jet(KernelJet(**dict(zip(names, parts))))
        arrays = out.g, out.dg, out.ddg
        # The layout the downstream kernels are pinned on.
        assert all(a.flags.c_contiguous for a in arrays)
        return arrays

    _assert_stack_invariant(jet, tuple(np.asarray(getattr(kernel, name)) for name in names))


def _kkt_points_54(A, b):
    """The earlier candidate set: all six completions for each of the 9 multipliers."""
    lam, Q = np.linalg.eigh(A)
    beta = np.einsum("...ji,...j->...i", Q, b) / 2.0
    H = np.zeros(A.shape[:-2] + (6, 6))
    H[..., :3, :3] = H[..., 3:, 3:] = A
    H[..., :3, 3:] = -np.eye(3)
    H[..., 3:, :3] = -(b[..., :, None] * b[..., None, :]) / 4.0
    mu = np.concatenate([np.linalg.eigvals(H).real, lam], axis=-1)
    gap = lam[..., None, :] - mu[..., :, None]
    scale = np.maximum(1.0, np.maximum(np.abs(lam).max(axis=-1), np.abs(beta).max(axis=-1)))
    singular = np.abs(gap) <= 1e-12 * scale[..., None, None]
    w = -beta[..., None, :] / np.where(singular, np.inf, gap)
    fill = np.sqrt(np.maximum(0.0, 1.0 - np.sum(w * w, axis=-1)))
    W = np.concatenate(
        [
            w + sign * np.where(singular[..., j], fill, 0.0)[..., None] * np.eye(3)[j]
            for j in range(3)
            for sign in (1.0, -1.0)
        ],
        axis=-2,
    )
    norm = np.linalg.norm(W, axis=-1)
    valid = norm > 0.0
    W /= np.where(valid, norm, 1.0)[..., None]
    return W @ Q.swapaxes(-1, -2), valid


def _sphere_problem(kind, seed):
    """(A, b, c0) of K = v.A v + b.v + c0 on S^2, from a random eigenbasis Q."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    coords = np.zeros(3)  # b in the eigenbasis
    if kind == "double":
        # A double eigenvalue with b orthogonal to its eigenspace, small enough
        # for the hard case: |w_3| = |b_3|/(2 |lam - mu|) < 0.9.
        lam = rng.uniform(-5.0, 5.0)
        mu = lam + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0)
        eig = np.array([lam, lam, mu])
        coords[2] = rng.uniform(-1.8, 1.8) * abs(mu - lam)
    elif kind == "constant":
        eig = np.full(3, rng.uniform(-5.0, 5.0))
    elif kind in ("near-hard", "hard", "graded"):
        # Distinct eigenvalues; b is about 1e-13 along the lowest or the highest
        # (near-hard), exactly 0 there with the hard case's |w| < 1 elsewhere
        # (hard), or 10^-1 .. 10^-13 there with |w| near 1 elsewhere, where the
        # multiplier climbs away from the pole for up to about 15 Newton steps
        # (graded).  A hard problem is diagonal in a signed permutation of the
        # axes, so that eigh returns its eigenbasis, and b's zero, exactly.
        eig = np.sort(rng.uniform(-5.0, 5.0, 3)) + np.array([-1.0, 0.0, 1.0])
        j = rng.choice([0, 2])
        coords = rng.uniform(-0.5, 0.5, 3) * np.abs(eig - eig[j])
        coords[j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * 1e-13
        if kind == "hard":
            Q, coords[j] = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3), 0.0
        elif kind == "graded":
            coords *= rng.choice([-1.0, 1.0], 3) * rng.uniform(1.0, 6.0, 3)
            coords[j] = rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 13.0)
    else:
        eig = rng.uniform(-5.0, 5.0, 3)
        coords = rng.uniform(-5.0, 5.0, 3)
    A = Q @ np.diag(eig) @ Q.T
    return 0.5 * (A + A.T), Q @ coords, rng.uniform(-5.0, 5.0)


def _sphere_problems(kinds, rows):
    """Row i of a stack of ``rows`` sphere problems has the kind kinds[i % len(kinds)] and seed i."""
    problems = [_sphere_problem(kinds[i % len(kinds)], i) for i in range(rows)]
    return tuple(np.array(x) for x in zip(*problems))


def _extrema(A, b, c0, V, valid):
    K = np.einsum("...ki,...ij,...kj->...k", V, A, V) + np.einsum("...ki,...i->...k", V, b) + c0[:, None]
    return np.where(valid, K, np.inf).min(axis=-1), np.where(valid, K, -np.inf).max(axis=-1)


def _kkt_residual(A, b, V):
    """|A v + b/2 - (v.A v + b.v/2) v| at the points V (3, 2P) of the minima, then the maxima, of P problems."""
    A, b, V = np.concatenate([A, A]), np.concatenate([b, b]), V.T
    VA = np.einsum("pi,pij->pj", V, A)
    quad, Vb = np.einsum("pj,pj->p", VA, V), np.einsum("pi,pi->p", V, b)
    return np.linalg.norm(VA + b / 2.0 - (quad + Vb / 2.0)[:, None] * V, axis=-1)


@pytest.mark.parametrize("kind", ["double", "constant", "near-hard", "generic", "hard"])
def test_sphere_candidates_hold_the_extrema(kind):
    """The two candidates of each extremum hold it: the 54 candidates find it no better.

    Every extremum is a point of the sphere, stationary, within 1e-14 of the
    54-candidate reference, and no worse than 10 000 sampled directions.
    """
    P = 2000
    A, b, c0 = _sphere_problems([kind], P)
    V, K, _ = sphere._sphere_extrema(A, b, c0)
    assert V.shape == (3, 2 * P) and K.shape == (2 * P,)
    # A unit w mapped through the computed eigenbasis: 1e-15 on seeds 0..199 of
    # each extremum, 2e-15 on the rest, where the 15 candidates' own points of
    # the generic kind reach 1.2e-15.
    first = np.r_[:200, P : P + 200]
    off = np.abs(np.linalg.norm(V, axis=0) - 1.0)
    assert np.all(off[first] <= 1e-15)
    assert np.all(off <= 2e-15)
    lo_54, hi_54 = _extrema(A, b, c0, *_kkt_points_54(A, b))
    want = np.concatenate([lo_54, hi_54])
    assert np.all(np.abs(K - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    scale = np.maximum(1.0, np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(b).max(axis=1)))
    assert np.all(_kkt_residual(A, b, V) <= 1e-13 * np.concatenate([scale, scale]))

    lo, hi = K[:P], K[P:]
    sample = np.random.default_rng(MASTER_SEED).standard_normal((10_000, 3))
    sample /= np.linalg.norm(sample, axis=-1, keepdims=True)
    for p in range(200):
        K = np.einsum("si,ij,sj->s", sample, A[p], sample) + sample @ b[p] + c0[p]
        scale = max(1.0, float(np.abs(K).max()))
        assert K.min() >= lo[p] - 1e-12 * scale
        assert K.max() <= hi[p] + 1e-12 * scale


def _exact_sphere_extrema(A, b, c0, mp):
    """Min and max of v.A v + b.v + c0 on S^2 at 50 digits, from the root in t of the secular equation.

    In the eigenbasis of A, from ``mp.eigsy``, the minimum's point is w_j =
    -beta_j/(gap_j + t), beta = Q^T b/2 and gap_j = lam_j - lam_1, at the root
    t > 0 of |w(t)| = 1; the maximum is the minimum of -A, -b.  A graded
    problem has beta_1 != 0, so the root exists.
    """
    with mp.workdps(50):
        A, b = mp.matrix(A.tolist()), mp.matrix(b.tolist())
        lam, Q = mp.eigsy(A)
        beta = (Q.T * b) / 2
        extrema = []
        for sign, pole in ((1, 0), (-1, 2)):
            gap = [sign * (lam[j] - lam[pole]) for j in range(3)]
            bj = [sign * beta[j] for j in range(3)]
            # Newton on 1/|w(t)| = 1 from t = |beta|, right of the root, kept above
            # max_j (|beta_j| - gap_j), left of it: a concave increasing function
            floor, t = max(abs(x) - g for x, g in zip(bj, gap)), mp.sqrt(mp.fsum(x * x for x in bj))
            for _ in range(200):
                w = [x / (g + t) for x, g in zip(bj, gap)]
                s2, q = mp.fsum(x * x for x in w), mp.fsum(x * x / (g + t) for x, g in zip(w, gap))
                t, t_last = max(t + s2 * (mp.sqrt(s2) - 1) / q, floor), t
                if abs(t - t_last) <= mp.mpf(10) ** -45 * t:
                    break
            else:
                raise AssertionError("the secular equation's Newton iteration did not converge")
            v = Q * mp.matrix([-x / (g + t) for x, g in zip(bj, gap)])
            extrema.append((v.T * A * v)[0] + (b.T * v)[0] + c0)
        return [float(K) for K in extrema]


def test_sphere_extrema_are_stationary_near_the_hard_case():
    """b of 10^-1 .. 10^-13 along the pole: every extremum is stationary and exact to rounding.

    The multiplier's root then lies about as far below the pole as b there is
    small.  The 54-candidate reference, whose multipliers come from a 6 x 6
    eigenproblem and a 1e-12 gap rule, is up to 1.6e-11 worse there, so it
    bounds the solve from one side only; the first 200 problems are also
    compared two-sided with the exact extrema at 50 digits
    (:func:`_exact_sphere_extrema`), and each extremum's duality gap bounds
    its distance from the exact one, in the direction it can err.
    """
    mp = pytest.importorskip("mpmath")
    P, exact = 2000, 200
    A, b, c0 = _sphere_problems(["graded"], P)
    V, K, gap = sphere._sphere_extrema(A, b, c0)
    scale = np.maximum(1.0, np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(b).max(axis=1)))
    assert np.all(_kkt_residual(A, b, V) <= 1e-13 * np.concatenate([scale, scale]))
    lo_54, hi_54 = _extrema(A, b, c0, *_kkt_points_54(A, b))
    assert np.all(K[:P] <= lo_54 + 1e-14 * np.maximum(1.0, np.abs(lo_54)))
    assert np.all(K[P:] >= hi_54 - 1e-14 * np.maximum(1.0, np.abs(hi_54)))
    want = np.array([_exact_sphere_extrema(A[p], b[p], float(c0[p]), mp) for p in range(exact)])
    got = np.stack([K[:exact], K[P : P + exact]], axis=1)
    assert np.all(np.abs(got - want) <= 1e-14 * scale[:exact, None])
    # a minimum lies above the exact one by at most its gap, a maximum below it
    gaps = np.stack([gap[:exact], gap[P : P + exact]], axis=1)
    assert np.all((got - want) * [1.0, -1.0] <= gaps + 1e-14 * scale[:exact, None])


@pytest.mark.parametrize(
    "model",
    [Product(FubiniStudy(1), FubiniStudy(1)), Hitchin.make(1, "1/3")],
    ids=["fs1xfs1", "hitchin-1"],
)
def test_sphere_extrema_do_not_depend_on_candidate_order(model, monkeypatch):
    """Swapping the two candidates of every extremum keeps every value to the bit.

    Both poles of a rounding-sized b are exact KKT points with K a few ulps
    apart, and near the hard case the root's w and the completion are one
    point to rounding; the pick must not leave the value to the candidates'
    order.  A point may then move in its last bits, only where the two
    candidates tie exactly in value and in stationarity.
    """
    rng = np.random.default_rng(MASTER_SEED)
    jet = model.metric_jet(np.array([random_point(model, rng) for _ in range(4000)]))
    R = curvature_tensor(jet)
    want = extremize_directions(R, jet.g)
    pick, ties = sphere._pick, []

    def swapped(V, K, kkt, valid):
        x = K * np.array([1.0, -1.0])[:, None]
        tie = np.abs(x[1] - x[0]) <= 1e-12 * np.maximum(1.0, np.abs(K).max(axis=0))
        ties.append((tie.sum(), (K[0] == K[1]) & (kkt[0] == kkt[1])))
        return pick(V[:, ::-1], K[::-1], kkt[::-1], valid[::-1])

    monkeypatch.setattr(sphere, "_pick", swapped)
    got = extremize_directions(R, jet.g)
    (tied, exact), = ties
    assert tied > 1000  # the rows that the tie rule decides
    assert np.array_equal(got.min_K, want.min_K)
    assert np.array_equal(got.max_K, want.max_K)
    for name, col in (("argmin", 0), ("argmax", 1)):
        moved = np.any(getattr(got, name) != getattr(want, name), axis=-1)
        assert not np.any(moved & ~exact[col]), name


def _surface_stacks():
    rng = np.random.default_rng(MASTER_SEED)
    cases = []
    for n in range(1, 7):
        model = Hitchin.make(n, float(rng.uniform(0.05, 0.95)) / (n * n))
        cases.append(pytest.param(model, "fiber", id=f"hitchin-{n}-fiber"))
        cases.append(pytest.param(model, "off", id=f"hitchin-{n}-off"))
    cases.append(pytest.param(FubiniStudy(2), "off", id="fs2"))
    cases.append(pytest.param(Product(FubiniStudy(1), FubiniStudy(1)), "off", id="fs1xfs1"))
    return cases


@pytest.mark.parametrize("model, kind", _surface_stacks())
def test_surface_solve_rows_do_not_depend_on_the_stack(model, kind):
    """Every row of a 256-row S^2 solve has the bits it gets in stacks of 1, 2 and 16.

    16 is the stack of one zoom round, 256 that of a sweep block.  The fiber
    rows hold t = 0, 1/2 and 1.
    """
    if kind == "fiber":
        jet = model.fiber_jet(np.append(np.linspace(0.0, 1.0, 255), 0.5))
    else:
        rng = np.random.default_rng(MASTER_SEED)
        jet = model.metric_jet(np.array([random_point(model, rng, radius=1.5) for _ in range(256)]))
    R, g, F = curvature_tensor(jet), jet.g, jet._factors.frame

    names = [f.name for f in fields(DirectionExtrema)] + ["v_min", "v_max"]

    def solve(rows):
        ex = _extremize_directions(R[rows], g[rows], F[..., rows], 0)
        v_min, v_max = _extremize_surfaces(R[rows], F[..., rows])[1].transpose(1, 2, 0)
        return [getattr(ex, name) for name in names[:-2]] + [v_min, v_max]

    full = solve(slice(None))
    for size in (1, 2, 16):
        for start in range(0, 256, size):
            part = solve(slice(start, start + size))
            for name, whole, got in zip(names, full, part):
                assert np.array_equal(whole[start : start + size], got), (size, start, name)


_SPHERE_KINDS = ["double", "constant", "near-hard", "generic", "hard", "graded"]


def test_sphere_solve_rows_do_not_depend_on_the_steps_of_their_neighbours(monkeypatch):
    """Every row of a 256-row S^2 solve has the bits it gets in stacks of 1, 2 and 16.

    The stack interleaves every kind of sphere problem, so rows whose Newton
    iteration stops at once, after one step and after a dozen share it; a
    stopped row is frozen while the others go on.
    """
    A, b, c0 = _sphere_problems(_SPHERE_KINDS, 256)
    V, K, gap = sphere._sphere_extrema(A, b, c0)
    for size in (1, 2, 16):
        for start in range(0, 256, size):
            rows = slice(start, start + size)
            v, k, d = sphere._sphere_extrema(A[rows], b[rows], c0[rows])
            assert np.array_equal(v, V.reshape(3, 2, 256)[:, :, rows].reshape(3, -1)), (size, start)
            assert np.array_equal(k, K.reshape(2, 256)[:, rows].reshape(-1)), (size, start)
            assert np.array_equal(d, gap.reshape(2, 256)[:, rows].reshape(-1)), (size, start)
    # the stack mixes rows that one step settles with rows that 8 do not
    monkeypatch.setattr(sphere, "_NEWTON_STEPS", 1)
    assert np.any(sphere._sphere_extrema(A, b, c0)[1] == K)
    monkeypatch.setattr(sphere, "_NEWTON_STEPS", 8)
    assert np.any(sphere._sphere_extrema(A, b, c0)[1] != K)


def _random_surface_curvature(rows, rng):
    """Random Kaehler curvature tensors R_{i jbar k lbar} of dimension 2, and definite metrics.

    R is symmetric in i, k and in j, l, and conj(R_{i jbar k lbar}) =
    R_{j ibar l kbar}; its Bloch quadratics are generic, unlike those of the
    package's surfaces, which all have a double eigenvalue.
    """
    T = rng.standard_normal((rows, 2, 2, 2, 2)) + 1j * rng.standard_normal((rows, 2, 2, 2, 2))
    S = T + T.transpose(0, 3, 2, 1, 4)
    S = S + S.transpose(0, 1, 4, 3, 2)
    A = rng.standard_normal((rows, 2, 2)) + 1j * rng.standard_normal((rows, 2, 2))
    return S + S.conj().transpose(0, 2, 1, 4, 3), A @ A.conj().swapaxes(-1, -2) + 0.2 * np.eye(2)


def test_newton_cap_keeps_the_flags_honest(monkeypatch):
    """Cut short, the S^2 solve reports points of the sphere and flags every extremum it misses.

    On 256 random surface curvature tensors no reported minimum lies below
    the true minimum, nor a maximum above the true maximum.  Cut at one
    Newton step, every extremum far from the true one comes back
    unconverged; cut at 2, 3 and 5 steps, every extremum more than 1e-12
    relative off does too, which the stationarity check of 1e-4 let through
    (up to 2.6e-8 off) and the duality gap does not.
    """
    R, g = _random_surface_curvature(256, np.random.default_rng(MASTER_SEED))
    F = _require_positive_definite(g).frame
    want, _, certified = _extremize_surfaces(R, F)
    assert certified.all()
    scale = np.maximum(1.0, np.abs(want))
    for cap, off_by in ((1, 1e-6), (2, 1e-12), (3, 1e-12), (5, 1e-12)):
        monkeypatch.setattr(sphere, "_NEWTON_STEPS", cap)
        got, _, converged = _extremize_surfaces(R, F)
        error = (got - want) * [[1.0], [-1.0]]  # the minima, then the maxima
        assert np.all(error >= -1e-14 * scale), cap
        off = np.any(error > off_by * scale, axis=0)
        assert off.sum() >= (100 if cap == 1 else 10), cap
        assert not converged[off].any(), cap


def _curvature_einsum(jet):
    """R with its quadratic term D g^-1 D^H as one einsum over the leading axes: the reference.

    It takes the inverse that the jet carries, stack first.
    """
    ginv = _stack_first(jet._factors.inverse, jet.g.shape[:-2])
    D = jet.dg.swapaxes(-1, -2).reshape(jet.ddg.shape[:-4] + (-1, jet.dimension))
    quad = np.einsum("...pq,...ap,...bq->...ab", ginv, D, D.conj()).reshape(jet.ddg.shape)
    return -jet.ddg + quad.swapaxes(-3, -2)


def _curvature_models():
    fs = [pytest.param(FubiniStudy(m), id=f"fs{m}") for m in (1, 2, 3, 4)]
    h1, h2, h3 = Hitchin.make(1, "1/3"), Hitchin.make(2, "1/10"), Hitchin.make(3, "1/21")
    pairs = [
        (FubiniStudy(1), FubiniStudy(1), "fs1xfs1"),
        (FubiniStudy(2), h2, "fs2xhitchin-2"),
        (h1, FubiniStudy(1), "hitchin-1xfs1"),
        (h1, h1, "hitchin-1xhitchin-1"),
    ]
    return (
        fs
        + [pytest.param(h1, id="hitchin-1"), pytest.param(h3, id="hitchin-3")]
        + [pytest.param(Product(left, right), id=name) for left, right, name in pairs]
    )


def _same_bytes(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("model", _curvature_models())
def test_curvature_keeps_the_bits_of_the_einsum_over_leading_axes(model):
    """A 300-point stack, each of its rows as a one-row stack and as a point, and a fiber stack."""
    rng = np.random.default_rng(MASTER_SEED)
    jet = model.metric_jet(np.array([random_point(model, rng, radius=1.5) for _ in range(300)]))
    assert _same_bytes(curvature_tensor(jet), _curvature_einsum(jet))
    for i in range(300):
        for row, rows in ((slice(i, i + 1), slice(i, i + 1)), (i, [i])):
            factors = _Factors(*(a[..., rows] for a in jet._factors))
            one = MetricJet(jet.g[row], jet.dg[row], jet.ddg[row], factors)
            assert _same_bytes(curvature_tensor(one), _curvature_einsum(one)), (i, row)
    if isinstance(model, Hitchin):
        fiber = model.fiber_jet(np.linspace(0.0, 1.0, 256))
        assert _same_bytes(curvature_tensor(fiber), _curvature_einsum(fiber))


def _gradient_einsum(R, g, xi):
    """dK/dconj(xi) with N and dN as einsums over the leading axes: the reference."""
    S = norm_squared(g, xi)[..., None]
    N = np.einsum("...ijkl,...i,...j,...k,...l->...", R, xi, xi.conj(), xi, xi.conj())
    dN = 2.0 * np.einsum("...ijkl,...i,...k,...l->...j", R, xi, xi, xi.conj())
    dS = np.einsum("...ij,...i->...j", g, xi)
    return 2.0 * dN / S**2 - 4.0 * N.real[..., None] * dS / S**3


def _gradient_scale(R, g, xi):
    """The reference's two terms summed over absolute values, the largest per row: its rounding scale."""
    S = norm_squared(g, xi)[..., None]
    a = np.abs(xi)
    N = np.einsum("...ijkl,...i,...j,...k,...l->...", np.abs(R), a, a, a, a)
    dN = np.einsum("...ijkl,...i,...k,...l->...j", np.abs(R), a, a, a)
    dS = np.einsum("...ij,...i->...j", np.abs(g), a)
    return np.max(4.0 * dN / S**2 + 4.0 * N[..., None] * dS / S**3, axis=-1)


def _random_gradient_stack(m, rows, rng):
    """Definite metrics, Hermitian curvature forms R_{i jbar k lbar} and directions."""
    A = rng.standard_normal((rows, m, m)) + 1j * rng.standard_normal((rows, m, m))
    g = A @ A.conj().swapaxes(-1, -2) + 0.1 * m * np.eye(m)
    B = rng.standard_normal((rows, m * m, m * m)) + 1j * rng.standard_normal((rows, m * m, m * m))
    R = (B @ B.conj().swapaxes(-1, -2)).reshape((rows,) + (m,) * 4).transpose(0, 1, 3, 2, 4)
    R = 0.5 * (R + R.transpose(0, 3, 2, 1, 4))
    xi = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    return R, g, xi


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hsc_gradient_rows_do_not_depend_on_the_stack(m):
    """Each row of a 256-row stack has the bits it gets alone, as a one-row stack and in stacks of 2 and 16."""
    R, g, xi = _random_gradient_stack(m, 256, np.random.default_rng(MASTER_SEED + m))
    full = hsc_gradient(R, g, xi)
    for size in (1, 2, 16):
        for start in range(0, 256, size):
            rows = slice(start, start + size)
            assert np.array_equal(hsc_gradient(R[rows], g[rows], xi[rows]), full[rows]), (size, start)
    for i in range(256):
        assert np.array_equal(hsc_gradient(R[i], g[i], xi[i]), full[i]), i
    # R and g broadcast over a leading axis of xi, as over the minima and maxima of a search.
    both = hsc_gradient(R, g, np.stack([xi, xi[::-1]]))
    assert np.array_equal(both[0], full)
    assert np.array_equal(both[1], hsc_gradient(R, g, xi[::-1]))

    eps = np.finfo(float).eps
    err = np.max(np.abs(full - _gradient_einsum(R, g, xi)), axis=-1)
    assert np.all(err <= 8.0 * eps * _gradient_scale(R, g, xi))
