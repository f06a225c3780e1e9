import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import kahlerpinch
from kahlerpinch import berger
from kahlerpinch import hirzebruch as hz
from kahlerpinch.berger import (
    BergerComparison,
    SphereSampleConfig,
    berger_vs_trace,
    default_points,
)
from kahlerpinch.models import FubiniStudy, Hitchin, Product
from kahlerpinch.optimize import _HSC_BLOCK, batch_hsc

from conftest import MASTER_SEED


def test_config_validation():
    with pytest.raises(ValueError):
        SphereSampleConfig(sample_count=0)
    # a standard error needs two independent values: draws, or antithetic pairs
    for count, antithetic in ((1, False), (2, True)):
        with pytest.raises(ValueError, match=f"at least {count + 1} samples, got {count}"):
            SphereSampleConfig(count, antithetic=antithetic)
    SphereSampleConfig(2)
    SphereSampleConfig(3, antithetic=True)


def test_consistent_reads_its_zmax():
    row = BergerComparison(point=[0j], estimate=10.4, stderr=0.1, trace_tau=10.0, zscore=4.0)
    assert not row.consistent(3.0)
    assert not row.consistent(4.0)
    assert row.consistent(5.0)
    # an estimate exact up to residue passes at any zmax, however small its error bar
    exact = BergerComparison(
        point=[0j], estimate=10.0 + 1e-12, stderr=1e-16, trace_tau=10.0, zscore=1e4
    )
    assert exact.consistent(3.0)


def test_fs_p1_scalar_estimate():
    est = berger_vs_trace(FubiniStudy(1), [[0.7]], SphereSampleConfig(20000, MASTER_SEED))[0]
    assert abs(est.estimate - 2.0) <= max(3.0 * est.stderr, 1e-9)
    # each point is an array of m coordinates, however many points there are
    for points in ([0.7], [0.7, 0.2]):
        with pytest.raises(ValueError, match="expected a point with 1 coordinates"):
            berger_vs_trace(FubiniStudy(1), points, SphereSampleConfig(10, MASTER_SEED))


def test_each_point_is_one_point():
    cfg = SphereSampleConfig(10, MASTER_SEED)
    with pytest.raises(ValueError, match=r"1 coordinates, got an array of shape \(2, 1\)"):
        berger_vs_trace(FubiniStudy(1), [[[0.3], [0.2]]], cfg)
    with pytest.raises(ValueError, match=r"2 coordinates, got an array of shape \(1, 2\)"):
        berger_vs_trace(FubiniStudy(2), [[0.1, 0.2], [[0.3, 0.4]]], cfg)


def test_fs_p2_scalar_estimate():
    est = berger_vs_trace(
        FubiniStudy(2), [[0.2, -0.4j]], SphereSampleConfig(50000, MASTER_SEED)
    )[0]
    assert abs(est.estimate - 6.0) <= max(3.0 * est.stderr, 1e-8)


def test_product_scalar_estimate():
    model = Product(FubiniStudy(1), FubiniStudy(1))
    est = berger_vs_trace(model, [[0.3, -0.2j]], SphereSampleConfig(50000, MASTER_SEED))[0]
    assert abs(est.estimate - 4.0) <= 3.0 * est.stderr
    assert est.stderr > 0.0


def test_hitchin_comparison_rows():
    model = Hitchin.make(1, Fraction(1, 3))
    bracket = tuple(float(x) for x in hz.scalar_bounds(1, Fraction(1, 3)))
    rows = berger_vs_trace(
        model,
        [model.fiber_point(r) for r in (0.0, 1.0, 9.0)],
        SphereSampleConfig(40000, MASTER_SEED),
        bracket=bracket,
    )
    assert bracket == (2.0, 18.0)
    for row in rows:
        assert row.consistent(3.0)
        assert row.within_bracket


def test_hitchin_n2_bracket():
    model = Hitchin.make(2, Fraction(1, 10))
    bracket = tuple(float(x) for x in hz.scalar_bounds(2, Fraction(1, 10)))
    assert bracket == (2.4, 60.0)
    rows = berger_vs_trace(
        model,
        [model.fiber_point(r) for r in (0.0, 2.0)],
        SphereSampleConfig(40000, MASTER_SEED),
        bracket=bracket,
    )
    assert all(r.within_bracket and r.consistent(3.0) for r in rows)


def test_random_points_agree_with_trace_for_all_models():
    from conftest import builtin_models, random_point

    rng = np.random.default_rng(MASTER_SEED)
    cfg = SphereSampleConfig(100_000, MASTER_SEED)
    for model in builtin_models():
        points = [random_point(model, rng) for _ in range(10)]
        rows = berger_vs_trace(model, points, cfg)
        assert all(row.consistent(3.0) for row in rows)


def test_seeded_reproducibility():
    model = Hitchin.make(1, "1/3")
    cfg = SphereSampleConfig(5000, 1234)
    a = berger_vs_trace(model, [model.fiber_point(1.0)], cfg)[0]
    b = berger_vs_trace(model, [model.fiber_point(1.0)], cfg)[0]
    assert a == b
    c = berger_vs_trace(model, [model.fiber_point(1.0)], SphereSampleConfig(5000, 1235))[0]
    assert a.estimate != c.estimate


def test_antithetic_variant_unbiased_and_deterministic():
    model = Hitchin.make(1, "1/3")
    cfg = SphereSampleConfig(40000, MASTER_SEED, antithetic=True)
    a = berger_vs_trace(model, [model.fiber_point(1.0)], cfg)[0]
    b = berger_vs_trace(model, [model.fiber_point(1.0)], cfg)[0]
    assert a == b
    from kahlerpinch.geometry import curvature_tensor, scalar_curvature

    jet = model.metric_jet(model.fiber_point(1.0))
    tau = scalar_curvature(curvature_tensor(jet), jet.g)
    assert abs(a.estimate - tau) <= 3.0 * a.stderr


def test_comparison_evaluates_all_jets_once_and_matches_pointwise(monkeypatch):
    model = Hitchin.make(2, Fraction(1, 10))
    points = [model.fiber_point(r) for r in (0.0, 2.0)] + [np.array([0.3 - 0.2j, 0.5j])]
    cfg = SphereSampleConfig(4000, MASTER_SEED)
    single = [berger_vs_trace(model, [z], cfg)[0] for z in points]
    jet_calls = []
    metric_jet = Hitchin.metric_jet
    monkeypatch.setattr(
        Hitchin, "metric_jet", lambda self, z: jet_calls.append(z) or metric_jet(self, z)
    )
    rows = berger_vs_trace(model, points, cfg)
    assert len(jet_calls) == 1
    for row, est in zip(rows, single):
        assert row.estimate == pytest.approx(est.estimate, rel=1e-13)
        assert abs(row.stderr - est.stderr) <= 1e-13 * abs(est.estimate)


def _hsc_at(R, g, c):
    """K at the direction F c, F the orthonormal frame of g."""
    from kahlerpinch.geometry import holomorphic_sectional_curvature, orthonormal_frame

    return holomorphic_sectional_curvature(R, g, orthonormal_frame(g) @ c)


@pytest.mark.parametrize("count", [5, 6, 7])
def test_antithetic_pairs_each_draw_with_its_mirror(count, monkeypatch):
    from kahlerpinch.geometry import curvature_tensor

    model, z, seed = Product(FubiniStudy(1), Hitchin.make(2, "1/10")), [0.3j, -0.4, 0.2 + 0.5j], 11
    jet = model.metric_jet(z)
    R, m = curvature_tensor(jet), model.dimension
    rng = np.random.default_rng(seed)
    half = (count + 1) // 2
    draws = rng.standard_normal((half, m)) + 1j * rng.standard_normal((half, m))
    scale = 0.25 * m * (m + 1)
    units = [
        0.5 * scale * (_hsc_at(R, jet.g, c) + _hsc_at(R, jet.g, c[::-1]))
        for c in draws[: count // 2]
    ]
    if count % 2:
        units.append(scale * _hsc_at(R, jet.g, draws[-1]))  # its mirror is not in the sample
    scored = []
    score = berger._HSCScorer.__call__
    monkeypatch.setattr(
        berger._HSCScorer,
        "__call__",
        lambda self, re, im: scored.append(re.T + 1j * im.T) or score(self, re, im),
    )
    est = berger_vs_trace(model, [z], SphereSampleConfig(count, seed, antithetic=True))[0]
    assert est.estimate == pytest.approx(np.mean(units), rel=1e-13)
    assert est.stderr == pytest.approx(np.std(units, ddof=1) / np.sqrt(len(units)), rel=1e-12)
    # one block: the draws, then the mirrors of the paired draws, their coordinates reversed
    assert len(scored) == 1
    assert np.array_equal(scored[0], np.concatenate([draws, draws[: count // 2, ::-1]]))


# Estimates of the earlier per-point path (normalise, frame push and complex
# GEMM) at seed 7301 with 20000 samples; they pin the random stream.
_GOLDEN_POINTS = {
    "product:fs2:fs2": [
        [0.3 - 0.2j, -0.5 + 0.1j, 0.25j, 0.7],
        [-0.8 + 0.4j, 0.1, -0.3 - 0.6j, 0.45 + 0.05j],
    ],
    "fs3": [[0.3 - 0.2j, -0.5 + 0.1j, 0.25j], [-0.8 + 0.4j, 0.1, -0.3 - 0.6j]],
    "hitchin:2:1/10": [[0.3 - 0.2j, -0.5 + 0.1j], [-0.8 + 0.4j, 0.6 - 0.3j]],
}
_GOLDEN_ESTIMATES = {
    "product:fs2:fs2": [11.997670080333561, 11.997670080333563],
    "fs3": [12.0, 11.999999999999995],
    "hitchin:2:1/10": [23.961591919098613, 24.260059960866823],
}


@pytest.mark.parametrize("name", list(_GOLDEN_POINTS))
def test_monte_carlo_stream_is_pinned(name):
    from kahlerpinch.cli import _parse_model

    model = _parse_model(name)
    points = [np.array(z) for z in _GOLDEN_POINTS[name]]
    cfg = SphereSampleConfig(20000, 7301)
    rows = berger_vs_trace(model, points, cfg)
    for row, want in zip(rows, _GOLDEN_ESTIMATES[name]):
        assert row.estimate == pytest.approx(want, rel=1e-14)
    # one shared draw and a stacked trace: every row is bit for bit the one-point row
    for row, z in zip(rows, points):
        assert row == berger_vs_trace(model, [z], cfg)[0]


def _old_sphere_values(R, g, rows):
    """The earlier per-sample path: normalise, push through the frame, complex GEMM."""
    from kahlerpinch.geometry import orthonormal_frame

    m = g.shape[-1]
    xis = rows / np.linalg.norm(rows, axis=1)[:, None] @ orthonormal_frame(g).T
    P = (xis[:, :, None] * xis.conj()[:, None, :]).reshape(len(xis), m * m)
    num = 2.0 * np.einsum("bi,bi->b", P @ R.reshape(m * m, m * m), P)
    return 0.25 * m * (m + 1) * num.real / (P @ g.reshape(m * m)).real ** 2


@pytest.mark.parametrize(
    "model",
    [Hitchin.make(1, "1e-12"), Product(Hitchin.make(2, "1e-12"), FubiniStudy(1))],
    ids=["hitchin-1-1e-12", "hitchin-2-1e-12xfs1"],
)
def test_frame_coordinates_match_normalise_and_push(model):
    from conftest import random_point
    from kahlerpinch.geometry import curvature_tensor

    rng = np.random.default_rng(MASTER_SEED)
    points = [random_point(model, rng) for _ in range(3)] + [np.zeros(model.dimension)]
    cfg = SphereSampleConfig(4000, MASTER_SEED)
    rows = berger_vs_trace(model, points, cfg)
    m = model.dimension
    for row, z in zip(rows, points):
        jet = model.metric_jet(z)
        draw = np.random.default_rng(cfg.seed)
        shape = (cfg.sample_count, m)
        raw = draw.standard_normal(shape) + 1j * draw.standard_normal(shape)
        values = _old_sphere_values(curvature_tensor(jet), jet.g, raw)
        assert row.estimate == pytest.approx(np.mean(values), rel=1e-13)
        want_sem = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(row.stderr - want_sem) <= 1e-13 * abs(row.estimate)


def _one_thread_rows(model, points, cfg):
    """(estimate, stderr) per point on one thread: one complex row array, reals then imaginaries."""
    from kahlerpinch.geometry import _stack_last, curvature_tensor, orthonormal_frame
    from kahlerpinch.optimize import _frame_tensor

    m, count = model.dimension, cfg.sample_count
    half = (count + 1) // 2 if cfg.antithetic else count
    rng = np.random.default_rng(cfg.seed)
    rows = np.empty((count, m), dtype=complex)
    rows.real[:half] = rng.standard_normal((half, m))
    rows.imag[:half] = rng.standard_normal((half, m))
    rows[half:] = rows[: count - half, ::-1]
    jet = model.metric_jet(np.array(points))
    Rhat = _frame_tensor(curvature_tensor(jet), _stack_last(orthonormal_frame(jet.g), 2))
    values = batch_hsc(Rhat, np.eye(m), rows)
    values *= 0.25 * m * (m + 1)
    if cfg.antithetic:
        pairs = count // 2
        mean_pairs = 0.5 * (values[:, :pairs] + values[:, count - pairs :])
        values = np.concatenate([mean_pairs, values[:, pairs : count - pairs]], axis=1)
    n = values.shape[1]
    sems = np.std(values, axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(values))
    return list(zip(np.mean(values, axis=1).tolist(), sems.tolist()))


@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
@pytest.mark.parametrize("name", ["fs1", "hitchin:2:1/10", "product:fs2:fs2"])
def test_overlapped_draw_matches_one_thread_bit_for_bit(name, antithetic):
    # counts on both sides of a block edge, and antithetic blocks that hold
    # draws and mirrors together; 3 is the least count of an antithetic run
    from kahlerpinch.cli import _parse_model

    model = _parse_model(name)
    rng = np.random.default_rng(MASTER_SEED)
    m = model.dimension
    points = [rng.uniform(-0.8, 0.8, m) + 1j * rng.uniform(-0.8, 0.8, m) for _ in range(3)]
    for count in (3, 4, _HSC_BLOCK - 1, _HSC_BLOCK, _HSC_BLOCK + 1, 20001, 3 * _HSC_BLOCK + 5):
        cfg = SphereSampleConfig(count, 29, antithetic)
        for k in (1, 2, 3):
            rows = berger_vs_trace(model, points[:k], cfg)
            got = [(row.estimate, row.stderr) for row in rows]
            assert got == _one_thread_rows(model, points[:k], cfg), (count, k)


class _HookedGenerator:
    """A seeded Generator whose ``standard_normal`` runs ``hook`` before its call number ``at``."""

    def __init__(self, seed, at, hook):
        self.rng = np.random.Generator(np.random.PCG64(seed))  # default_rng is patched
        self.calls, self.at, self.hook = 0, at, hook

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.at:
            self.hook()
        return self.rng.standard_normal(*args, **kwargs)


_BLOCKS_CFG = SphereSampleConfig(3 * _HSC_BLOCK + 5)


@pytest.mark.parametrize("at", [1, 2, 3], ids=["real-parts", "first-block", "second-block"])
def test_draw_failure_is_raised_in_the_caller(at, monkeypatch):
    error = RuntimeError("draw failed")

    def fail():
        raise error

    monkeypatch.setattr(berger.np.random, "default_rng", lambda s: _HookedGenerator(s, at, fail))
    with pytest.raises(RuntimeError) as raised:
        berger_vs_trace(FubiniStudy(2), [[0.1, 0.2j]], _BLOCKS_CFG)
    assert raised.value is error


@pytest.mark.parametrize(
    "owner, patched",
    [(berger, "_frame_tensor"), (berger._HSCScorer, "__call__")],
    ids=["before-scoring", "scoring"],
)
def test_caller_failure_stops_and_joins_the_draw(owner, patched, monkeypatch):
    # The draw runs on the caller's thread, so a failure there ends it and
    # reaches the caller of berger_vs_trace.
    def fail(*args):
        raise KeyError(patched)

    monkeypatch.setattr(owner, patched, fail)
    with pytest.raises(KeyError, match=patched):
        berger_vs_trace(FubiniStudy(2), [[0.1, 0.2j]], _BLOCKS_CFG)


def test_sphere_average_starts_no_thread(monkeypatch):
    # plain and antithetic runs of more than one block, on two points
    def no_thread(*args, **kwargs):
        raise AssertionError("the sphere average started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    model = Product(FubiniStudy(1), FubiniStudy(1))
    points = [[0.3, -0.2j], [0.1 + 0.4j, 0.5]]
    for antithetic in (False, True):
        cfg = SphereSampleConfig(3 * _HSC_BLOCK + 5, 11, antithetic)
        rows = berger_vs_trace(model, points, cfg)
        assert [(row.estimate, row.stderr) for row in rows] == _one_thread_rows(model, points, cfg)


def test_impossible_sample_count_is_a_memory_error():
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="sample buffers"):
        berger_vs_trace(FubiniStudy(2), [[0.1, 0.2j]], SphereSampleConfig(2**62))
    assert threading.active_count() == threads


def test_sphere_average_streams_the_imaginary_parts():
    # All real parts of two points' 1e5 draws take 3.2 MB, and so would all
    # imaginary parts; the call holds one block of them at a time.
    model = Product(FubiniStudy(2), FubiniStudy(2))
    points, cfg = default_points(model), SphereSampleConfig(100_000, MASTER_SEED)
    assert len(points) == 2
    berger_vs_trace(model, points, cfg)
    tracemalloc.start()
    try:
        berger_vs_trace(model, points, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_bits_do_not_depend_on_the_blas_thread_count():
    # Each run ends in a product past OpenBLAS's small-matrix kernel whose
    # width is no multiple of 8: fs5 in a block of 2002-2005 draws, the
    # antithetic runs in 2050 (fs4) and 2051 (fs5) draws with their mirrors.
    # The packed kernel rounds such last columns by the thread count.
    script = (
        "from kahlerpinch.cli import main\n"
        "runs = [('fs5', count, []) for count in (22482, 22483, 22484, 22485)]\n"
        "runs += [('fs4', 4099, ['--antithetic']), ('fs5', 4101, ['--antithetic'])]\n"
        "for model, count, extra in runs:\n"
        "    main(['berger', '--model', model, '--samples', str(count), '--seed', '7'] + extra)\n"
    )
    src = os.path.dirname(os.path.dirname(kahlerpinch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count('"command": "berger"') == 6
    assert outputs[0] == outputs[1]
