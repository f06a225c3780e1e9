"""Command-line front end: verification runs, sweeps, and JSON/CSV reports.

Exit codes: 0 when every check passes, 1 when a verification fails, 2 on
usage or parameter errors.  JSON reports carry a top-level schema version so
downstream regression tooling can pin the layout.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import hirzebruch
from .berger import SphereSampleConfig, berger_vs_trace, default_points
from .geometry import DegenerateMetricError, _ResidueError, _ricci, _scalar_curvature, _stack_first
from .geometry import check_symmetries, curvature_tensor
from .models import FubiniStudy, Hitchin, MetricModel, Product, model_from_json, model_to_json
from .optimize import _extremize_directions, _sweep_radii, sweep_fiber, sweep_s
from .products import ProductHypothesisError, verify_product_numeric

SCHEMA_VERSION = 1


class UsageError(ValueError):
    """Bad parameter or model descriptor supplied on the command line."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose own errors are usage errors, reported like any other.

    Subparsers take the class of their parent, so one override covers every
    subcommand.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _at_least(low: int):
    """argparse type of an integer option that must be >= ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # read by argparse for its "invalid int value" message
    return parse


def _parse_s(text: str):
    """Family parameter: exact fraction 'p/q' or a decimal literal."""
    try:
        if "/" in text:
            return Fraction(text)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse s value {text!r}") from exc


def _parse_model(text: str) -> MetricModel:
    """Model shorthand: fs<m>, hitchin:<n>:<s>, product:<a>:<b>, or JSON.

    A product splits at the first colon that leaves two parseable factors.
    """
    text = text.strip()
    if text.startswith("product:"):
        parts = text.split(":")[1:]
        for i in range(1, len(parts)):
            try:
                left = _parse_model(":".join(parts[:i]))
                return Product(left, _parse_model(":".join(parts[i:])))
            except UsageError:
                continue
        raise UsageError(f"cannot parse model {text!r}")
    try:
        if text.startswith("{"):
            return model_from_json(json.loads(text))
        if text.startswith("fs"):
            return FubiniStudy(int(text[2:]))
        if text.startswith("hitchin:"):
            if text.count(":") != 2:
                raise ValueError("expected hitchin:<n>:<s>")
            _, n, s = text.split(":")
            return Hitchin.make(int(n), _parse_s(s))
    except ValueError as exc:  # json.JSONDecodeError included
        raise UsageError(f"cannot parse model {text!r}: {exc}") from exc
    raise UsageError(f"unknown model {text!r}")


def _parse_point(text: str, model: MetricModel) -> np.ndarray:
    """Chart point of ``model`` with finite coordinates; :func:`_named_points` checks its metric."""
    try:
        coords = [complex(part.strip().replace(" ", "")) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse point {text!r}") from exc
    if len(coords) != model.dimension:
        raise UsageError(
            f"point has {len(coords)} coordinates, model needs {model.dimension}"
        )
    z = np.array(coords, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise UsageError(f"point {text!r} has a non-finite coordinate")
    return z


@contextlib.contextmanager
def _named_points(texts, points):
    """A degenerate metric at row i of a stack of points as a usage error naming it.

    ``texts`` are the points as given on the command line, or None for a
    command's default ``points``, which are named by their coordinates.  A
    curvature that is not real at row i, lost to cancellation far out in
    the chart (``_ResidueError``), is reported the same way.
    """
    try:
        yield
    except (DegenerateMetricError, _ResidueError) as exc:
        default = ",".join(format(c, "g") for c in points[exc.row])
        name = f"point {texts[exc.row]!r}" if texts else f"default point {default!r}"
        raise UsageError(f"{name} is out of numerical range: {exc}") from exc


@contextlib.contextmanager
def _sized(option: str, value: int):
    """Arrays sized by ``option`` that cannot be allocated, as a usage error naming it.

    numpy refuses a size past any address space with a plain ``ValueError``
    ("array is too big", "Maximum allowed size exceeded") before allocating;
    the package's own errors subclass ``ValueError`` and pass through.
    """
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if not isinstance(exc, MemoryError) and type(exc) is not ValueError:
            raise
        raise UsageError(f"{option} {value} is too large: {exc}") from exc


def _sample_config(args, antithetic: bool = False) -> SphereSampleConfig:
    """The Monte Carlo configuration of ``--samples`` and ``--seed``; a refused count names ``--samples``."""
    try:
        return SphereSampleConfig(sample_count=args.samples, seed=args.seed, antithetic=antithetic)
    except ValueError as exc:
        raise UsageError(f"--samples {args.samples}: {exc}") from exc


def _model_option(option: str, text: str) -> MetricModel:
    """Model ``text`` of ``option``, a usage error naming both if one point's jet is too large."""
    model = _parse_model(text)
    with _sized(option, text):  # the m^4 entries of one point's ddg, allocated untouched
        np.empty((model.dimension,) * 4, dtype=complex)
    return model


def _c2j(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _rel_err(value: float, target: float) -> float:
    return abs(value - target) / max(abs(target), 1e-300)


def _envelope(command: str, params: dict, results: dict, passed: bool) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "pass": bool(passed),
    }


def _emit(payload: dict, rows, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows is None:
            rows = [("key", "value"), *payload["results"].items()]
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _hitchin_from_args(args) -> Hitchin:
    """Hitchin model of --n and --s, s* without --s; an s* out of range is blamed on --n."""
    given = getattr(args, "s", None)
    s = _parse_s(given) if given is not None else hirzebruch.optimal_s(args.n)[0]
    try:
        model = Hitchin.make(args.n, s)
    except ValueError as exc:
        if given is None:
            raise UsageError(f"--n {args.n} has s* = {float(s):.6g}: {exc}") from exc
        raise UsageError(f"bad family parameter {given!r}: {exc}") from exc
    hirzebruch.require_admissible(model.n, s)
    return model


def cmd_pinch(args):
    model = _hitchin_from_args(args)
    with _sized("--grid", args.grid):
        report = sweep_fiber(model, grid=args.grid, seed=args.seed)
    ana_min, ana_max = (float(x) for x in hirzebruch.min_max_hsc(model.n, model.s))
    ana_pinch = float(hirzebruch.pinching(model.n, model.s))
    rel = {
        "min_K": _rel_err(report.min_K, ana_min),
        "max_K": _rel_err(report.max_K, ana_max),
        "pinching": _rel_err(report.pinching, ana_pinch),
    }
    checks = {
        "min_K": rel["min_K"] <= 1e-10,
        "max_K": rel["max_K"] <= 1e-10,
        "pinching": rel["pinching"] <= args.tol,
    }
    results = report.to_json_dict()
    results.update(
        is_hodge=model.is_hodge,
        analytic={"min_K": ana_min, "max_K": ana_max, "pinching": ana_pinch},
        rel_err=rel,
        checks=checks,
    )
    params = {
        "n": model.n,
        "s": model_to_json(model)["s"],
        "grid": args.grid,
        "tol": args.tol,
        "seed": args.seed,
    }
    passed = all(checks.values())
    return _envelope("pinch", params, results, passed), report.csv_rows(), passed


def cmd_sweep_s(args):
    s_star = float(_hitchin_from_args(args).s)  # pinch's range rule for s*
    with _sized("--points", args.points):
        result = sweep_s(args.n, points=args.points)
    within = abs(result.argmax_s - s_star) <= result.cell_width
    results = {
        "argmax_s": result.argmax_s,
        "argmax_pinching": result.argmax_pinching,
        "analytic_s_star": s_star,
        "cell_width": result.cell_width,
        "within_one_cell": within,
        "unimodal": result.unimodal,
    }
    params = {"n": args.n, "points": args.points}
    passed = within and result.unimodal
    return _envelope("sweep-s", params, results, passed), result.csv_rows(), passed


def cmd_berger(args):
    model = _model_option("--model", args.model)
    cfg = _sample_config(args, args.antithetic)
    if args.point:
        points = [_parse_point(p, model) for p in args.point]
    else:
        points = default_points(model)
    bracket = None
    if isinstance(model, Hitchin):
        bracket = tuple(float(x) for x in hirzebruch.scalar_bounds(model.n, model.s))
    with _sized("--samples", args.samples), _named_points(args.point, points):
        rows = berger_vs_trace(model, points, cfg, bracket=bracket)
    passed = all(r.consistent(args.zmax) and r.within_bracket is not False for r in rows)
    results = {
        "bracket": list(bracket) if bracket else None,
        "rows": [
            {
                "point": [_c2j(c) for c in r.point],
                "estimate": r.estimate,
                "stderr": r.stderr,
                "trace_tau": r.trace_tau,
                "zscore": r.zscore if math.isfinite(r.zscore) else None,
                "within_bracket": r.within_bracket,
            }
            for r in rows
        ],
    }
    params = {
        "model": model_to_json(model),
        "samples": args.samples,
        "seed": args.seed,
        "antithetic": args.antithetic,
        "zmax": args.zmax,
    }

    def csv_rows():
        yield ("point", "estimate", "stderr", "trace_tau", "zscore")
        for r in rows:
            point = ";".join(str(c) for c in r.point)
            yield (point, r.estimate, r.stderr, r.trace_tau, r.zscore)

    return _envelope("berger", params, results, passed), csv_rows(), passed


def cmd_product(args):
    left = _model_option("--left", args.left)
    right = _model_option("--right", args.right)
    try:
        with _sized("--samples", args.samples):
            report = verify_product_numeric(
                left, right, samples=args.samples, tol=args.tol, seed=args.seed
            )
    except DegenerateMetricError as exc:
        raise UsageError(f"a factor is out of numerical range at a sample point: {exc}") from exc
    results = dataclasses.asdict(report)
    params = {
        "left": model_to_json(left),
        "right": model_to_json(right),
        "samples": args.samples,
        "tol": args.tol,
        "seed": args.seed,
    }
    return _envelope("product", params, results, report.agree), None, report.agree


def cmd_curvature(args):
    model = _model_option("--model", args.model)
    m = model.dimension
    z = _parse_point(args.point, model) if args.point is not None else np.zeros(m, dtype=complex)
    with _named_points(args.point and [args.point], [z]):
        jet = model.metric_jet(z)  # checked here, so the cores below take it unchecked
        R, ginv = curvature_tensor(jet), _stack_first(jet._factors.inverse, ())
        scalar = _scalar_curvature(R, ginv)
        ex = _extremize_directions(R[None], jet.g[None], jet._factors.frame, args.seed)
    ric = _ricci(R, ginv)
    sym = check_symmetries(R, jet)
    components = [
        {"i": i, "j": j, "k": k, "l": l, "value": _c2j(R[i, j, k, l])}
        for i, j, k, l in np.ndindex(R.shape)
        if abs(R[i, j, k, l]) > 1e-12
    ]
    results = {
        "g": [[_c2j(v) for v in row] for row in jet.g],
        "curvature_components": components,
        "ricci_eigenvalues": [float(v) for v in np.linalg.eigvalsh(ric)],
        "scalar_curvature": scalar,
        "hsc_min": ex.min_K[0],
        "hsc_max": ex.max_K[0],
        "max_symmetry_violation": sym.max_violation,
    }
    params = {
        "model": model_to_json(model),
        "point": [_c2j(c) for c in z],
        "seed": args.seed,
    }

    def csv_rows():
        yield ("key", "value")
        for key in ("scalar_curvature", "hsc_min", "hsc_max"):
            yield (key, results[key])
        for idx, val in enumerate(results["ricci_eigenvalues"]):
            yield (f"ricci_eigenvalue_{idx}", val)

    passed = bool(ex.converged[0]) and sym.max_violation < 1e-10
    return _envelope("curvature", params, results, passed), csv_rows(), passed


def _verify_row(n: int, args, cfg: SphereSampleConfig) -> dict:
    s_star, p_star = hirzebruch.optimal_s(n)
    model = Hitchin.make(n, s_star)
    with _sized("--grid", args.grid):
        report = sweep_fiber(model, grid=args.grid, seed=args.seed)
    rel_pinch = _rel_err(report.pinching, float(p_star))

    bounds = hirzebruch.case_bounds(n, s_star)
    chain = bounds.chain
    chain_ok = bounds.strictly_decreasing if n >= 2 else all(
        x >= y for x, y in zip(chain, chain[1:])
    )

    bracket = tuple(float(x) for x in hirzebruch.scalar_bounds(n, s_star))
    with _sized("--samples", args.samples):
        rows = berger_vs_trace(model, default_points(model), cfg, bracket=bracket)
    max_z = max(abs(r.zscore) for r in rows)
    berger_ok = all(r.consistent(args.zmax) for r in rows)
    bracket_ok = all(r.within_bracket for r in rows)

    a_inf, b_inf = (float(w) for w in hirzebruch.stationary_weights(n, s_star, math.inf))
    wmin = report.argmin["weights"]
    weights_ok = (
        report.argmin["t"] == 1.0
        and abs(wmin[0] - a_inf) <= 1e-10
        and abs(wmin[1] - b_inf) <= 1e-10
        and report.argmax["weights"][0] <= 1e-10
    )

    min_eig = float(np.min(hirzebruch.ricci_fiber_eigenvalues(n, float(s_star), _sweep_radii())))
    ricci_ok = (min_eig <= 0.0) if n >= 2 else (min_eig > 0.0)

    passed = (
        rel_pinch <= args.tol
        and chain_ok
        and berger_ok
        and bracket_ok
        and weights_ok
        and ricci_ok
    )
    return {
        "n": n,
        "s_star": str(s_star),
        "analytic_pinching": float(p_star),
        "numeric_pinching": report.pinching,
        "rel_pinch_err": rel_pinch,
        "chain_ok": bool(chain_ok),
        "berger_max_abs_z": max_z if math.isfinite(max_z) else None,
        "berger_ok": bool(berger_ok),
        "scalar_bracket_ok": bool(bracket_ok),
        "limit_weights_ok": bool(weights_ok),
        "min_ricci_eigenvalue": float(min_eig),
        "ricci_sign_ok": bool(ricci_ok),
        "pass": bool(passed),
    }


def cmd_verify(args):
    cfg = _sample_config(args)
    rows = [_verify_row(n, args, cfg) for n in range(1, args.n_max + 1)]
    passed = all(row["pass"] for row in rows)
    params = {
        "n_max": args.n_max,
        "grid": args.grid,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "zmax": args.zmax,
    }
    csv_rows = [tuple(rows[0]), *(tuple(row.values()) for row in rows)]  # one key order
    return _envelope("verify", params, {"rows": rows}, passed), csv_rows, passed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process at its first use.

    Parsing leaves the parser unchanged, so one instance serves every call
    of :func:`main`.
    """
    parser = _Parser(
        prog="kahlerpinch",
        description="Curvature pinching certification for built-in Kahler metric models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=_at_least(0), default=0)

    p = sub.add_parser("pinch", help="sweep one Hirzebruch family member and certify")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--s", default=None, help="family parameter, decimal or p/q (default optimal)")
    p.add_argument("--grid", type=_at_least(2), default=512)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)

    p = sub.add_parser("sweep-s", help="scan the family parameter for the best pinching")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--points", type=_at_least(1), default=999)
    common(p)

    p = sub.add_parser("verify", help="run the full verification table for n = 1..n_max")
    p.add_argument("--n-max", type=_at_least(1), default=3)
    p.add_argument("--grid", type=_at_least(2), default=256)
    p.add_argument("--samples", type=_at_least(1), default=20000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--zmax", type=float, default=3.0)
    common(p)

    p = sub.add_parser("berger", help="Monte Carlo scalar-curvature comparison")
    p.add_argument("--model", required=True, help="fs<m> | hitchin:<n>:<s> | product:a:b | JSON")
    p.add_argument("--samples", type=_at_least(1), default=100000)
    p.add_argument("--zmax", type=float, default=3.0)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--point", action="append", default=None, help="chart point, e.g. '0.3+0.1j,0.5'")
    common(p)

    p = sub.add_parser("product", help="verify the product pinching formula numerically")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--samples", type=_at_least(1), default=3)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)

    p = sub.add_parser("curvature", help="curvature quantities of a model at a point")
    p.add_argument("--model", required=True)
    p.add_argument("--point", default=None)
    common(p)

    return parser


_DISPATCH = {
    "pinch": cmd_pinch,
    "sweep-s": cmd_sweep_s,
    "verify": cmd_verify,
    "berger": cmd_berger,
    "product": cmd_product,
    "curvature": cmd_curvature,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in ("tol", "zmax"):
            value = getattr(args, name, None)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise UsageError(f"--{name} must be finite and > 0, got {value}")
        # Overflow in a degenerate input surfaces as the error below, not as warnings.
        with np.errstate(all="ignore"):
            payload, rows, passed = _DISPATCH[args.command](args)
        _emit(payload, rows if args.format == "csv" else None, args)
    except (UsageError, hirzebruch.AdmissibilityError, ProductHypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
