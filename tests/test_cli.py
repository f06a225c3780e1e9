import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kahlerpinch
from kahlerpinch import geometry, models, optimize
from kahlerpinch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None


def test_pinch_default_parameter(capsys):
    code, doc = run_json(capsys, "pinch", "--n", "1", "--grid", "64")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["command"] == "pinch"
    assert doc["pass"] is True
    assert doc["params"]["s"] == "1/3"
    assert doc["results"]["is_hodge"] is True
    assert abs(doc["results"]["pinching"] - 1.0 / 9.0) < 1e-6
    assert doc["results"]["checks"] == {"min_K": True, "max_K": True, "pinching": True}


def test_pinch_rational_parameter_is_hodge(capsys):
    code, doc = run_json(capsys, "pinch", "--n", "2", "--s", "1/10", "--grid", "64")
    assert code == 0
    assert doc["results"]["is_hodge"] is True
    assert abs(doc["results"]["pinching"] - 1.0 / 25.0) < 1e-6


def test_pinch_decimal_parameter_not_hodge(capsys):
    code, doc = run_json(capsys, "pinch", "--n", "2", "--s", "0.1", "--grid", "32")
    assert code == 0
    assert doc["results"]["is_hodge"] is False


def test_pinch_inadmissible_parameter_is_usage_error(capsys):
    code = main(["pinch", "--n", "2", "--s", "0.3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "positivity violated" in err


def test_pinch_csv_profile(capsys):
    code, out = run_cli(capsys, "pinch", "--n", "1", "--grid", "16", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "min_K_at_t", "max_K_at_t"]
    assert len(rows) == 17
    # dot-decimal, locale-free floats
    for row in rows[1:]:
        for cell in row:
            float(cell)


def test_json_round_trip(capsys):
    code, out = run_cli(capsys, "pinch", "--n", "1", "--grid", "16")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_sweep_s_command(capsys):
    code, doc = run_json(capsys, "sweep-s", "--n", "2", "--points", "99")
    assert code == 0
    assert doc["results"]["within_one_cell"] is True
    assert doc["results"]["unimodal"] is True
    assert abs(doc["results"]["argmax_s"] - 0.1) <= doc["results"]["cell_width"]


def test_sweep_s_csv(capsys):
    code, out = run_cli(capsys, "sweep-s", "--n", "1", "--points", "49", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s", "pinching", "is_argmax"]
    assert len(rows) == 50
    assert sum(int(r[2]) for r in rows[1:]) == 1


def test_berger_command(capsys):
    code, doc = run_json(
        capsys, "berger", "--model", "fs1", "--samples", "20000", "--seed", "7"
    )
    assert code == 0
    for row in doc["results"]["rows"]:
        assert abs(row["estimate"] - 2.0) < 1e-6


def test_berger_csv_header(capsys):
    code, out = run_cli(
        capsys,
        "berger",
        "--model",
        "hitchin:1:1/3",
        "--samples",
        "5000",
        "--format",
        "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["point", "estimate", "stderr", "trace_tau", "zscore"]
    assert len(rows) > 1


def test_berger_custom_point(capsys):
    code, doc = run_json(
        capsys,
        "berger",
        "--model",
        "fs2",
        "--samples",
        "20000",
        "--point",
        "0.2,-0.4j",
    )
    assert code == 0
    assert len(doc["results"]["rows"]) == 1
    assert abs(doc["results"]["rows"][0]["trace_tau"] - 6.0) < 1e-10


def test_product_command(capsys):
    code, doc = run_json(capsys, "product", "--left", "fs1", "--right", "fs1")
    assert code == 0
    res = doc["results"]
    assert abs(res["pinching"] - 0.5) < 1e-6
    assert abs(res["y_star"] - 0.5) < 1e-9
    assert res["agree"] is True


def test_product_results_keys(capsys):
    # the report's fields, in the key order of the JSON results and the CSV rows
    keys = ["min_K", "max_K", "pinching", "c_left", "c_right", "k", "y_star", "expected_lower",
            "expected_upper", "expected_pinching", "rel_min_err", "rel_max_err", "tol", "agree"]
    code, doc = run_json(capsys, "product", "--left", "fs1", "--right", "fs2", "--samples", "1")
    assert code == 0 and list(doc["results"]) == keys
    code, out = run_cli(capsys, "product", "--left", "fs1", "--right", "fs2", "--samples", "1",
                        "--format", "csv")
    assert code == 0 and [row[0] for row in csv.reader(io.StringIO(out))] == ["key", *keys]


def test_product_mismatched_bound_is_usage_error(capsys):
    code = main(["product", "--left", "hitchin:1:1/3", "--right", "fs1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "common bound k violated" in err


def test_curvature_command(capsys):
    code, doc = run_json(
        capsys, "curvature", "--model", "hitchin:1:1/3", "--point", "0,0"
    )
    assert code == 0
    res = doc["results"]
    assert abs(res["scalar_curvature"] - 9.0) < 1e-10
    assert abs(res["hsc_min"] - 3.0) < 1e-8
    assert abs(res["hsc_max"] - 12.0) < 1e-8
    assert res["max_symmetry_violation"] < 1e-10


def test_verify_command_passes(capsys):
    code, doc = run_json(
        capsys, "verify", "--n-max", "1", "--grid", "96", "--samples", "5000"
    )
    assert code == 0
    assert doc["pass"] is True
    row = doc["results"]["rows"][0]
    assert row["chain_ok"] and row["scalar_bracket_ok"] and row["ricci_sign_ok"]


def test_verify_table_first_three(capsys):
    code, doc = run_json(
        capsys, "verify", "--n-max", "3", "--grid", "128", "--samples", "5000"
    )
    assert code == 0
    rows = doc["results"]["rows"]
    assert [row["pass"] for row in rows] == [True, True, True]
    want = [1.0 / 9.0, 1.0 / 25.0, 1.0 / 49.0]
    for row, target in zip(rows, want):
        assert abs(row["numeric_pinching"] - target) <= 1e-6 * target


def test_verify_corrupted_tolerance_fails(capsys):
    code, doc = run_json(
        capsys,
        "verify",
        "--n-max",
        "1",
        "--grid",
        "64",
        "--samples",
        "5000",
        "--zmax",
        "1e-15",
    )
    assert code == 1
    assert doc["pass"] is False


@pytest.mark.parametrize(
    "argv,code",
    [
        (["berger", "--model", "fs1", "--samples", "0"], 2),
        (["pinch", "--n", "1", "--s", "0"], 2),
        (["pinch", "--n", "1", "--s", "nan"], 2),
        (["curvature", "--model", "fs2", "--point", "nan,0"], 2),
        (["curvature", "--model", "hitchin:1:1/3", "--point", "0,1e200"], 2),
        (["curvature", "--model", "product:hitchin:1:1/3:fs1"], 0),
        (["verify", "--n-max", "1", "--samples", "0"], 2),
        (["verify", "--n-max", "1", "--grid", "1"], 2),
        (["product", "--left", "fs1", "--right", "fs1", "--samples", "-1"], 2),
        (["product", "--left", "fs1", "--right", "fs1", "--samples", "0"], 2),
        (["product", "--left", "hitchin:9:1/3", "--right", "fs1"], 2),
        (["pinch", "--n", "1", "--s", "1e-300"], 2),
        (["berger", "--model", "fs1", "--seed", "-1"], 2),
        (["pinch", "--n", "1", "--tol", "nan"], 2),
        (["pinch", "--n", "1", "--tol", "-1"], 2),
        (["pinch", "--n", "1", "--tol", "0"], 2),
        (["product", "--left", "fs1", "--right", "fs1", "--tol", "inf"], 2),
        (["verify", "--n-max", "1", "--tol=-inf"], 2),
        (["verify", "--n-max", "1", "--zmax", "nan"], 2),
        (["berger", "--model", "fs1", "--zmax", "0"], 2),
        (["berger", "--model", "fs1", "--zmax", "inf"], 2),
        (["pinch", "--n", "x"], 2),
        (["pinch", "--bogus"], 2),
        (["pinch", "--n", "1", "--bogus"], 2),
        (["verify", "--n-max", "1", "--tol", "-inf"], 2),
        # a kernel power past the float range is inf, not an OverflowError
        (["curvature", "--model", "fs1", "--point", "1e50"], 2),
        (["berger", "--model", "fs1", "--point=1e50", "--samples", "10"], 2),
        (["curvature", "--model", "hitchin:2:1/10", "--point", "1e30,0"], 2),
        # arrays of 728 TiB, past the 128 TiB user address space: never allocated
        (["pinch", "--n", "1", "--grid", "99999999999999"], 2),
        (["sweep-s", "--n", "1", "--points", "99999999999999"], 2),
        (["verify", "--n-max", "1", "--grid", "99999999999999"], 2),
        (["product", "--left", "fs1", "--right", "fs1", "--samples", "99999999999999"], 2),
        # sizes numpy refuses outright, before allocating anything
        (["pinch", "--n", "1", "--grid", "4611686018427387904"], 2),
        (["verify", "--n-max", "1", "--grid", "4611686018427387904"], 2),
        (["sweep-s", "--n", "1", "--points", "4611686018427387904"], 2),
        (["product", "--left", "fs1", "--right", "fs1", "--samples", "4611686018427387904"], 2),
        (["pinch", "--n", "1", "--grid", "1000000000000000000000000000000"], 2),
        # a model whose one-point jet numpy refuses outright (m^4 entries past any size)
        (["curvature", "--model", "fs4000000"], 2),
        (["berger", "--model", "fs4000000", "--samples", "1"], 2),
        (["product", "--left", "fs4000000", "--right", "fs1"], 2),
        # s* = 1/(2n^2 + n) leaves [1e-150, 1e150] from n = 10**75; past 10**154 1/n^2 is no float
        (["pinch", "--n", str(10**75)], 2),
        (["pinch", "--n", str(10**155)], 2),
        (["sweep-s", "--n", str(10**75), "--points", "5"], 2),
        (["sweep-s", "--n", str(10**155), "--points", "5"], 2),
        (["pinch", "--n", str(10**74), "--grid", "16"], 1),
        (["sweep-s", "--n", str(10**74), "--points", "5"], 1),
        # the origin of s = 1e-150 is in range, where berger's second default point is not
        (["curvature", "--model", "product:fs1:hitchin:1:1e-150"], 1),
    ],
)
def test_exit_code_contract(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert json.loads(captured.out)["pass"] is (code == 0)


@pytest.mark.parametrize(
    "argv, named",
    [
        # the points are checked on one stack; the error names the bad one
        (["berger", "--model", "fs1", "--samples", "10", "--point=0.5", "--point=1e200"], "'1e200'"),
        (["berger", "--model", "fs1", "--samples", "10", "--point=1e50", "--point=0.5"], "'1e50'"),
        (["curvature", "--model", "product:fs1:hitchin:1:1/3", "--point", "0,0,1e200"], "'0,0,1e200'"),
        # a size whose arrays cannot be allocated names its option
        (["pinch", "--n", "1", "--grid", "99999999999999"], "--grid 99999999999999"),
        (["verify", "--n-max", "1", "--grid", "16", "--samples", str(2**62)], f"--samples {2**62}"),
        # a model too large to evaluate at one point names its option and text
        (["curvature", "--model", "fs4000000"], "--model fs4000000"),
        (["berger", "--model", "fs4000000", "--samples", "1"], "--model fs4000000"),
        (["product", "--left", "fs4000000", "--right", "fs1"], "--left fs4000000"),
        (["product", "--left", "fs1", "--right", "product:fs1:fs4000000"], "--right product:fs1:fs4000000"),
        # an s* out of numerical range names --n, with s defaulted or swept
        (["pinch", "--n", str(10**75)], f"--n {10**75} has s* = 5e-151"),
        (["sweep-s", "--n", str(10**155), "--points", "5"], f"--n {10**155} has s* = 5e-311"),
        # the product stack is checked once, not factor by factor; a point out
        # of range in either factor is still named
        (["curvature", "--model", "product:fs1:hitchin:1:1/3", "--point", "1e200,0,0.1"],
         "point '1e200,0,0.1' is out of numerical range"),
        (["curvature", "--model", "product:hitchin:2:1/10:fs2", "--point", "1e30,0,0.1,0.2"],
         "point '1e30,0,0.1,0.2' is out of numerical range"),
        (["curvature", "--model", "product:fs2:fs2", "--point", "0.1,0.2,1e100,1e100"],
         "point '0.1,0.2,1e100,1e100' is out of numerical range"),
        (["berger", "--model", "product:fs1:hitchin:1:1/3", "--samples", "64",
          "--point=0.1,0.1,0.1", "--point=1e200,0,0.1"], "point '1e200,0,0.1' is out of numerical range"),
        (["berger", "--model", "product:fs1:hitchin:1:1/3", "--samples", "64",
          "--point=0.1,0,1e200", "--point=0.1,0.1,0.1"], "point '0.1,0,1e200' is out of numerical range"),
        # one independent Monte Carlo value has no standard error
        (["berger", "--model", "hitchin:1:1/3", "--samples", "1"], "--samples 1"),
        (["berger", "--model", "hitchin:1:1/3", "--samples", "2", "--antithetic"], "--samples 2"),
        (["verify", "--n-max", "1", "--grid", "16", "--samples", "1"], "--samples 1"),
        # far out in the chart the sectional curvature form keeps an imaginary
        # residue, lost to cancellation: the point is out of range, whatever the count
        (["berger", "--model", "hitchin:2:1/10", "--samples", "64", "--point", "1e4,1e4"],
         "point '1e4,1e4' is out of numerical range: sectional curvature form"),
        (["berger", "--model", "hitchin:2:1/10", "--point", "0.1,0.2", "--point", "1e4,1e4"],
         "point '1e4,1e4' is out of numerical range: sectional curvature form"),
        # with no --point, the default point out of range is named by its coordinates
        (["berger", "--model", "product:fs1:hitchin:1:1e-150", "--samples", "50"],
         "default point '0.7+0.21j,-0.4-0.12j,0.25+0.075j' is out of numerical range"),
        # an empty point is a point given, not the default one
        (["curvature", "--model", "fs1", "--point", ""], "cannot parse point ''"),
        # a hitchin descriptor with too many or too few fields names the form
        (["curvature", "--model", "hitchin:1:1/3:4"], "cannot parse model 'hitchin:1:1/3:4': expected hitchin:<n>:<s>"),
        (["curvature", "--model", "hitchin:1"], "cannot parse model 'hitchin:1': expected hitchin:<n>:<s>"),
        # past the metric jet, the curvature's own residues name the point too
        (["curvature", "--model", "fs2", "--point", "1e4,1e4+3e3j"],
         "point '1e4,1e4+3e3j' is out of numerical range: scalar curvature has imaginary residue"),
        (["curvature", "--model", "fs3", "--point", "1e4,1e4+3e3j,0"],
         "point '1e4,1e4+3e3j,0' is out of numerical range: scalar curvature has imaginary residue"),
        (["curvature", "--model", "hitchin:1:1/3", "--point", "1e4,1e4+3e3j"],
         "point '1e4,1e4+3e3j' is out of numerical range: scalar curvature has imaginary residue"),
    ],
)
def test_parameter_errors_name_the_parameter(capsys, argv, named):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "model,point,code",
    [
        # a sampled direction search can stop at 311.90 here, short of 4/s = 312
        ("hitchin:6:1/78", "0.01+0.1j,-1.13+0.71j", 0),
        # far out in the chart the metric jet is too imprecise to be stationary
        ("hitchin:1:1/3", "1e4,1e4", 1),
    ],
)
def test_curvature_pass_flag(capsys, model, point, code):
    got, doc = run_json(capsys, "curvature", "--model", model, "--point", point)
    assert got == code
    assert doc["pass"] is (code == 0)
    if code == 0:
        assert abs(doc["results"]["hsc_max"] - 312.0) < 1e-9


def test_bad_model_is_usage_error(capsys):
    assert main(["berger", "--model", "torus9"]) == 2
    assert main(["curvature", "--model", "fsx"]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["pinch", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kahlerpinch")


def test_parser_is_built_once_and_survives_errors(capsys):
    from kahlerpinch.cli import build_parser

    assert main(["pinch", "--n", "x"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    runs = [run_cli(capsys, "sweep-s", "--n", "2", "--points", "50") for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert build_parser() is build_parser()
    # Importing the command line builds no parser; the first call does.
    proc = _run_child(
        "-c", "import kahlerpinch.cli as c; print(c.build_parser.cache_info().currsize)"
    )
    assert proc.returncode == 0 and proc.stdout.split() == ["0"], proc.stderr


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["pinch", "--n", "1", "--grid", "16", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    assert main(["sweep-s", "--n", "1", "--points", "3", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_json_model_descriptor(capsys):
    code, doc = run_json(
        capsys,
        "berger",
        "--model",
        '{"kind": "product", "left": {"kind": "fubini_study", "m": 1}, '
        '"right": {"kind": "fubini_study", "m": 1}}',
        "--samples",
        "20000",
    )
    assert code == 0
    for row in doc["results"]["rows"]:
        assert abs(row["trace_tau"] - 4.0) < 1e-10


def test_pinch_fine_grid_keeps_max_exact(capsys):
    # Near t = 1 the fiber samples come from the far chart, so a fine grid
    # carries no rounding overshoot of the plateau max K = 4/s.
    code, doc = run_json(capsys, "pinch", "--n", "1", "--grid", "32768")
    assert code == 0
    assert all(value <= 1e-14 for value in doc["results"]["rel_err"].values())


def _run_child(*argv):
    src = os.path.dirname(os.path.dirname(kahlerpinch.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_floating_point_warnings_stay_off_stderr():
    # A child process: Python shows each warning once per location, so an
    # earlier in-process run could hide it.
    proc = _run_child(
        "-m", "kahlerpinch.cli", "product",
        "--left", "hitchin:2:1e-100", "--right", "hitchin:2:1e-100", "--seed", "3",
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_console_entry_point():
    # the child imports the same package as this test, from wherever it lives
    proc = _run_child("-m", "kahlerpinch.cli", "pinch", "--n", "1", "--grid", "16")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


_RUNTIME_IMPORTS = """
import json, os, sys
from kahlerpinch.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    code = main(argv + ["--out", os.devnull])
    report.append([code, "scipy" in sys.modules])
print(json.dumps(report))
"""


def test_commands_run_without_scipy():
    # numpy is the only runtime dependency: no command may import scipy, even lazily.
    argvs = [
        ["pinch", "--n", "1", "--grid", "64"],
        ["sweep-s", "--n", "2", "--points", "99"],
        ["verify", "--n-max", "1"],
        ["berger", "--model", "fs3", "--samples", "2000"],
        ["product", "--left", "fs1", "--right", "fs2"],
        ["curvature", "--model", "fs3"],
        ["curvature", "--model", "hitchin:1:1/3", "--point", "0.3+0.1j,0.5"],
    ]
    proc = _run_child("-c", _RUNTIME_IMPORTS, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [code for code, _ in report] == [0] * len(argvs)
    assert not any(scipy for _, scipy in report), list(zip(argvs, report))


@pytest.mark.parametrize(
    "argv, checks",
    [
        # one jet of all points; the trace reuses its check
        (["berger", "--model", "fs3", "--samples", "2000"], 1),
        (["berger", "--model", "hitchin:2:1/10", "--samples", "2000"], 1),
        # the fiber sweep checks its one block across both charts, then the Berger jet
        (["verify", "--n-max", "1", "--grid", "16"], 2),
        # the same at the default grid of 256 samples, still one block
        (["verify", "--n-max", "1"], 2),
        # one jet per factor; the product jet is assembled from the checked
        # factor jets, and the searches take the checked stacks
        (["product", "--left", "fs1", "--right", "fs2", "--samples", "4"], 2),
        # the command-line points are checked on the one product stack
        (["berger", "--model", "product:fs2:fs2", "--samples", "2000",
          "--point=0.1,0.2j,0.3,0.4", "--point=0.5,0,-0.3j,0.2"], 1),
        # the jet; Ricci, the trace and the search take the checked jet
        (["curvature", "--model", "product:fs2:fs2", "--point", "0.1,0.2j,0.3,0.4"], 1),
        (["curvature", "--model", "hitchin:1:1/3", "--point", "0.3+0.1j,0.5"], 1),
        (["curvature", "--model", "fs3"], 1),
    ],
    ids=["berger", "berger-hitchin", "verify", "verify-default-grid", "product",
         "berger-product-points", "curvature-product", "curvature-hitchin", "curvature-fs3"],
)
def test_metric_stacks_are_checked_definite_once(argv, checks, monkeypatch, capsys):
    calls, check = [], geometry._require_positive_definite

    def counting(g):
        calls.append(g.shape)
        return check(g)

    for module in (geometry, models, optimize):
        monkeypatch.setattr(module, "_require_positive_definite", counting)
    assert main(argv) == 0
    assert len(calls) == checks, calls


def test_product_evaluates_each_factor_point_once(monkeypatch, capsys):
    # Each factor stack has 7 points, 1 + 3 fiber points + 3 draws, and a
    # Hitchin jet is two log_jets (base and fiber).  Each factor is drawn once,
    # and its one stack serves its constants and the product rows.
    rows, log_jet = [], models.log_jet

    def counting(kernel):
        rows.append(np.size(kernel.w))
        return log_jet(kernel)

    monkeypatch.setattr(models, "log_jet", counting)
    assert main(["product", "--left", "hitchin:1:1/3", "--right", "hitchin:1:1/3"]) == 0
    assert sum(rows) == 2 * 2 * 7, rows
