"""Fuzz the command line: every input ends in a report or a one-line error.

Drives ``cli.main`` in-process over all subcommands with small grids and
sample counts, and with malformed numbers, points and model descriptors.
Whatever the input, the exit code is 0, 1 or 2, nothing prints a traceback,
exit 2 prints exactly one ``error:`` line and nothing else, and a JSON report
is valid JSON whenever one is written (exit 0 or 1).
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kahlerpinch.cli import main

BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1e400", "1e-300", "abc", "", "1/0", "0x10", " "]
MODELS = [
    "fs1", "fs2", "fs3", "fs5", "fs0", "fs-1", "fsx", "fs",
    "hitchin:1:1/3", "hitchin:2:1/10", "hitchin:3:0.05", "hitchin:2:0.3",
    "hitchin:0:1/3", "hitchin:1:-1", "hitchin:1:1/0", "hitchin:1:nan", "hitchin:1:inf",
    "hitchin:1:1e-300", "hitchin:2:1e-100", "hitchin:1:1e300", "hitchin:99:1/3",
    "hitchin:1", "hitchin:x:1/3",
    "product:fs1:fs1", "product:fs1:fs2", "product:fs3:fs2", "product:hitchin:1:1/3:fs1", "product:fs1",
    "product:fs1:hitchin:1:1e-150", "product:hitchin:1:1e-150:fs2",
    "product:", "product:fs1:fs1:fs1",
    '{"kind": "fubini_study", "m": 2}', '{"kind": "hitchin", "n": 1, "s": "1/3"}',
    '{"kind": "torus"}', "{}", "{not json", "[1]", "", "torus9",
]
# Descriptors with a field of the wrong type, or a value no parameter has.
BAD_DESCRIPTORS = [
    '{"kind":"hitchin","n":2,"s":null}',
    '{"kind":"fubini_study","m":null}',
    '{"kind":"hitchin","n":2,"s":[1]}',
    '{"kind":"product","left":[1],"right":{"kind":"fubini_study","m":1}}',
    '{"kind":"product","left":"fs1","right":"fs1"}',
    '{"kind":"hitchin","n":1,"s":"1/0"}',
    '{"kind":"hitchin","n":1,"s":"1e999"}',
]
MODELS += BAD_DESCRIPTORS
POINTS = [
    "0", "0,0", "0,0,0", "0.3+0.1j,0.5", "0.2-0.7j,-0.4j", "1+2j", "1e5", "1e4,1e4",
    "nan,0", "0,inf", "1e200,0", "0,1e200", "1e300,1e300", "x", "", ",", "0,,0", "1j j",
    "1e50", "1e30,0",
]


def _number(low, high):
    return st.one_of(st.integers(low, high).map(str), st.sampled_from(BAD_NUMBERS))


def _real():
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, width=32).map(repr),
        st.sampled_from(BAD_NUMBERS + ["1/3", "1/10", "3/40", "0.05"]),
    )


def _flags(*pairs):
    """Each option present or absent, with its drawn value."""
    return st.tuples(
        *(st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v])) for flag, value in pairs)
    )


COMMANDS = {
    "pinch": _flags(
        ("--n", _number(-1, 7)), ("--s", _real()), ("--grid", _number(-1, 24)), ("--tol", _real())
    ),
    "sweep-s": _flags(("--n", _number(-1, 7)), ("--points", _number(-1, 30))),
    "verify": _flags(
        ("--n-max", _number(-1, 2)), ("--grid", _number(-1, 24)), ("--samples", _number(-1, 200)),
        ("--tol", _real()), ("--zmax", _real()),
    ),
    "berger": _flags(
        ("--model", st.sampled_from(MODELS)), ("--samples", _number(-1, 200)), ("--zmax", _real()),
        ("--point", st.sampled_from(POINTS)),
    ),
    "product": _flags(
        ("--left", st.sampled_from(MODELS)), ("--right", st.sampled_from(MODELS)),
        ("--samples", _number(-1, 2)), ("--tol", _real()),
    ),
    "curvature": _flags(
        ("--model", st.sampled_from(MODELS)), ("--point", st.sampled_from(POINTS))
    ),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag in draw(COMMANDS[command]):
        argv.extend(flag)
    if draw(st.booleans()):
        argv.extend(["--format", draw(st.sampled_from(["json", "csv"]))])
    argv.extend(draw(st.sampled_from([[], ["--seed", "3"], ["--seed", "-1"], ["--seed", "x"]])))
    return argv


def _strict_json(text):
    """Parse ``text`` as JSON proper: ``NaN`` and ``Infinity`` are not JSON."""

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
# one sample has no standard error: a parameter error
@example(["verify", "--n-max", "1", "--grid", "16", "--samples", "1"])
# sample buffers numpy refuses to allocate: a parameter error, not a traceback
@example(["berger", "--model", "fs2", "--samples", str(2**62)])
@example(["verify", "--n-max", "1", "--grid", "16", "--samples", str(2**62)])
# a default point out of numerical range: named in a usage error
@example(["berger", "--model", "product:fs1:hitchin:1:1e-150", "--samples", "50"])
def test_cli_never_crashes(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    elif "csv" not in argv:
        _strict_json(out)


@pytest.mark.parametrize("descriptor", BAD_DESCRIPTORS)
def test_malformed_descriptor_is_usage_error(descriptor):
    code, out, err = _run(["curvature", "--model", descriptor])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
