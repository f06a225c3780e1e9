"""`pinch --grid 512` output pinned to the bit.

The values below were generated before the stacked kernels moved their stack
axes last and the S^2 solve went from 54 KKT candidates to 15; every later
change to the kernels must keep them, or list and justify the moves.
"""
import contextlib
import hashlib
import io
import json

import pytest

from kahlerpinch.cli import main

# (n, s, min_K, max_K, pinching, argmin t, argmin weights, argmax t, argmax
# weights, sha256 of the `--format csv` profile); s None is s* = 1/(2n^2+n).
PINNED = [
    (1, None, 1.3333333333333335, 12.0, 0.11111111111111112, 1.0, [0.6666666666666667, 0.33333333333333326], 1.0, [0.0, 1.0], "39297be31f17875353fcf868174268311812de9aa3cc70c6c11a5b835148f3f5"),
    (1, "3/10", 1.473684210526316, 13.333333333333334, 0.1105263157894737, 1.0, [0.6842105263157895, 0.3157894736842105], 1.0, [0.0, 1.0], "0404577d995ccecf55396f5453a97b615781efc22e967f5108792d817d7f8012"),
    (3, None, 1.7142857142857153, 84.00000000000004, 0.020408163265306124, 1.0, [0.8571428571428572, 0.1428571428571428], 1.0, [0.0, 1.0], "48227ade638c7ea2ed1e7f6ac93fba7499a97c197702030df3726b45637206c1"),
    (3, "3/90", 2.2702702702702737, 120.0, 0.018918918918918948, 1.0, [0.8918918918918919, 0.10810810810810817], 1.0, [0.0, 1.0], "5319e83aab26dd98c37b55df6a3300784a885e038335269ee9f032f19b790a08"),
    (6, None, 1.8461538461538396, 311.9999999999999, 0.00591715976331359, 1.0, [0.9230769230769231, 0.07692307692307693], 1.0, [0.0, 1.0], "513a20c0a215049ef020bc82206603ff9195eeb0bab93056e2151eb5259ae715"),
    (6, "3/360", 2.526315789473685, 479.99999999999994, 0.005263157894736845, 1.0, [0.9473684210526315, 0.052631578947368474], 1.0, [0.0, 1.0], "0bf081a190765e65dbdaffd81895fa7c058bb9038239204677355e3f7da707c3"),
]


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize(
    "n, s, min_K, max_K, pinching, t_min, w_min, t_max, w_max, digest",
    PINNED,
    ids=[f"n{row[0]}-{'star' if row[1] is None else row[1]}" for row in PINNED],
)
def test_pinch_output_is_pinned(n, s, min_K, max_K, pinching, t_min, w_min, t_max, w_max, digest):
    argv = ["pinch", "--n", str(n), "--grid", "512"] + ([] if s is None else ["--s", s])
    results = json.loads(_stdout(argv))["results"]
    for key, value in (("min_K", min_K), ("max_K", max_K), ("pinching", pinching)):
        assert repr(results[key]) == repr(value), key
    for key, t, weights in (("argmin", t_min, w_min), ("argmax", t_max, w_max)):
        assert repr(results[key]["t"]) == repr(t), key
        assert repr(results[key]["weights"]) == repr(weights), key
    csv = _stdout(argv + ["--format", "csv"])
    assert hashlib.sha256(csv.encode()).hexdigest() == digest
