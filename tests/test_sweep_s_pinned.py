"""`sweep-s --points 999` output pinned to the bit.

The values below were generated before ``extremize_quadratic`` stopped
evaluating the weight quadratic at a = 0 and a = 1; every later change to the
parameter sweep must keep them, or list and justify the moves.
"""
import contextlib
import hashlib
import io
import json

import pytest

from kahlerpinch.cli import main

# (n, argmax_s, argmax_pinching, sha256 of the JSON output, sha256 of the
# `--format csv` output), all of `sweep-s --n n --points 999`.
PINNED = [
    (1, 0.333, 0.11111105552776387, "d23b9764cfde640e3872ef28eff1697088cf9ae501110d09e52f58c435bdc4ea", "9111cd8732ac7d373b6ece160ba9373738359a397ea3aa384d6383c4fa6680b6"),
    (2, 0.1, 0.04, "a5a2c257ed5744c475f4a3922628148ccd5cf754ee9f999591c51ab96191c02d", "ae69e0828179aafac5ad706e08bc04e4eedc210af7376fe08cd5f029a57d9c18"),
    (3, 0.04766666666666666, 0.020408147963009247, "7e3cfe96280349024332c3c9b1226d87d8a96023f1c7a2a3bf0181aa0986675e", "b509bbcb88dac1c96f0145513d1bdb89f131e7a6ae093d7fecef7b6d513b3032"),
    (4, 0.02775, 0.012345669133826766, "9fac50d67f366e4cdf96535d4444a45add4fa59cb07c85a5a843d655b8c71ea9", "52cf824b5cb57df7b53dcfb82d5451e872497dd0ce903612977eaa77a7f22a9e"),
]


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize(
    "n, argmax_s, argmax_pinching, json_digest, csv_digest", PINNED, ids=[f"n{row[0]}" for row in PINNED]
)
def test_sweep_s_output_is_pinned(n, argmax_s, argmax_pinching, json_digest, csv_digest):
    argv = ["sweep-s", "--n", str(n), "--points", "999"]
    text = _stdout(argv)
    results = json.loads(text)["results"]
    assert repr(results["argmax_s"]) == repr(argmax_s)
    assert repr(results["argmax_pinching"]) == repr(argmax_pinching)
    assert hashlib.sha256(text.encode()).hexdigest() == json_digest
    csv = _stdout(argv + ["--format", "csv"])
    assert hashlib.sha256(csv.encode()).hexdigest() == csv_digest
