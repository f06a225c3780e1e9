"""`verify --n-max 3` output pinned to the bit.

The digests below were generated before the central fiber's jets moved to
real arithmetic; every later change to the fiber sweep, the Berger average or
the closed forms must keep them, or list and justify the moves.
"""
import contextlib
import hashlib
import io

import pytest

from kahlerpinch.cli import main

# sha256 of the output of `verify --n-max 3 --format <format>`.
PINNED = {
    "json": "18ef131ceabc39808aaf91242ce81f5292e75d88c4bd816fba5b570bedf99145",
    "csv": "2bc026cc85be289b6c0dc07690f198b55275b9283f6fd9aaccad479762a5a766",
}


@pytest.mark.parametrize("fmt", sorted(PINNED))
def test_verify_output_is_pinned(fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["verify", "--n-max", "3", "--format", fmt]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED[fmt]
