"""`curvature` and Fubini-Study `product` outputs pinned to the bit.

The values below were generated while the one-point direction search was
still its own wrapper around the stacked one; every later change to the point
layers must keep them, or list and justify the moves.  Scalar results are
pinned by ``repr``, list-valued results by the sha256 of their ``repr``, and
the `--format csv` output by its sha256.
"""
import contextlib
import hashlib
import io
import json

import pytest

from kahlerpinch.cli import main

# (model, --point or None for the origin, scalar results, sha256 of g,
# curvature_components and ricci_eigenvalues, sha256 of the CSV), all of
# `curvature --seed 3`.
CURVATURE = [
    ("fs1", None, {"scalar_curvature": 2.0, "hsc_min": 4.0, "hsc_max": 4.0, "max_symmetry_violation": 0.0}, ("aea0cc9bd4d77d9bedd9e153d2dd3850d93a76faefb6c56cc37247405d4e367e", "d71d3633f13520eedc87c4eeb0abe59c7eacacbf85735e236d51ae1522ab66d0", "0ab68d8d90cafd43c23b8c452065235fc46ddba926ce9ae5d211724647314785"), "214c25167e5545ea095408244b0839336cdf317503a9949cf91292da6dbfff50"),
    ("fs1", "0.3+0.2j", {"scalar_curvature": 2.0000000000000004, "hsc_min": 4.000000000000002, "hsc_max": 4.000000000000002, "max_symmetry_violation": 4.912752086028798e-17}, ("ddb5353c77c9ec7952d8f157317681171c57f4afcdf38bd2103bda759b280b32", "97c74f4782230cd3586ee166e5d93b6c788f63c264f75c0c44c28a790ffcda2d", "4facf3bd54383fbbe3433620359b672915c1b1dd5597b2d9458729724c98b53e"), "d60dc7217bc9e3801c1b5ee2e52ab773d616170942dc134566cb434c340fb209"),
    ("fs2", "0.1,0.2j", {"scalar_curvature": 6.0, "hsc_min": 3.9999999999999996, "hsc_max": 3.9999999999999996, "max_symmetry_violation": 6.938893903907228e-18}, ("a83463c787343f25e41313332562ee6104e7c49434eb4467cde9279ca524326a", "5ca113e9951e935b15ef30f7bf7bfd5cb4f568c1f64c581e20da06ac67931417", "6c20b0848f927c2cf97862cb00a952116e3903463ec550b86a282079df1c2b99"), "d0388819db2bf1319990e230a2eb7c2905a0be00b25af94d39ce7ba28b23b133"),
    ("fs3", None, {"scalar_curvature": 12.0, "hsc_min": 4.000000000000001, "hsc_max": 4.0, "max_symmetry_violation": 0.0}, ("88e04c8776197ece825b63cb1a19dbff87a5d2687b4d82e9e899cf9add2a770c", "9b5d3b5070ab21ec85364f6514436151ecc6ef1164aa866c5263db92e98c3043", "a0b9d25a1214f4921cd1a6421b121dc04e258c030b2d37409c119758c29c86ca"), "f7fb5e0319996c2742dec3a0bc86a701839a04f65a7ca511aa1baf1bd8b346ff"),
    ("fs4", "0.1,0.1,0.1,0.1", {"scalar_curvature": 20.000000000000007, "hsc_min": 4.000000000000003, "hsc_max": 4.0, "max_symmetry_violation": 1.734723475976807e-18}, ("de24bcf8671758da473f9f29ad0cdfc3fbe8852b6f5f4606f6316309775939a0", "6b4006f8a4bfc9e41ae632ba178c0da5bba3cfd708633ca487db766e7d72ba47", "fb676f2e8ba295ff1b2a60f09a3d18010af671f19c9aeb3ce275806999399524"), "998b0263bb448e268c983d13c1b30c57ff29add1803ac6a03c5ce25e23aac7c4"),
    ("hitchin:1:1/3", "0,0", {"scalar_curvature": 9.0, "hsc_min": 3.0000000000000013, "hsc_max": 12.0, "max_symmetry_violation": 0.0}, ("f73651432ee9423056e6ab8cb9e79eb3cfa52a8c2e62297df86f6b0bd13e6c9c", "8dcc972b10269e55d5c1ef50d45233b04d89ff231deed849c7580a746dcce11f", "9ed8bdcfd4eac08deb5017d0b5c31dade4ef4fb8d4971f636efecfe31c072d2c"), "8f39bc2219c94dd914bc562230dc69127ff15ebc677b8dd0e55a781a65b016f6"),
    # hsc_min and the CSV re-pinned when the S^2 solve began to score its candidates
    # with elementwise arithmetic, not BLAS matrix products: 2.9435640669658465 before (1 ulp).
    ("hitchin:1:1/3", "0.3+0.1j,0.5", {"scalar_curvature": 8.563106796116504, "hsc_min": 2.943564066965847, "hsc_max": 11.99999999999999, "max_symmetry_violation": 2.7538735181131813e-17}, ("53088b225daf912a0f9bf4b208cac7a7e7db367529892ba7eab65a447bb800ef", "70d5320afb05078902bb9982d22322ee5e2d47d2dc9c9982eeb6c6d3039a2d50", "dafacf70e4ca0fc4eaf7cf2604b8559c5e3e2b1802513276c1bfee51108d73ea"), "634030b016fd00886a2a006377a5f361387c1aca35383d045384ed98c9580073"),
    # hsc_min and the CSV re-pinned with the same change: 2.960556773594355 before (8 ulps).
    ("hitchin:3:1/21", "0.2,1.5", {"scalar_curvature": 41.99969226930075, "hsc_min": 2.9605567735943517, "hsc_max": 84.0000000000004, "max_symmetry_violation": 1.3010426069826053e-18}, ("57c7e122bf9a8101eeda66118accf886f77403e4755c386003c31076c74b9b09", "a2583bde82b502987e357e78520ea7b13386c78de27d9ba6da91604ec37112e4", "387239e2a07e8c1165501606cf092359874b21c81162d2c21dfc0a5933aa4e4d"), "3ddce1e4fc18b89dece212ad8690fa8cfa6322e49f672b97bca02b86c70dadb9"),
    ("product:fs2:fs2", "0.1,0.2j,0.3,0.4", {"scalar_curvature": 12.000000000000002, "hsc_min": 1.9999999999999993, "hsc_max": 4.000000000000002, "max_symmetry_violation": 6.938893903907228e-18}, ("cbe233d49a92af8beda8a75932060ec0d9b42a38d3971c192360a7b4040fdbf4", "2d4036a8f80656fef334b5506831c4a92db5d3e5f2a29f768dfef9437340a0a9", "3ad0f080172b0af24e2178f5b62650849dc995ac19a3a61aa386af57c0607840"), "2840eb9e32d7eff8c992d9b2852bfe95ceca3fd8ed8c56c5e4dbffa3e21ce338"),
    ("product:fs1:hitchin:1:1/5", "0.2,0.1,0.7j", {"scalar_curvature": 14.373678025851937, "hsc_min": 1.7744605848409571, "hsc_max": 19.99999999999999, "max_symmetry_violation": 4.336808689942018e-18}, ("e3a9048020f15e8044ee2a9c3ebba0d51cb4bc0f531e126795bf42dd9c2d6cb3", "8110fccf6cd61d3bf48b8e1d748f7b9601119c31c47a4fadbec4bf738f1b0675", "ea84c8536a20844e570625dd0ff2584bc80615b963fa54998c496caa9e9a000e"), "395285b7eb7765197a5362405b83d359462db4147c45222cedf39c6747a7d592"),
]

# (left, right, results, sha256 of the CSV), all of `product --seed 12345`.
PRODUCT = [
    ("fs1", "fs2", {"min_K": 1.9999999999999942, "max_K": 4.000000000000067, "pinching": 0.49999999999999023, "c_left": 0.9999999999999982, "c_right": 0.999999999999998, "k": 4.000000000000007, "y_star": 0.49999999999999994, "expected_lower": 1.9999999999999998, "expected_upper": 4.000000000000007, "expected_pinching": 0.49999999999999906, "rel_min_err": 2.7755575615628917e-15, "rel_max_err": 1.4876988529977072e-14, "tol": 1e-06, "agree": True}, "c6bdeb105f3617e5d3bee84408b5c4e618ec56bea78cf8c5ae5061568e4ffec2"),
    ("fs2", "fs2", {"min_K": 1.99999999999999, "max_K": 4.000000000000067, "pinching": 0.4999999999999892, "c_left": 0.9999999999999845, "c_right": 0.9999999999999842, "k": 4.000000000000062, "y_star": 0.49999999999999994, "expected_lower": 1.9999999999999998, "expected_upper": 4.000000000000062, "expected_pinching": 0.4999999999999922, "rel_min_err": 4.8849813083506896e-15, "rel_max_err": 1.1102230246251394e-15, "tol": 1e-06, "agree": True}, "4cab158b7ddb56374d6d53bd1fbbc50809e54711e54878846a0987ed4b96dfbf"),
    ("fs1", "fs3", {"min_K": 1.9999999999999953, "max_K": 4.000000000000028, "pinching": 0.4999999999999953, "c_left": 0.9999999999999907, "c_right": 0.9999999999999858, "k": 4.000000000000037, "y_star": 0.4999999999999988, "expected_lower": 1.9999999999999951, "expected_upper": 4.000000000000037, "expected_pinching": 0.4999999999999941, "rel_min_err": 1.1102230246251593e-16, "rel_max_err": 2.2204460492502926e-15, "tol": 1e-06, "agree": True}, "f6ea7101b5411d9cce02b9882d8c726f30cad8e7de0d8a47d7e8a0cc6761b684"),
]


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "model, point, scalars, list_digests, csv_digest",
    CURVATURE,
    ids=[f"{row[0]}@{row[1] or 'origin'}" for row in CURVATURE],
)
def test_curvature_output_is_pinned(model, point, scalars, list_digests, csv_digest):
    argv = ["curvature", "--model", model, "--seed", "3"] + ([] if point is None else ["--point", point])
    results = json.loads(_stdout(argv))["results"]
    lists = ("g", "curvature_components", "ricci_eigenvalues")
    assert sorted(results) == sorted([*scalars, *lists])
    for key, value in scalars.items():
        assert repr(results[key]) == repr(value), key
    for key, digest in zip(lists, list_digests):
        assert _sha256(repr(results[key])) == digest, key
    assert _sha256(_stdout(argv + ["--format", "csv"])) == csv_digest


@pytest.mark.parametrize(
    "left, right, expected, csv_digest", PRODUCT, ids=[f"{row[0]}x{row[1]}" for row in PRODUCT]
)
def test_fubini_study_product_output_is_pinned(left, right, expected, csv_digest):
    argv = ["product", "--left", left, "--right", right, "--seed", "12345"]
    results = json.loads(_stdout(argv))["results"]
    assert list(results) == list(expected)
    for key, value in expected.items():
        assert repr(results[key]) == repr(value), key
    assert _sha256(_stdout(argv + ["--format", "csv"])) == csv_digest
