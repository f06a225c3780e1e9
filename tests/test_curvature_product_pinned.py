"""`curvature` and Fubini-Study `product` outputs pinned to the bit.

The values below were generated while the one-point direction search was
still its own wrapper around the stacked one; every later change to the point
layers must keep them, or list and justify the moves.  Seven curvature rows
and three product rows were re-pinned when each metric came to be factored
once, where it is checked (2 x 2 inverses and frames written out, and the
inverse of larger metrics taken from their Cholesky frame): every value moved
by at most 1.5e-14 relative, or stayed at its rounding floor; CHANGES.md
lists them.  Two curvature rows and two product rows were re-pinned when the
S^2 solve came to take each extremum from its one multiplier that can win:
every value moved by at most 4e-14 relative, the product rows through the
extrema of fs2, whose Bloch quadratic is constant to rounding.  One curvature
row was re-pinned when the trust-region step of the m >= 3 search came to
take its boundary shift from the S^2 solve's root finder: product:fs1:hitchin:1:1/5
at 0.2,0.1,0.7j, hsc_min 1.7744605848409578 -> 1.7744605848409576 (1 ulp,
1.3e-16), and the hash of its CSV.  Scalar results are
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
    ("fs1", "0.3+0.2j", {"scalar_curvature": 1.9999999999999996, "hsc_min": 4.000000000000001, "hsc_max": 4.000000000000001, "max_symmetry_violation": 4.912752086028798e-17}, ("ddb5353c77c9ec7952d8f157317681171c57f4afcdf38bd2103bda759b280b32", "f2878b16db90aadafebc187f947815489a151819a35dba3e0a14fe0ccce05eb6", "6b7529272ec75a47a504a60f9e4f191e52927b8a2e44b63d37d200b18d57b7b9"), "0493b27b9b29b2b7a5790e166d5617d9340a9577fa36995454d60888bc1c7e27"),
    # hsc_min and hsc_max re-pinned with the two-candidate S^2 solve: 3.9999999999999996 both before.
    ("fs2", "0.1,0.2j", {"scalar_curvature": 6.000000000000002, "hsc_min": 3.999999999999998, "hsc_max": 4.0, "max_symmetry_violation": 6.938893903907228e-18}, ("a83463c787343f25e41313332562ee6104e7c49434eb4467cde9279ca524326a", "2b703128ad6df14fa4d559313d6858e6a3240372e8eb7f7f809377829ceeab02", "e4ef6db3c0d5adc1912d10338ce4dd7a8c9155538cb043ed4f42e3d06e01e860"), "da81625613bfa1f075ec1521c9863960b6bb31c9d6b6af00352af7ab3c1d758b"),
    ("fs3", None, {"scalar_curvature": 12.0, "hsc_min": 4.000000000000001, "hsc_max": 4.0, "max_symmetry_violation": 0.0}, ("88e04c8776197ece825b63cb1a19dbff87a5d2687b4d82e9e899cf9add2a770c", "9b5d3b5070ab21ec85364f6514436151ecc6ef1164aa866c5263db92e98c3043", "a0b9d25a1214f4921cd1a6421b121dc04e258c030b2d37409c119758c29c86ca"), "f7fb5e0319996c2742dec3a0bc86a701839a04f65a7ca511aa1baf1bd8b346ff"),
    ("fs4", "0.1,0.1,0.1,0.1", {"scalar_curvature": 20.0, "hsc_min": 4.000000000000003, "hsc_max": 4.0, "max_symmetry_violation": 1.734723475976807e-18}, ("de24bcf8671758da473f9f29ad0cdfc3fbe8852b6f5f4606f6316309775939a0", "1ddfd90c557de24eaa0c19842c3dbde6cb2cf745fb449b96f5b63863e39fde89", "58c67343f327f57c32c741e2a5fe6f1a045a98b1bbf2c0e820ce617c8b5e116f"), "e5bb5edd4d4dddade8e02b7dcfc8ed92719a5eef8064e724bdc94667fe28fa60"),
    ("hitchin:1:1/3", "0,0", {"scalar_curvature": 9.0, "hsc_min": 3.0000000000000013, "hsc_max": 12.0, "max_symmetry_violation": 0.0}, ("f73651432ee9423056e6ab8cb9e79eb3cfa52a8c2e62297df86f6b0bd13e6c9c", "8dcc972b10269e55d5c1ef50d45233b04d89ff231deed849c7580a746dcce11f", "9ed8bdcfd4eac08deb5017d0b5c31dade4ef4fb8d4971f636efecfe31c072d2c"), "8f39bc2219c94dd914bc562230dc69127ff15ebc677b8dd0e55a781a65b016f6"),
    # hsc_min and the CSV re-pinned when the S^2 solve began to score its candidates
    # with elementwise arithmetic, not BLAS matrix products: 2.9435640669658465 before (1 ulp).
    ("hitchin:1:1/3", "0.3+0.1j,0.5", {"scalar_curvature": 8.563106796116502, "hsc_min": 2.943564066965847, "hsc_max": 11.99999999999999, "max_symmetry_violation": 2.7972416050126014e-17}, ("53088b225daf912a0f9bf4b208cac7a7e7db367529892ba7eab65a447bb800ef", "3cb58e380083097b26719cefade616df8f6b209befd16d497d62c476f8142386", "dafacf70e4ca0fc4eaf7cf2604b8559c5e3e2b1802513276c1bfee51108d73ea"), "41897b51b06bfe8ce15ecaecfaf7ba09a813ef2e903c9ed200bd38d2fbc38181"),
    # hsc_min and the CSV re-pinned with the same change: 2.960556773594355 before (8 ulps);
    # then 2.960556773594355 -> 2.960556773594348 (16 ulps, 2.4e-15) with the two-candidate S^2 solve.
    ("hitchin:3:1/21", "0.2,1.5", {"scalar_curvature": 41.99969226930075, "hsc_min": 2.960556773594348, "hsc_max": 84.0000000000004, "max_symmetry_violation": 1.3010426069826053e-18}, ("57c7e122bf9a8101eeda66118accf886f77403e4755c386003c31076c74b9b09", "5882ed6c5cb9ac7c34ec536d1ca3901b1dd2d82d502660ceda471d5115c992c2", "2cf5ad8d28d1397796c3a559d91b4490086b2b18a2c05246213cb1cad0335268"), "6f4b159e68bce9b8379ee1915d8c6cd4597939c1ea10f545b2389417f1e8543a"),
    ("product:fs2:fs2", "0.1,0.2j,0.3,0.4", {"scalar_curvature": 12.000000000000004, "hsc_min": 1.9999999999999993, "hsc_max": 4.000000000000001, "max_symmetry_violation": 1.3877787807814457e-17}, ("cbe233d49a92af8beda8a75932060ec0d9b42a38d3971c192360a7b4040fdbf4", "0ab65954a031921c519df2da91bcad8c7a76c9303ec627c5e74acdd341260ece", "e2363353f02db28037ce2ebb928993a9c233ba7e5bb56e63edb346b9a02fccdf"), "dedc972887cc5e331186f71b7091671767cfc9c5b77e39aa3d4d1cbc694d47e1"),
    # hsc_min and the CSV re-pinned when the trust-region step took its shift from
    # sphere._secular_root: 1.7744605848409578 before (1 ulp).
    ("product:fs1:hitchin:1:1/5", "0.2,0.1,0.7j", {"scalar_curvature": 14.373678025851937, "hsc_min": 1.7744605848409576, "hsc_max": 19.99999999999999, "max_symmetry_violation": 4.336808689942018e-18}, ("e3a9048020f15e8044ee2a9c3ebba0d51cb4bc0f531e126795bf42dd9c2d6cb3", "4ec55e159d9dc2401d8fee7eb88537c78820d4d019f676b4ae8ff2eff8bf5213", "f4facce1aa35a1638e4ca79751a6aa5ba42c2e0f1c0b13f741fa48f2d587288e"), "7d7ffb4955f6573cddc3936e0a32bbcf0b2da0a0b2dc466e2816fea2cad0ebbf"),
]

# (left, right, results, sha256 of the CSV), all of `product --seed 12345`.
PRODUCT = [
    ("fs1", "fs2", {"min_K": 1.9999999999999942, "max_K": 4.000000000000066, "pinching": 0.49999999999999034, "c_left": 0.9999999999999787, "c_right": 0.9999999999999722, "k": 4.000000000000085, "y_star": 0.4999999999999984, "expected_lower": 1.9999999999999936, "expected_upper": 4.000000000000085, "expected_pinching": 0.49999999999998773, "rel_min_err": 3.3306690738754805e-16, "rel_max_err": 4.884981308350585e-15, "tol": 1e-06, "agree": True}, "1b7a98ec43d992954bf7ea92f72565517ca9a3292163b4c2b15b570b95a20951"),
    ("fs2", "fs2", {"min_K": 1.9999999999999871, "max_K": 4.000000000000066, "pinching": 0.49999999999998856, "c_left": 0.9999999999999621, "c_right": 0.9999999999999722, "k": 4.000000000000085, "y_star": 0.5000000000000026, "expected_lower": 1.9999999999999771, "expected_upper": 4.000000000000085, "expected_pinching": 0.4999999999999836, "rel_min_err": 4.996003610813261e-15, "rel_max_err": 4.884981308350585e-15, "tol": 1e-06, "agree": True}, "ee44a167e0014e2d4f943ff00fe697956dd026fbc198d2c7194d5047d8776d16"),
    ("fs1", "fs3", {"min_K": 1.9999999999999944, "max_K": 4.000000000000023, "pinching": 0.4999999999999957, "c_left": 0.9999999999999938, "c_right": 0.9999999999999791, "k": 4.000000000000025, "y_star": 0.49999999999999634, "expected_lower": 1.9999999999999853, "expected_upper": 4.000000000000025, "expected_pinching": 0.4999999999999932, "rel_min_err": 4.551914400963175e-15, "rel_max_err": 4.4408920985005986e-16, "tol": 1e-06, "agree": True}, "0fd0fa3fbae4afecf5f2a53077182a3e40392cd589d34290e762ce47d1e7260d"),
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
