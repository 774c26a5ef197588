"""CLI reports: determinism, golden files, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spinorlab.atlas
import spinorlab.cli
import spinorlab.geometry
import spinorlab.matrices
import spinorlab.spin
from spinorlab import (
    InvariantViolation,
    Multivector,
    Signature,
    SpinElement,
    build_xi,
    build_xi_symbolic,
    check_relations,
)
from spinorlab.geometry import SpinorCoords, independent_system, normalize

from dense import generator_rows_annihilate

GOLDEN_DIR = Path(os.environ.get("SPINORLAB_GOLDEN_DIR", Path(__file__).parent / "golden"))


def run_cli(*args, expect=0):
    result = subprocess.run(
        [sys.executable, "-m", "spinorlab.cli", *args],
        capture_output=True,
        text=True,
    )
    assert result.returncode == expect, result.stderr or result.stdout
    return result


def test_classify_report():
    result = run_cli("classify", "--p", "4", "--q", "4")
    payload = json.loads(result.stdout)
    assert payload["ring"] == "R"
    assert payload["size"] == 16
    assert payload["even_sub"] == {"p": 4, "q": 3}
    assert all(payload["verdicts"].values())


def test_classify_textbook_cases():
    payload = json.loads(run_cli("classify", "--p", "3", "--q", "1").stdout)
    assert payload["ring"] == "R" and payload["size"] == 4
    payload = json.loads(run_cli("classify", "--p", "1", "--q", "0").stdout)
    assert payload["even_sub"] == {"p": 0, "q": 0}
    assert payload["factorization"] is None


def test_classify_even_sub_multiplicity_chain():
    payload = json.loads(run_cli("classify", "--p", "4", "--q", "3").stdout)
    assert payload["multiplicity"] == 2 and payload["size"] == 8 and payload["ring"] == "R"


def test_xi_golden_files():
    for n in (1, 2):
        result = run_cli("xi", "--n", str(n))
        golden = (GOLDEN_DIR / f"xi_n{n}.json").read_text(encoding="utf-8")
        assert result.stdout == golden


def test_xi_evaluated_zero_point():
    result = run_cli("xi", "--n", "2", "--x", "0,0,0,0,0")
    payload = json.loads(result.stdout)
    assert payload["symbolic"] is False
    assert all(v == "0" for row in payload["rows"] for v in row)


def test_xi_rank_three_self_check_passes():
    payload = json.loads(run_cli("xi", "--n", "3").stdout)
    assert payload["verdicts"]["square_identity"] is True
    assert len(payload["rows"]) == 8


def test_kernel_worked_point():
    result = run_cli("kernel", "--n", "2", "--x", "0,1,1,0,0")
    payload = json.loads(result.stdout)
    assert payload["kernel_dimension"] == 2
    assert payload["basis"][0] == {"a": "1", "a1": "0", "a2": "0", "a12": "0"}
    assert payload["basis"][1] == {"a": "0", "a1": "0", "a2": "1", "a12": "0"}


def main_in_process(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spinorlab.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_kernel_verdict_fails_on_a_vector_the_point_does_not_kill(monkeypatch):
    x = [Fraction(v) for v in (0, 1, 1, 0, 0)]
    kernel_spinors = spinorlab.cli.kernel_spinors

    def perturbed(point):
        basis = kernel_spinors(point)
        values = list(basis[-1].values)
        values[1] += 1
        basis[-1] = SpinorCoords(2, values)
        return basis

    monkeypatch.setattr(spinorlab.cli, "kernel_spinors", perturbed)
    assert not generator_rows_annihilate(x, perturbed(x)[-1])
    code, out, err = main_in_process(["kernel", "--n", "2", "--x", "0,1,1,0,0"])
    assert code == 2 and err == ""
    verdicts = json.loads(out)["verdicts"]
    assert verdicts == {"point_on_absolute": True, "dimension_is_2_pow_n_minus_1": True, "basis_annihilated": False}


def test_symbolic_square_is_decided_once_per_rank_and_still_bites(monkeypatch):
    build_xi_symbolic.cache_clear()
    try:
        ranks = []
        verify = spinorlab.matrices._verify_symbolic_square

        def counted(xi):
            ranks.append(xi.n)
            verify(xi)

        monkeypatch.setattr(spinorlab.matrices, "_verify_symbolic_square", counted)
        for _ in range(3):
            assert main_in_process(["xi", "--n", "3"])[0] == 0
        assert ranks == [3]

        def broken(xi):
            raise InvariantViolation("symbolic point-matrix square identity failed")

        monkeypatch.setattr(spinorlab.matrices, "_verify_symbolic_square", broken)
        for argv in (["xi", "--n", "2"], ["xi", "--n", "2", "--x", "1,1,1,0,0"], ["xi", "--n", "2"]):
            code, out, err = main_in_process(argv)
            assert (code, out) == (2, ""), argv
            assert err == "invariant violation: symbolic point-matrix square identity failed\n", argv
    finally:
        build_xi_symbolic.cache_clear()


def test_broken_period_table_is_an_invariant_violation(monkeypatch):
    monkeypatch.setitem(spinorlab.atlas._MOD8_TABLE, 0, ("C", 1, 0))
    code, out, err = main_in_process(["classify", "--p", "2", "--q", "2"])
    assert (code, out) == (2, "")
    assert err == "invariant violation: dimension identity broken for Cl(2,2): real dimension 32, not 2^4 = 16\n"


def test_kernel_rejects_off_quadric_point():
    result = run_cli("kernel", "--n", "2", "--x", "1,0,0,0,0", expect=1)
    assert "absolute" in result.stderr


def test_generator_roundtrip_report():
    result = run_cli("generator", "--n", "2", "--a", "1,0,0,0")
    payload = json.loads(result.stdout)
    assert payload["verdicts"]["roundtrip_recovers_ray"] is True
    assert payload["recovered_spinor"]["a"] == "1"
    assert payload["row_masks"] == [0, 1, 2]


def test_generator_low_grade_input():
    # scalar, a^1, a^2, a^12 for n=2 in low-grade form: 1 + 2 + 1 values
    result = run_cli("generator", "--n", "2", "--a", "1,0,0,1")
    payload = json.loads(result.stdout)
    assert payload["spinor"]["a12"] == "1"


def test_spin_check_identity_passes():
    result = run_cli("spin-check", "--p", "2", "--q", "0", "--s", "1")
    payload = json.loads(result.stdout)
    assert payload["is_spin"] and payload["is_spin_plus"]
    assert payload["verdicts"]["predicates_consistent"] is True


def test_spin_check_rejects_odd_element():
    run_cli("spin-check", "--p", "2", "--q", "0", "--s", "e1", expect=1)


def test_spin_check_interleaved_ordering():
    # e12 squares to +1 under the interleaved (2,2) signs: a boost element
    result = run_cli(
        "spin-check", "--p", "2", "--q", "2", "--s", "5/4 + 3/4*e12",
        "--ordering", "interleaved",
    )
    payload = json.loads(result.stdout)
    assert payload["norm"] == "1"
    assert payload["is_spin_plus"] is True


# Every even blade of Cl(6,0): the completion of scalar 2 and a dense grade-2
# table, with most grade-4 and grade-6 coordinates moved off their relations.
DENSE_PERTURBED_DIM6 = (
    "2 + 2*e12 - 2*e13 - e23 + 3*e14 - 2*e24 + 2*e34 + e15 + e25 + e35 + e45 - e16"
    " + 2*e26 - 2*e36 + 3*e46 + e56 - 7/2*e1234 + 1/2*e1235 + 3/2*e1245 - 7/2*e1345"
    " + 1/2*e2345 + 3/2*e1236 - e1246 - e1346 - 1/2*e2346 - 3/2*e1256 + 1/2*e1356"
    " + 7/2*e2356 - 5/2*e1456 - 5/2*e2456 - 1/2*e3456 - 15/4*e123456"
)


def test_spin_check_residual_order():
    """Residuals come by size, then in lexicographic order of the index set."""
    result = run_cli("spin-check", "--p", "6", "--q", "0", "--s", DENSE_PERTURBED_DIM6)
    payload = json.loads(result.stdout)
    expected = [
        ([1, 2, 3, 4], "-4"), ([1, 2, 3, 5], "-2"), ([1, 2, 3, 6], "2"), ([1, 2, 4, 5], "6"),
        ([1, 2, 4, 6], "-4"), ([1, 2, 5, 6], "-2"), ([1, 3, 4, 5], "-4"), ([1, 3, 4, 6], "0"),
        ([1, 3, 5, 6], "2"), ([1, 4, 5, 6], "-4"), ([2, 3, 4, 5], "-2"), ([2, 3, 4, 6], "2"),
        ([2, 3, 5, 6], "4"), ([2, 4, 5, 6], "-2"), ([3, 4, 5, 6], "2"), ([1, 2, 3, 4, 5, 6], "-12"),
    ]
    assert payload["residuals"] == [{"indices": i, "value": v} for i, v in expected]
    assert payload["norm"] == "2021/16"
    assert payload["spin"] is False


def test_motion_requires_exactly_one_source():
    run_cli("motion", "--n", "2", "--x", "0,1,1,0,0", expect=1)
    run_cli(
        "motion", "--n", "2", "--seed", "3", "--s", "1", "--x", "0,1,1,0,0", expect=1
    )


def test_motion_seeded_deterministic():
    args = ("motion", "--n", "2", "--seed", "11", "--x", "0,1,1,0,0")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    payload = json.loads(first)
    assert payload["verdicts"]["form_preserved"] is True
    assert payload["verdicts"]["kernel_equivariance"] is True


def test_motion_on_spinor():
    result = run_cli("motion", "--n", "2", "--seed", "5", "--a", "1,0,0,0")
    payload = json.loads(result.stdout)
    assert payload["verdicts"]["image_satisfies_relations"] is True


#: a^1 = a^1234 = 1: not pure, though with a zero scalar it passes the
#: relations unless they are read on its chart
IMPURE_ZERO_SCALAR = "0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1"


def test_motion_on_an_impure_spinor_has_no_relation_verdict():
    result = run_cli("motion", "--n", "4", "--seed", "3", "--a", IMPURE_ZERO_SCALAR)
    assert "image_satisfies_relations" not in json.loads(result.stdout)["verdicts"]


def test_motion_with_explicit_element():
    # a boost in the interleaved (2,2) algebra: (5/4)^2 - (3/4)^2 = 1
    result = run_cli("motion", "--n", "2", "--s", "5/4 + 3/4*e12", "--x", "0,1,1,0,0")
    payload = json.loads(result.stdout)
    assert payload["verdicts"]["form_preserved"] is True
    assert payload["verdicts"]["kernel_equivariance"] is True


def test_kernel_equivariance_fails_when_the_point_is_not_moved(monkeypatch):
    # the rotor turns (0,1,1,0,0) off its own ray, so its image of the kernel
    # at x is not killed by x itself
    argv = ["motion", "--n", "2", "--s", "3/5 + 4/5*e13", "--x", "0,1,1,0,0"]
    assert main_in_process(argv)[0] == 0
    monkeypatch.setattr(spinorlab.cli, "motion_on_points", lambda s, x: list(x))
    code, out, err = main_in_process(argv)
    assert code == 2 and err == ""
    assert json.loads(out)["verdicts"] == {"form_preserved": True, "kernel_equivariance": False}


def test_kernel_equivariance_fails_on_images_of_low_rank(monkeypatch):
    # zero images are killed by every point, so only the rank test can fail
    argv = ["motion", "--n", "3", "--seed", "5", "--x", "0,1,1,0,0,0,0"]
    zero_images = lambda m, basis: [SpinorCoords(a.n, [0] * (1 << a.n)) for a in basis]  # noqa: E731
    monkeypatch.setattr(spinorlab.cli, "spinor_images", zero_images)
    code, out, err = main_in_process(argv)
    assert code == 2 and err == ""
    assert json.loads(out)["verdicts"] == {"form_preserved": True, "kernel_equivariance": False}


def test_xi_float_mode():
    result = run_cli("xi", "--n", "1", "--x", "1/2,0,0", "--mode", "float")
    payload = json.loads(result.stdout)
    assert payload["rows"][0][0] == -0.5
    assert payload["form_value"] == 0.25


def test_float_mode_and_csv():
    result = run_cli(
        "generator", "--n", "2", "--a", "3,4,0,0", "--mode", "float", "--format", "csv"
    )
    lines = result.stdout.splitlines()
    assert lines[0] == "key,value"
    normalized = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in lines[1:]}
    assert normalized["normalization.spinor.a"] == "0.6"
    assert normalized["normalization.spinor.a1"] == "0.8"
    assert normalized["normalization.scale_sq"] == "25.0"


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    run_cli("classify", "--p", "1", "--q", "1", "--out", str(target))
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["ring"] == "R" and payload["size"] == 2


def test_bad_input_exit_codes():
    run_cli("xi", "--n", "0", expect=1)
    run_cli("kernel", "--n", "2", "--x", "1,2", expect=1)
    run_cli("generator", "--n", "2", "--a", "0,0,0,0", expect=1)


@pytest.mark.parametrize(
    "args",
    [
        ("xi", "--n", "1", "--x", "1e400,0,0", "--mode", "float"),
        ("kernel", "--n", "9", "--x", ",".join(["0", "1", "1"] + ["0"] * 16)),
        ("classify", "--p", "1", "--q", "1", "--out", "missing-directory/report.json"),
        ("classify", "--p", "1", "--q", "1", "--out", "."),
        ("generator", "--n", "4", "--a", IMPURE_ZERO_SCALAR),
    ],
    ids=["float_overflow", "rank_above_max", "out_in_missing_directory", "out_is_a_directory", "impure_spinor"],
)
def test_bad_input_is_an_error_line_not_a_traceback(args):
    result = run_cli(*args, expect=1)
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv, route",
    [
        (["spin-check", "--p", "2", "--q", "0", "--s", "3/5 + 4/5*e12"], "report"),
        (["motion", "--n", "3", "--seed", "5", "--x", "0,1,1,0,0,0,0"], "quadrics"),
        (["generator", "--n", "3", "--a", "2,1,0,-1,1,1/2,3"], "quadrics"),
        (["generator", "--n", "3", "--a", "0,1,0,2,0,3,0,0"], "quadrics"),
    ],
    ids=["spin_check", "motion_seeded", "generator_canonical", "generator_zero_scalar"],
)
def test_each_element_is_verified_once(monkeypatch, argv, route):
    # spin-check's verdict is read off the residuals of its report; a drawn
    # element and a spinor are decided by the quadric pass.  A generator
    # decides only its own spinor: the recovered one is Chevalley's product,
    # pure by construction, with a zero scalar too
    counts = {"quadrics": 0, "report": 0, "inverse": 0}
    quadrics = spinorlab.spin._obeys_relations
    residuals = spinorlab.spin._residuals
    inverse = Multivector.inverse

    def counted_quadrics(t):
        counts["quadrics"] += 1
        return quadrics(t)

    def counted_report(terms, scale, n):
        counts["report"] += 1
        return residuals(terms, scale, n)

    def counted_inverse(self):
        counts["inverse"] += 1
        return inverse(self)

    monkeypatch.setattr(spinorlab.spin, "_obeys_relations", counted_quadrics)
    monkeypatch.setattr(spinorlab.geometry, "_obeys_relations", counted_quadrics)
    monkeypatch.setattr(spinorlab.spin, "_residuals", counted_report)
    monkeypatch.setattr(spinorlab.geometry, "_residuals", counted_report)
    monkeypatch.setattr(Multivector, "inverse", counted_inverse)
    with contextlib.redirect_stdout(io.StringIO()):
        assert spinorlab.cli.main(argv) == 0
    assert counts == {"quadrics": 0, "report": 0, "inverse": 0, route: 1}


@pytest.mark.parametrize("a", ["2,1,0,-1,1,1/2,3", "0,1,0,2,0,3,0,0"], ids=["canonical", "zero_scalar"])
def test_generator_derives_one_system(monkeypatch, a):
    # the round trip checks the stored equations against the plane, and does
    # not re-derive the recovered spinor's system, on either branch
    calls = []
    system = spinorlab.geometry.independent_system

    def counted(spinor):
        calls.append(spinor)
        return system(spinor)

    monkeypatch.setattr(spinorlab.cli, "independent_system", counted)
    monkeypatch.setattr(spinorlab.geometry, "independent_system", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert spinorlab.cli.main(["generator", "--n", "3", "--a", a]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, reads",
    [
        (["spin-check", "--p", "2", "--q", "0", "--s", "3/5 + 4/5*e12"], 1),
        (["spin-check", "--p", "2", "--q", "0", "--s", "2 + e12"], 1),
        (["spin-check", "--p", "4", "--q", "0", "--s", "e1234"], 1),
        (["motion", "--n", "3", "--seed", "5", "--x", "0,1,1,0,0,0,0"], 1),
        (["motion", "--n", "3", "--seed", "5", "--a", "1,1,0,2,0,1,1"], 1),
    ],
    ids=["spin_check", "spin_check_not_spin", "spin_check_zero_scalar", "motion_seeded", "motion_seeded_spinor"],
)
def test_norm_reads_per_command(monkeypatch, argv, reads):
    # the element keeps N(s): check_relations or drawing the element reads it,
    # and every later predicate, rotation and motion reuses it
    calls = []
    spin_norm = spinorlab.spin.spin_norm

    def counted(s):
        calls.append(s)
        return spin_norm(s)

    monkeypatch.setattr(spinorlab.spin, "spin_norm", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert spinorlab.cli.main(argv) == 0
    assert len(calls) == reads


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["motion", "--n", "3", "--seed", "5", "--x", "0,1,1,0,0,0,0"], (4, 1, 3)),
        (["motion", "--n", "4", "--seed", "5", "--x", "0,1,1,0,0,2,2,0,0"], (4, 1, 3)),
        (["kernel", "--n", "2", "--x", "0,1,1,0,0"], (3, 0, 1)),
        (["xi", "--n", "2", "--x", "1,2,3,4,5"], (0, 0, 1)),
    ],
    ids=["motion_n3", "motion_n4", "kernel", "xi"],
)
def test_clearings_and_forms_per_command(monkeypatch, argv, expected):
    # geometry clears x, the kernel basis, y and the images once each, so a
    # motion's counts do not grow with its 2^(n-1) kernel vectors.  A
    # multivector is cleared only when it is built from Fractions: the
    # k = 1 element's unit vectors, their product, its chart and its rotated
    # vector are built from their integer forms by the producers, and N(s),
    # the relation verdict, the rotation and the kernel images read those.
    # The one clearing is the point rotation's x.  Q is formed once per point:
    # x and y, and once more by kernel_spinors, which decides Q(x) = 0 itself.
    # expected: calls of geometry._cleared, Multivector(...) clearings (blades._cleared) and quadratic_form
    counts = {"cleared": 0, "built": 0, "forms": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(spinorlab.geometry, "_cleared", counted("cleared", spinorlab.geometry._cleared))
    monkeypatch.setattr(spinorlab.blades, "_cleared", counted("built", spinorlab.blades._cleared))
    form = counted("forms", spinorlab.matrices.quadratic_form)
    for module in (spinorlab.cli, spinorlab.geometry, spinorlab.matrices):
        monkeypatch.setattr(module, "quadratic_form", form)
    with contextlib.redirect_stdout(io.StringIO()):
        assert spinorlab.cli.main(argv) == 0
    assert tuple(counts.values()) == expected


def test_impure_zero_scalar_spinor_error_names_the_chart():
    # the residual index set is the chart's, so the message names the chart's
    # blade: a1 + a1234 renames to e15 + e1234, whose lowest blade is e1234
    code, out, err = main_in_process(["generator", "--n", "4", "--a", IMPURE_ZERO_SCALAR])
    assert (code, out) == (1, "")
    assert err == (
        "error: spinor is not pure: its chart at the blade e1234 fails the coordinate relations, "
        "first residual at (2, 3, 4, 5)\n"
    )
    code, out, err = main_in_process(["generator", "--n", "3", "--a", "1,0,0,0,0,0,0,1"])
    assert (code, out, err) == (1, "", "error: coordinate relations fail, first residual at (1, 2, 3, 4)\n")


# sha256 of stdout, recorded before generator_to_spinor became one product
# route; nonzero and zero scalar coordinates at n = 1..4, every format and mode
GENERATOR_DIGESTS = [
    (["--n", "1", "--a=2,-3"], "0b40146cd6cbad9e39c9f7d42dd59c4ccdcde33be8b0b6dcee43e674304c9e7f"),
    (["--n", "1", "--a", "0,5", "--format", "csv"], "8815d736284784462dcc74287cd308d00ac0264b43584f9b772d842fd930bd5e"),
    (["--n", "2", "--a", "3,1,-2,1/2"], "eae1f15e9890b36a9f0d62c0a561e0454235b31385a1a7e9fbeb98b302cd1d60"),
    (["--n", "2", "--a", "0,0,0,5", "--mode", "float"], "a4c6f54dc17585d5e181cc85e412ecae1ff7850c1fd7b5fc613360ffb58082a1"),
    (["--n", "2", "--a", "0,2,-1,3", "--format", "pretty"], "6ad7f65d79cb43940a011fbbf7a0fd898b5dd55c19cf8dbf78d6381e64129a51"),
    (["--n", "3", "--a", "2,1,0,-1,1,1/2,3"], "d571fe3b671162133227181cbbdb3b6ba0c5d9ed59832900e47846662b1d408b"),
    (
        ["--n", "3", "--a=-1/2,1,2,0,3,1,-1,6", "--format", "csv", "--mode", "float"],
        "1251d31c889c3bffd3fedcbddc875d93969609fa7d641a8044c682a51363bc11",
    ),
    (
        ["--n", "3", "--a", "0,1,0,2,0,3,0,0", "--format", "pretty"],
        "f83f23da638a46c74b8a4a1e0799ff9a750154352469df4142c741d37ea5ebb3",
    ),
    (
        ["--n", "3", "--a", "0,0,0,0,0,0,0,-2", "--mode", "float", "--format", "pretty"],
        "0339be82b581e4822fa42b06dd1422cca2d6e362faa3009c5eae32238cad0f11",
    ),
    (["--n", "4", "--a", "3,1,-1,2,0,1/2,1,-2,1,0,3"], "9e698e497612a7a1548af81bddbb32e5d62bbccd9aa8e8706872ad29bd008657"),
    (
        ["--n", "4", "--a", "1,2,0,-1,1,1,0,3,2,-1,1", "--format", "pretty", "--mode", "float"],
        "232eec6c6c7958bcf940fc953aa8611ac79a549a7b71cd721608b050fadef759",
    ),
    (
        ["--n", "4", "--a", "0,1,2,0,3,0,0,0,4,0,0,0,0,0,0,0", "--format", "csv"],
        "b7fc22dcd7bd1929d63cebeaccd3d06c70a2825bb15ce6a873fb530aa975d6ba",
    ),
    (
        ["--n", "4", "--a=0,-1,0,-2,-1,1,2,0,1,-2,-2,0,-1,0,0,0", "--mode", "float"],
        "dd1aaa7fc11892f998ac62ab1123cab8439c50cd4ebc79fda0c6ed809a970fb9",
    ),
]


def test_generator_output_is_pinned():
    for argv, digest in GENERATOR_DIGESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert spinorlab.cli.main(["generator", *argv]) == 0, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


# sha256 of stdout, recorded before point motions became vector rotations;
# n = 1..4, --s and --seed (k = 1 and 2), absolute and generic points and
# spinors, every format and mode
MOTION_DIGESTS = [
    (
        ["--n", "1", "--s", "5/4 + 3/4*e12", "--x", "0,1,1"],
        "096cfbc8c2b18f93ff35303013f0f4cdc72bf479c3cacd7f52deb14853534383",
    ),
    (
        ["--n", "1", "--seed", "3", "--x", "1,1,0", "--format", "csv"],
        "cf04ddda9391e34ed7ec3e1f3921dc57adf3560f4e8e77c366e710cdb81238c2",
    ),
    (
        ["--n", "1", "--seed", "4", "--k", "2", "--a", "1,2", "--mode", "float"],
        "291ebe216ac763401a7947653946a38d34c1adaf1f91b763d7cfecc49d57bd7b",
    ),
    (
        ["--n", "1", "--s", "5/4 + 3/4*e12", "--x", "2,-1,1/2", "--format", "pretty"],
        "21626da7618fe996dd1f93dd486f136bd3238ec3dadefdf5bd3e9155d52769fa",
    ),
    (
        ["--n", "2", "--s", "3/5 + 4/5*e13", "--x", "0,1,1,0,0", "--format", "pretty"],
        "cd516f1d02423e38143c49866471313c6e8066e31608808809b726e38343febf",
    ),
    (
        ["--n", "2", "--seed", "7", "--k", "2", "--x", "1,1,0,2,2", "--mode", "float", "--format", "csv"],
        "59c5118a3bff3eefb306455da01ff38c7f536fa0f229e5c5c2210074384325f5",
    ),
    (["--n", "2", "--seed", "2", "--a", "1,0,0,3"], "1f0f9b5b848be2320f68a8d9d38a86d3a0912ec2ebc03a1d1313614c09553c06"),
    (
        ["--n", "2", "--s", "5/4 + 3/4*e12", "--a", "1,2,-1,1/2", "--format", "pretty", "--mode", "float"],
        "74e7b3aaefbf7d02f818bbb1090f4431a7e5f872f48f5f8298a0cece6f1ac0a9",
    ),
    (
        ["--n", "3", "--seed", "5", "--x", "0,1,1,0,0,0,0"],
        "2976e6c02689398c88374f167175bac4a441b9c440998cd57619c52ddc597aa7",
    ),
    (
        ["--n", "3", "--seed", "1", "--k", "2", "--x", "3,1,-2,2,1,3,1", "--format", "csv"],
        "752677ef6770250f4baabf746f09e394491a762c4a02c7e70c7fa183df030ed2",
    ),
    (
        ["--n", "3", "--seed", "8", "--k", "2", "--x", "1,0,0,1,0,0,0", "--format", "pretty", "--mode", "float"],
        "6bf409c59d9dc9f41206cc787123b16c70e131330c060274372f40a208556425",
    ),
    (
        ["--n", "3", "--s", "3/5 + 4/5*e24", "--a", "1,1,0,2,0,1,1"],
        "60ddb45f6e5c6630c201cc3ee4b3bd9439690b8127d57634e81d69b380b08a51",
    ),
    (
        ["--n", "3", "--seed", "9", "--k", "2", "--a", "1,0,0,0,0,0,0,0", "--format", "csv", "--mode", "float"],
        "406ead3b4f6ba714e55bd057df580498c6387ca75469386a51089d3ba9c120df",
    ),
    (
        ["--n", "4", "--seed", "5", "--x", "0,1,1,0,0,2,2,0,0"],
        "299e75e5a8e36d2a7fe750e0a686ff8f3d8f3847877d0b90ede74ac2802b73cb",
    ),
    (
        ["--n", "4", "--seed", "6", "--k", "2", "--x", "1,1,0,0,0,3,3,-1,1", "--mode", "float", "--format", "pretty"],
        "91ebea8781454b864cf12e3c11aedbed46fe53504b10594be034c2c20012f175",
    ),
    (
        ["--n", "4", "--s", "3/5 + 4/5*e57", "--x", "1,2,0,1/2,-1,0,3,1,1", "--format", "csv"],
        "717ee69d37764fcb2043446d43024de79dc755b32be5704efaec3f1a13f1ca79",
    ),
    (
        ["--n", "4", "--seed", "2", "--a", "2,1,0,-1,1,1,0,1,2,-1,1/2", "--format", "pretty"],
        "13de85959947fdb119d32a91247936d968378ed46be49e2868484a8ef495bec1",
    ),
    (
        ["--n", "4", "--s", "5/4 + 3/4*e78", "--a", "1,0,2,0,0,1,0,3,0,0,1,0,2,0,0,1"],
        "73d7d15c114a7e60e266079d20aa0c38e32844e8aebb569f20c96ad715447ab5",
    ),
]


def test_motion_output_is_pinned():
    for argv, digest in MOTION_DIGESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert spinorlab.cli.main(["motion", *argv]) == 0, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


# sha256 of stdout, recorded before the library records took over the report
# shapes; n = 1..4 (dims 1..8 for classify and spin-check), symbolic and
# evaluated Xi, every format and mode
REPORT_DIGESTS = {
    "classify": [
        (["--p", "1", "--q", "0"], "10c5d00819149d1f6ef8a6bf37ccb3b272c33a41d5c7d3180e3356d41ac2441d"),
        (
            ["--p", "0", "--q", "2", "--format", "csv"],
            "6015cc715d47d3a8ab50e035a64f1b0f155340b3ddf8be4830a17baf187f8b49",
        ),
        (
            ["--p", "3", "--q", "1", "--format", "pretty", "--mode", "float"],
            "b3fb01c340dcfcc38bb81ca783e4264284e9824de08281499087bed8212f3e16",
        ),
        (["--p", "4", "--q", "4"], "dbeed803b7f5db61500bd0f3a8dec5c8632639776c583910ffc35e1a59c09b6b"),
        (
            ["--p", "1", "--q", "4", "--format", "csv", "--mode", "float"],
            "8fa95d020b447ba2b847002d91cbd1bb07a8d54f15fc84998cdbaa42bf1daaf0",
        ),
        (
            ["--p", "2", "--q", "5", "--format", "pretty"],
            "05a925234ef7a5acaa736377d9bc2a279d20aa67cafd7e70397b4b4305c79320",
        ),
    ],
    "xi": [
        (["--n", "1", "--format", "csv"], "7040b01a9abe06a98bed659e1f3366256e39228251486cc343b5d58d05660049"),
        (["--n", "2", "--format", "pretty"], "dbe5068bdcd731116dd9a5271d2e048c1e9e9f9a6d94bcc1b0f67183c0135b12"),
        (["--n", "3", "--mode", "float"], "bb49e196c612230bfee02a1037a52f95b71c336d62f97c3a27e9716272a5052f"),
        (["--n", "4"], "6fe1cd3b4e086adf8366a6309572e8dc9ee054f310732fd11181be1d2101cee7"),
        (
            ["--n", "1", "--x", "1/2,0,0", "--mode", "float"],
            "839e6212da6bb9c823b74a55e716ab6240acd8a05f54726fca74e2b35fb5d2dc",
        ),
        (
            ["--n", "1", "--x", "2,-1,1/3", "--format", "pretty"],
            "c82fdf86b582587eaf5f831a94da74c89f39455b69d224b2348c38e0bd1b3cf5",
        ),
        (
            ["--n", "2", "--x", "0,1,1,0,0", "--format", "csv"],
            "078b69f0e375ffc79c5015fcc22fa421b12856fd3687b06529f23f8d200f27f2",
        ),
        (["--n", "2", "--x", "1,2,-1/2,3,0"], "db51a3d5875170db4c95d98ea1b6bb1ddaae39333dce670b904536886eb82e04"),
        (
            ["--n", "3", "--x", "1,2,-1/3,0,1,1,0", "--format", "pretty", "--mode", "float"],
            "d27ceeef0452d1364d34d876094143e90c09a690a0bcbbf4e15e1df611b4e9d0",
        ),
        (
            ["--n", "3", "--x", "0,1,1,0,0,0,0", "--format", "csv", "--mode", "float"],
            "40f9b4d3752039dacd684587bfbcd4cd8ea5935d8ab8dafffc6f82b76025ed61",
        ),
        (
            ["--n", "4", "--x", "3,1,-2,2,1,3,1,0,1/2"],
            "e5fe8cb680ad43bd04654416b4481960fdb8aeaabffb055d2925c4f74230096d",
        ),
        (
            ["--n", "4", "--x", "1,1,0,0,0,3,3,-1,1", "--format", "csv"],
            "0f8a834c31cafcacfc249d832a255af46f708373576b1e49e05a1996db72cc16",
        ),
    ],
    "kernel": [
        (["--n", "1", "--x", "0,1,1"], "5d71f63715a52d5600c641b9dc77cf3725c3a59c55fc3bc29baaa889548b57db"),
        (
            ["--n", "1", "--x", "1,1,0", "--format", "csv", "--mode", "float"],
            "a5cd3759d3ec5625a5d207a46034f62a5ad29039491494c66396b119802f4b31",
        ),
        (
            ["--n", "2", "--x", "0,1,1,0,0", "--format", "pretty"],
            "63f8605248805394eb27824d43f0e200dc7c0113ea09bad2534f91b326859928",
        ),
        (
            ["--n", "2", "--x", "1,1,0,2,2", "--mode", "float"],
            "4ad233dfba12dd74cec5889193cd6085e589ea60dbacdd8776f17658a6c61532",
        ),
        (
            ["--n", "2", "--x", "1/2,1/2,3,3,0", "--format", "csv"],
            "8b2f51a6962d177c9e7ff627390e03871f1c321e115804ecff3e4b04483f11dd",
        ),
        (["--n", "3", "--x", "0,1,1,0,0,0,0"], "2313aedf93f133816dbb4175bf3027e654c51985b0b1d517709e615967842adc"),
        (
            ["--n", "3", "--x", "1,1,0,2,2,0,0", "--format", "pretty", "--mode", "float"],
            "702f917d22cfea22420fcf21dc357965863fb02a263ac9e1b5e878641335aaf6",
        ),
        (
            ["--n", "3", "--x", "2,1,-1,2,1/2,1/2,0", "--format", "csv"],
            "421f83a5f93b2b5c2234c111ceabcd941352c77950752044098168642ecb3c11",
        ),
        (
            ["--n", "4", "--x", "0,1,1,0,0,2,2,0,0", "--format", "pretty"],
            "d41dd5ffb3ebdff13f2712e90bd3fb37b52bf5cc53f5a1cd515e5a2e41f229dc",
        ),
        (
            ["--n", "4", "--x", "1,1,0,0,0,3,3,-1,1", "--mode", "float"],
            "e36a7187250fd5ae70869fc89687ed8b3aee130d8102e3bf3acedf35f0defb70",
        ),
        (
            ["--n", "4", "--x", "1,2,0,1,2,0,0,1,1", "--format", "csv"],
            "3e70a3e983fa91579608235753035d85854e860c1e524d470636ab6dfa92fc34",
        ),
    ],
    "spin-check": [
        (["--p", "2", "--q", "0", "--s", "1"], "eb64c6d53ac6cd47bdc5961bc98155a7508bf57ad325f8cf64622d64dd4ce834"),
        (
            ["--p", "2", "--q", "0", "--s", "3/5 + 4/5*e12", "--format", "csv", "--mode", "float"],
            "40b83f99b3cd67b494ce03e7a4034709d54b5e6a9f8dc8b56039998b34217d77",
        ),
        (
            ["--p", "2", "--q", "2", "--s", "5/4 + 3/4*e12", "--ordering", "interleaved", "--format", "pretty"],
            "428acc6c2e4d374c6d00923276b0c9256df4541174388b3a37616f6ed199fa36",
        ),
        (
            ["--p", "3", "--q", "0", "--s", "2 + e12 - 1/3*e23", "--mode", "float"],
            "fe03ab8bdfddc7c9f0b81be64c036eb134e9583ad7a1306301ee91055721fdb7",
        ),
        (
            ["--p", "4", "--q", "0", "--s", "1 + e12 + e34 + e1234", "--format", "csv"],
            "0ae8a199e9664db6c6c5d48c3681cc7556f5fcfd9eebe8b4d18a5208999ffc41",
        ),
        (
            ["--p", "4", "--q", "0", "--s", "1 + e12 + e34 + 2*e1234", "--format", "pretty", "--mode", "float"],
            "d8f729c2b3d4d77ffdb5fe99bdf319716d6682f6a053111fdbdfb533b0e3937e",
        ),
        (
            ["--p", "2", "--q", "2", "--s", "e13 - 2/3*e24", "--format", "csv"],
            "f5ecf13dda2590257d33554e44fa2ffd4285a786ba81f977a6c4b105f4c18126",
        ),
        (
            ["--p", "3", "--q", "3", "--s", "1/2 + e12 - e35 + 1/2*e46", "--ordering", "interleaved"],
            "0c28cf869ffec9ca56995ce704d1b7fa4ccbaa5a517024640f593c2fdef183d8",
        ),
        (
            ["--p", "4", "--q", "4", "--s", "1 + e12 + e34 + e56 + e78 + e1234", "--format", "pretty"],
            "21aabdc89d6d5e568ab74d814898ca4e01614e8a82c36a59e579e6fe692eb587",
        ),
    ],
}


@pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
def test_report_output_is_pinned(command):
    for argv, digest in REPORT_DIGESTS[command]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert spinorlab.cli.main([command, *argv]) == 0, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv


def test_roundtrip_verdict_is_a_rank_one_test():
    parallel = spinorlab.cli._parallel
    assert parallel([Fraction(2), Fraction(0), Fraction(-4)], [Fraction(-1), Fraction(0), Fraction(2)])
    assert not parallel([Fraction(1), Fraction(0), Fraction(0)], [Fraction(1), Fraction(1), Fraction(0)])
    assert not parallel([Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)])
    assert not parallel([Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)])


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_records_serialise_exact_values():
    spinor = SpinorCoords(2, [3, 1, -2, Fraction(1, 2)])
    generator = independent_system(spinor)
    relations = check_relations(
        SpinElement(Multivector.from_text(Signature(4, 0), "1 + e12 + e34 + 2*e1234"))
    )
    records = [spinor, generator, relations, normalize(spinor), build_xi([1, 2, Fraction(-1, 2), 3, 0])]
    for record in records:
        payload = record.to_json()
        assert all(isinstance(leaf, (Fraction, int)) for leaf in _leaves(payload)), payload
    terms = Multivector.from_text(Signature(2, 1), "1/2 - 3*e13").to_json_terms()
    assert terms == [{"mask": 0, "value": Fraction(1, 2)}, {"mask": 5, "value": Fraction(-3)}]

    # rendered exactly, each record reads as its former string form
    def rendered(record):
        return spinorlab.cli._convert(record.to_json(), "exact", spinorlab.cli.DEFAULT_TOLERANCE)

    assert rendered(spinor) == {"a": "3", "a1": "1", "a2": "-2", "a12": "1/2"}
    assert rendered(generator) == {
        "n": 2,
        "equations": [["3", "-1", "-1", "-2", "-2"], ["-1", "3", "-3", "1/2", "1/2"], ["2", "1/2", "1/2", "-3", "3"]],
        "basis": [["8/7", "23/28", "17/28", "1", "0"], ["-4/7", "-57/28", "-47/28", "0", "1"]],
    }
    assert rendered(relations) == {
        "norm": "7",
        "residuals": [{"indices": [1, 2, 3, 4], "value": "1"}],
        "spin": False,
        "spin_plus": False,
    }
    assert rendered(build_xi_symbolic(2)) == {
        "n": 2,
        "rows": [
            ["x0", "-x1-x2", "x3+x4", "0"],
            ["x1-x2", "-x0", "0", "x3+x4"],
            ["-x3+x4", "0", "-x0", "x1+x2"],
            ["0", "-x3+x4", "-x1+x2", "x0"],
        ],
    }


def call_main(argv):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = spinorlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    spinorlab.cli._parser.cache_clear()
    try:
        for argv in (["classify", "--p", "1", "--q", "1"], ["xi", "--n", "2"], ["xi", "--n", "1", "--x", "1,0,0"]):
            assert call_main(argv)[0] == 0, argv
    finally:
        spinorlab.cli._parser.cache_clear()
    assert built.count("spinorlab") == 1
    assert len(built) == 7  # the root parser and one per subcommand


def test_parsed_options_do_not_leak_between_calls(tmp_path):
    seeded = ["motion", "--n", "2", "--seed", "5", "--x", "0,1,1,0,0"]
    with_k2 = call_main(seeded + ["--k", "2"])
    without_k = call_main(seeded)
    assert without_k == call_main(seeded + ["--k", "1"]) != with_k2
    assert spinorlab.cli._parser().parse_args(seeded).k == 1
    target = tmp_path / "report.json"
    classify = ["classify", "--p", "1", "--q", "1"]
    assert call_main(classify + ["--out", str(target)]) == (0, "", "")
    code, out, _ = call_main(classify)
    assert code == 0 and out == target.read_text(encoding="utf-8")


def test_seeded_motion_rejects_k_above_the_bound_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr(spinorlab.cli, "random_spin_element", lambda *args, **kwargs: drawn.append(args))
    too_many = spinorlab.cli.MAX_SEED_PAIRS + 1
    code, out, err = call_main(["motion", "--n", "1", "--seed", "1", "--k", str(too_many), "--x", "1,1,0"])
    assert (code, out, drawn) == (1, "", [])
    assert err == f"error: --k must be at most {too_many - 1}, got {too_many}\n"


def test_seeded_motion_accepts_k_at_the_bound():
    bound = str(spinorlab.cli.MAX_SEED_PAIRS)
    code, out, _ = call_main(["motion", "--n", "2", "--seed", "5", "--k", bound, "--x", "0,1,1,0,0"])
    assert code == 0 and json.loads(out)["verdicts"] == {"form_preserved": True, "kernel_equivariance": True}


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--n", "1", "--x", "-1,1,0"],
        ["xi", "--n", "1", "--x", "-1,0,0"],
        ["generator", "--n", "1", "--a", "-1,0"],
        ["motion", "--n", "1", "--seed", "1", "--x", "-1,1,1"],
        ["spin-check", "--p", "2", "--q", "0", "--s", "-e12"],
    ],
    ids=["kernel", "xi", "generator", "motion", "spin_check"],
)
def test_a_value_may_start_with_a_minus(argv):
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    code, out, err = call_main(argv)
    assert (code, out, err) == call_main(joined)
    assert out and "expected one argument" not in err


EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()

# exit code and sha256 of stdout and stderr, recorded with Python 3.11 and
# COLUMNS=80 before the parser was built once per process
PARSER_OUTPUT_DIGESTS = [
    (["--help"], 0, "3da5bffc86f7ee10943cc603497afa2c2e78a2137f653ce7af30a91ee1ff0794", EMPTY_DIGEST),
    (["xi", "--help"], 0, "33acd99a6d3777213b9c3d317a809b10ccace60c0aa4266c2755229f1eff50e0", EMPTY_DIGEST),
    (
        ["xi", "--n", "2", "--format", "xml"],
        2,
        EMPTY_DIGEST,
        "462919a5430428f9a0d3a5c0c8bd73f130de41e222268cc39e71a2b73f96df91",
    ),
]


def test_help_and_usage_errors_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, code, out_digest, err_digest in PARSER_OUTPUT_DIGESTS:
        for _ in range(2):  # the second call reuses the parser
            result_code, out, err = call_main(argv)
            digests = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest())
            assert (result_code, *digests) == (code, out_digest, err_digest), argv
