"""Every command documented in the README runs here, against the same
flags the README shows, and the salient output lines are pinned."""

import gc
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dickson
from dickson.cli import _json, _parse, build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# README examples

def test_readme_division_gf9(capsys):
    code, out, _ = run_cli(capsys, [
        "division", "--coeff", "gf(3,2)", "--sigma", "frobenius:1",
        "--c", "0,1"])
    assert code == 0
    assert "verdict:  proved-division" in out
    assert "method:   square-criterion" in out
    assert "c is not a square (Euler's criterion)" in out


def test_readme_autgroup_gf27(capsys):
    code, out, _ = run_cli(capsys, [
        "autgroup", "--coeff", "gf(3,3)", "--sigma", "frobenius:1",
        "--c", "0,1,0"])
    assert code == 0
    assert "order:             6" in out
    assert "structure:         yes" in out
    assert "isomorphism onto Z/3 x Z/2" in out
    assert 'J_and_C:          ["frobenius^0", "frobenius^1", "frobenius^2"]' \
        in out


def test_readme_nuclei_gf9(capsys):
    code, out, _ = run_cli(capsys, [
        "nuclei", "--coeff", "gf(3,2)", "--sigma", "frobenius:1",
        "--c", "0,1"])
    assert code == 0
    for line in ("left:      1", "middle:    2", "right:     1",
                 "nucleus:   1", "commuter:  4", "center:    1"):
        assert line in out


def test_readme_census_3_2(capsys):
    code, out, _ = run_cli(capsys, ["census", "--p", "3", "--n", "2"])
    assert code == 0
    assert "classes_excluding_id:  1" in out
    assert "classes_including_id:  2" in out
    assert 'members:           ["0,1", "0,2", "1,1", "2,2"]' in out


def test_readme_wene_gf9(capsys):
    code, out, _ = run_cli(capsys, [
        "wene", "--coeff", "gf(3,2)", "--sigma", "frobenius:1",
        "--c", "2,0"])
    assert code == 0
    assert 'left_inverse:               ["0,0", "2,0"]' in out
    assert "grouped_map_is_sigma_pair:  true" in out
    assert "sigma_fixes_c:              true" in out
    assert "in_automorphism_group:      true" in out


def test_readme_witness_zero_divisor(capsys):
    code, out, _ = run_cli(capsys, [
        "witness-zero-divisor", "--coeff", "gf(5,2)", "--sigma",
        "frobenius:1", "--c", "0,1", "--r", "1,1", "--s", "2,1",
        "--t", "1,2"])
    assert code == 0
    assert "critical_c:       4,2" in out
    assert 'pair:             [["1,1", "1,2"], ["1,4", "2,1"]]' in out
    assert "product_is_zero:  true" in out


def test_readme_quaternion_division_json(capsys):
    code, out, _ = run_cli(capsys, [
        "division", "--coeff", "quat(2,3)", "--sigma",
        "conjugation:0,1,0,0", "--c", "0,1,1,0", "--variant", "middle",
        "--format", "json"])
    assert code == 0
    envelope = json.loads(out)
    assert set(envelope) == {"version", "command", "input", "result",
                             "wall_time_s"}
    assert envelope["command"] == "division"
    assert envelope["input"]["variant"] == "middle"
    assert envelope["result"]["verdict"] == "proved-division"
    assert envelope["result"]["method"] == "norm-criterion"


def test_readme_padic_unknown_exits_zero(capsys):
    code, out, _ = run_cli(capsys, [
        "division", "--coeff", "qp(5)", "--sigma", "conjugate", "--c", "2"])
    assert code == 0
    assert "verdict:  unknown" in out
    assert "do not decide this case" in out


@pytest.mark.parametrize("coeff, c", [("qp(5;sqrt_u;4)", "30:1,-30:1"),
                                      ("qp(7;sqrt_up;16)", "1/7,3"),
                                      ("qp(3;sqrt_p;8)", "2,-1:2")])
def test_padic_construct_and_nuclei_take_no_padic_arithmetic(
        capsys, monkeypatch, coeff, c):
    """construct and nuclei over Q_p answer on the exact rational twin, so
    they still answer when p-adic products and sums refuse to run."""
    from dickson.padics import PadicNumber

    def refuse(*args):
        raise AssertionError("p-adic arithmetic")
    monkeypatch.setattr(PadicNumber, "__mul__", refuse)
    monkeypatch.setattr(PadicNumber, "__add__", refuse)
    argv = ["--coeff=" + coeff, "--sigma=conjugate", "--c=" + c,
            "--format=json"]
    code, out, _ = run_cli(capsys, ["construct"] + argv)
    assert code == 0 and json.loads(out)["result"]["all_passed"] is True
    code, out, _ = run_cli(capsys, ["nuclei"] + argv)
    result = json.loads(out)["result"]
    assert code == 0 and result["dims"]["center"] == 1
    assert result["bases"]["center"] == [["0:1,0", "0,0"]]


def test_readme_bad_input_exits_two(capsys):
    code, out, err = run_cli(capsys, [
        "construct", "--coeff", "qp(2)", "--sigma", "conjugate",
        "--c", "1,1"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "p = 2" in err


@pytest.mark.parametrize("coeff, sigma, c", [
    ("gf(3,2;2,2,1;junk)", "frobenius:1", "0,1"),
    ("qp(5;sqrt_u;8;junk)", "conjugate", "2"),
    ("quat(-1,-1;5;junk)", "conjugation:1,1,0,0", "1,2,4,3"),
])
def test_extra_coefficient_parts_exit_two(capsys, coeff, sigma, c):
    code, out, err = run_cli(capsys, [
        "division", "--coeff", coeff, "--sigma", sigma, "--c", c])
    assert code == 2 and out == ""
    assert err.startswith("error: coefficient spec %r:" % coeff)



@pytest.mark.parametrize("command", ["autgroup", "nuclei", "division",
                                     "construct"])
@pytest.mark.parametrize("coeff", ["quat(1,1)", "quat(1,1;7)"])
def test_noninvertible_c_exits_two(capsys, command, coeff):
    # c = j + k has norm -b + ab = 0 in (1, 1 | F)
    code, out, err = run_cli(capsys, [
        command, "--coeff", coeff, "--sigma", "conjugation:1,0,1,1",
        "--c=0,0,1,1", "--variant", "left"])
    assert code == 2 and out == ""
    assert err == "error: c must be invertible\n"


def test_bad_characteristic_with_a_modulus_exits_two(capsys):
    # the characteristic is checked before the modulus is reduced by it
    code, out, err = run_cli(capsys, [
        "division", "--coeff", "gf(0,2;1,1,1)", "--sigma", "id",
        "--c", "1,0"])
    assert code == 2 and out == ""
    assert "characteristic must be an int" in err

def test_quaternion_characteristic_bound_exits_two_everywhere(capsys,
                                                             tmp_path):
    # the bound of FiniteField, checked where the algebra is built, so no
    # command enumerates GF(p) or answers over it; census takes no --coeff
    coeff = "quat(-1,-1;2147483659)"
    flags = ["--sigma", "conjugation:1,1,0,0", "--c", "0,1,0,0",
             "--variant", "left"]
    spec = tmp_path / "a.json"
    spec.write_text(json.dumps({"coeff": coeff, "sigma": flags[1],
                                "c": flags[3], "variant": flags[5]}))
    for argv in [[cmd, "--coeff", coeff] + flags for cmd in
                 ("construct", "nuclei", "division", "autgroup", "wene")] + [
            ["witness-zero-divisor", "--coeff", coeff] + flags
            + ["--r", "1,0,0,0", "--s", "1,0,0,0", "--t", "1,0,0,0"],
            ["iso", "--spec", str(spec), "--spec2", str(spec)]]:
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "", argv
        assert err == ("error: coefficient spec %r: characteristic must be "
                       "an int in [2, 2^31)\n" % coeff), argv


def test_readme_iso_spec_files(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,1"}')
    b.write_text('{"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,2"}')
    code, out, _ = run_cli(capsys, ["iso", "--spec", str(a),
                                    "--spec2", str(b)])
    assert code == 0
    assert "status:   yes" in out
    assert "tau:  frobenius^0" in out
    assert "b:    1,2" in out


def test_iso_across_padic_precisions_is_unknown(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"coeff": "qp(5;sqrt_p;16)", "sigma": "conjugate", '
                 '"c": "2"}')
    b.write_text('{"coeff": "qp(5;sqrt_p;32)", "sigma": "conjugate", '
                 '"c": "2"}')
    code, out, err = run_cli(capsys, ["iso", "--spec", str(a),
                                      "--spec2", str(b)])
    assert code == 0, err
    assert "status:   unknown" in out
    assert "precisions 16 and 32" in out
    code, out, err = run_cli(capsys, ["iso", "--spec", str(a),
                                      "--spec2", str(a)])
    assert code == 0, err
    assert "status:   yes" in out


def test_readme_construct_quad(capsys):
    code, out, _ = run_cli(capsys, [
        "construct", "--coeff", "quad(2)", "--sigma", "conjugate",
        "--c", "0,1", "--variant", "right"])
    assert code == 0
    assert "all_passed:  true" in out
    assert "matches_structure_constants:  true" in out
    assert "trials:      200" in out


@pytest.mark.parametrize("coeff, sigma, c, variant, dim, per_trial", [
    ("qp(5)", "conjugate", "2,1", "commutative", 4, 10),
    ("quad(2)", "conjugate", "0,1", "right", 4, 10),
    ("gf(3,2)", "frobenius:1", "0,1", "commutative", 4, 10),
    ("quat(2,3;5)", "conjugation:0,1,0,0", "1,1,0,0", "left", 8, 9),
])
def test_construct_forms_each_trial_product_once(capsys, monkeypatch, coeff,
                                                 sigma, c, variant, dim,
                                                 per_trial):
    # one product for lambda^2, dim^2 for the structure constants, and per
    # trial: two unit products, three per distributive law and x*y once;
    # y*x only when the coefficients commute
    calls = []
    mul = dickson.doubling.DicksonAlgebra.mul

    def counted(self, lhs, rhs):
        calls.append(None)
        return mul(self, lhs, rhs)

    monkeypatch.setattr(dickson.doubling.DicksonAlgebra, "mul", counted)
    code, out, err = run_cli(capsys, [
        "construct", "--coeff", coeff, "--sigma", sigma, "--c", c,
        "--variant", variant, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["result"]["trials"] == 200
    assert len(calls) == 1 + dim ** 2 + 200 * per_trial


@pytest.mark.parametrize("coeff, sigma, c, variant", [
    ("gf(3,2)", "frobenius:1", "0,1", "commutative"),
    ("quad(2)", "conjugate", "3/2,-1/3", "commutative"),
    ("quat(2,3)", "conjugation:0,1,0,0", "1/2,2,-1/3,3/4", "middle"),
    ("qp(5;sqrt_u;16)", "conjugate", "2,3", "commutative"),
])
def test_construct_catches_one_wrong_structure_constant(capsys, monkeypatch,
                                                        coeff, sigma, c,
                                                        variant):
    """The second product path is only a check if a wrong tensor fails it:
    one entry of the kept tensor (the rational twin's over Q_p) is changed
    before construct runs."""
    from dickson import cli, doubling
    build = cli.algebra_from_document

    def corrupted(doc):
        D = build(doc)
        P, den = doubling.structure_constants(doubling.rational_twin(D))
        P[0][0][0] += den
        return D

    monkeypatch.setattr(cli, "algebra_from_document", corrupted)
    code, out, err = run_cli(capsys, [
        "construct", "--coeff", coeff, "--sigma", sigma, "--c", c,
        "--variant", variant, "--format", "json"])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["checks"]["matches_structure_constants"] is False
    assert result["all_passed"] is False


# ---------------------------------------------------------------------------
# envelope determinism

def _json_run(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_json_runs_are_identical_apart_from_wall_time(capsys):
    argv = ["autgroup", "--coeff", "gf(3,2)", "--sigma", "frobenius:1",
            "--c", "0,1"]
    first = json.loads(_json_run(capsys, argv))
    second = json.loads(_json_run(capsys, argv))
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)


def test_json_keys_sorted_on_the_wire(capsys):
    out = _json_run(capsys, ["division", "--coeff", "gf(3,2)",
                             "--sigma", "frobenius:1", "--c", "0,1"])
    keys = [line.split('"')[1] for line in out.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# flag validation

def test_spec_and_inline_flags_conflict(capsys, tmp_path):
    spec = tmp_path / "alg.json"
    spec.write_text('{"coeff": "gf(3,2)", "sigma": "frobenius:1", '
                    '"c": "0,1"}')
    code, _, err = run_cli(capsys, [
        "division", "--spec", str(spec), "--coeff", "gf(3,2)"])
    assert code == 2
    assert "not both" in err
    # --variant and --allow-identity are inline flags too: neither may be
    # dropped in silence nor applied to the file's algebra
    quat = tmp_path / "quat.json"
    quat.write_text('{"coeff": "quat(2,3)", "sigma": "conjugation:0,1,0,0", '
                    '"c": "1,2,0,0"}')
    code, out, err = run_cli(capsys, [
        "construct", "--spec", str(quat), "--variant", "middle"])
    assert (code, out) == (2, "")
    assert "not both" in err
    ident = tmp_path / "id.json"
    ident.write_text('{"coeff": "gf(3,2)", "sigma": "id", "c": "0,1"}')
    code, out, err = run_cli(capsys, [
        "division", "--spec", str(ident), "--allow-identity"])
    assert (code, out) == (2, "")
    assert "not both" in err


def test_inline_flags_must_be_complete(capsys):
    code, _, err = run_cli(capsys, ["division", "--coeff", "gf(3,2)"])
    assert code == 2
    assert "--sigma" in err


def test_iso_requires_both_specs(capsys, tmp_path):
    spec = tmp_path / "alg.json"
    spec.write_text('{"coeff": "gf(3,2)", "sigma": "frobenius:1", '
                    '"c": "0,1"}')
    code, _, err = run_cli(capsys, ["iso", "--spec", str(spec)])
    assert code == 2
    assert "--spec2" in err


def test_identity_sigma_needs_opt_in(capsys):
    code, _, err = run_cli(capsys, [
        "division", "--coeff", "gf(3,2)", "--sigma", "id", "--c", "0,1"])
    assert code == 2
    assert "allow_identity" in err
    code2, out, _ = run_cli(capsys, [
        "division", "--coeff", "gf(3,2)", "--sigma", "id", "--c", "0,1",
        "--allow-identity"])
    assert code2 == 0
    assert "proved-division" in out


def test_reducible_modulus_rejected(capsys):
    code, _, err = run_cli(capsys, [
        "division", "--coeff", "gf(3,2;1,2,1)", "--sigma", "frobenius:1",
        "--c", "0,1"])
    assert code == 2
    assert "reducible" in err


def test_missing_spec_file(capsys):
    code, _, err = run_cli(capsys, [
        "division", "--spec", "/nonexistent/alg.json"])
    assert code == 2
    assert "cannot read" in err


def test_census_over_limit_errors(capsys):
    code, _, err = run_cli(capsys, ["census", "--p", "5", "--n", "3"])
    assert code == 2
    assert "limit" in err
    code, out, err = run_cli(capsys, ["census", "--p", "101", "--n", "2",
                                      "--limit", "20000"])
    assert code == 2 and out == ""
    assert "p^n <= 10000" in err
    # the refusal names the bound, never the digits of p^n
    code, out, err = run_cli(capsys, ["census", "--p", "3", "--n", "100000"])
    assert code == 2 and out == ""
    assert err == ("error: census needs the index tables of GF(p^n), which "
                   "stop at p^n <= 10000; GF(3^100000) is larger\n")


GF101_2 = ["--coeff", "gf(101,2)", "--sigma", "frobenius:1", "--c", "0,1"]


def test_autgroup_above_the_table_bound_answers(capsys):
    # the b equations need only square roots, which need no index tables
    result = json.loads(_json_run(capsys, ["autgroup"] + GF101_2))["result"]
    assert result["order"] == 4 and result["complete"] is True


def _no_walk(monkeypatch):
    def walk(D):
        raise AssertionError("the division ran a rank walk")

    monkeypatch.setattr(dickson.doubling, "_first_singular_left_factor", walk)


def test_division_above_the_table_bound_answers_a_nonsquare(
        capsys, monkeypatch):
    # Euler's criterion needs no index tables
    _no_walk(monkeypatch)
    code, out, err = run_cli(capsys, ["division"] + GF101_2)
    assert code == 0, err
    assert "verdict:  proved-division" in out


@pytest.mark.parametrize("p, n, c", [(101, 2, "4,0"), (3, 20, "0,0,1"),
                                     (2, 14, "0,1")])
def test_division_above_the_table_bound_proves_a_square(
        capsys, monkeypatch, p, n, c):
    # c's root comes from Tonelli-Shanks; the witness is the theorem pair
    # of (sqrt c, 1, 1), ((r, 1), (-r, 1)), without the rank walk
    _no_walk(monkeypatch)
    c = ",".join((c.split(",") + ["0"] * n)[:n])
    result = json.loads(_json_run(capsys, [
        "division", "--coeff", "gf(%d,%d)" % (p, n), "--sigma",
        "frobenius:1", "--c", c]))["result"]
    assert result["verdict"] == "proved-not-division"
    K = dickson.make_field(p, n)
    (r, one), (neg_r, one_again) = [
        [K.element([int(x) for x in lit.split(",")]) for lit in half]
        for half in result["witness"]]
    assert one == one_again == K.one() and neg_r == -r
    assert r * r == K.element([int(x) for x in c.split(",")])
    assert r.index <= neg_r.index


def test_iso_and_wene_above_the_table_bound(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"coeff": "gf(101,2)", "sigma": "frobenius:1", "c": "4,0"}')
    b.write_text('{"coeff": "gf(101,2)", "sigma": "frobenius:1", "c": "9,0"}')
    result = json.loads(_json_run(capsys, [
        "iso", "--spec", str(a), "--spec2", str(b)]))["result"]
    # b = 2/3 or -2/3 with b^2 = 4/9; 33 = -2/3 mod 101 has the smaller index
    assert result["status"] == "yes"
    assert result["witness"] == {"b": "33,0", "tau": "frobenius^0"}
    result = json.loads(_json_run(capsys, [
        "wene", "--coeff", "gf(101,2)", "--sigma", "frobenius:1",
        "--c", "3,0"]))["result"]
    assert result["consistent"] is True


def test_autgroup_over_qp_above_the_table_bound(capsys):
    # the residue field GF(101^2) of the unramified extension has no tables
    result = json.loads(_json_run(capsys, [
        "autgroup", "--coeff", "qp(101;sqrt_u;8)", "--sigma", "conjugate",
        "--c", "2,1"]))["result"]
    assert result["order"] == 4 and result["complete"] is True


def test_autgroup_over_finite_quaternions_above_the_table_bound(capsys):
    # the central roots are taken in GF(10007): 1 has the roots +-1 and
    # -1 (for conj-by j) none, since 10007 = 3 mod 4
    result = json.loads(_json_run(capsys, [
        "autgroup", "--coeff", "quat(-1,-1;10007)", "--sigma",
        "conjugation:1,1,0,0", "--c", "0,1,0,0", "--variant", "left",
        "--tau", "conjugation:0,0,1,0", "--tau",
        "conjugation:1,1,0,0"]))["result"]
    assert result["order"] == 4 and result["complete"] is False
    assert result["elements"] == [
        {"b": b, "tau": tau}
        for tau in ("conj-by(1,0,0,0)", "conj-by(1,1,0,0)")
        for b in ("1,0,0,0", "10006,0,0,0")]
    assert result["subgroups"]["J_c"] == ["conj-by(1,0,0,0)",
                                          "conj-by(1,1,0,0)"]


def test_census_reruns_from_its_echoed_input(capsys):
    first = json.loads(_json_run(capsys, ["census", "--p", "3", "--n", "4",
                                          "--limit", "81"]))
    assert first["input"] == {"p": 3, "n": 4, "limit": 81}
    argv = ["census"] + ["--%s=%d" % kv for kv in first["input"].items()]
    again = json.loads(_json_run(capsys, argv))
    assert again["result"] == first["result"]


def test_seed_is_a_construct_flag_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["division", "--coeff", "gf(3,2)", "--sigma", "frobenius:1",
              "--c", "0,1", "--seed", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 3" in captured.err
    code, out, err = run_cli(capsys, [
        "construct", "--coeff", "gf(3,2)", "--sigma", "frobenius:1",
        "--c", "0,1", "--seed", "3"])
    assert code == 0, err
    assert "all_passed:  true" in out


def test_closed_pipe_exits_quietly():
    """dickson census ... | head: a reader that closes the pipe before the
    report is written ends the run with status 1 and no traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dickson.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dickson", "census", "--p", "3", "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    # closed before the child has imported the package, so every write of
    # the report meets a pipe without a reader
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_autgroup_quaternion_taus(capsys):
    code, out, _ = run_cli(capsys, [
        "autgroup", "--coeff", "quat(2,3)", "--sigma",
        "conjugation:0,1,0,0", "--c", "2,0,0,0", "--tau", "id",
        "--tau", "conjugation:0,1,0,0"])
    assert code == 0
    assert "order:             4" in out
    assert "complete:          false" in out


def test_autgroup_quaternion_default_taus_are_id_and_sigma(capsys):
    base = ["autgroup", "--coeff", "quat(2,3)", "--sigma",
            "conjugation:0,1,0,0", "--c", "0,1,1,0", "--variant", "left",
            "--format", "json"]
    code, out, err = run_cli(capsys, base)
    assert code == 0, err
    code2, out2, _ = run_cli(capsys, base + ["--tau", "id", "--tau",
                                             "conjugation:0,1,0,0"])
    assert code2 == 0
    default, explicit = json.loads(out), json.loads(out2)
    del default["wall_time_s"], explicit["wall_time_s"]
    assert default == explicit


@pytest.mark.parametrize("coeff, sigma, c", [
    ("quad(2)", "conjugate", "1,1"),
    ("gf(3,2)", "frobenius:1", "0,1"),
])
def test_autgroup_refuses_tau_over_commutative_kinds(capsys, coeff, sigma, c):
    code, out, err = run_cli(capsys, [
        "autgroup", "--coeff", coeff, "--sigma", sigma, "--c", c,
        "--tau", "id"])
    assert code == 2
    assert out == ""
    assert "quaternion coefficients only" in err
    assert coeff.rstrip(")") in err and "exhaustive" in err


def test_negative_element_literal_after_a_space(capsys):
    code, out, err = run_cli(capsys, [
        "division", "--coeff", "quad(2)", "--sigma", "conjugate",
        "--c", "-1,1"])
    assert code == 0, err
    assert "verdict:  proved-division" in out
    _, joined, _ = run_cli(capsys, [
        "division", "--coeff", "quad(2)", "--sigma", "conjugate",
        "--c=-1,1"])
    assert out == joined


def test_negative_literals_for_witness_flags(capsys):
    code, out, err = run_cli(capsys, [
        "witness-zero-divisor", "--coeff", "quad(2)", "--sigma",
        "conjugate", "--c", "1,0", "--r", "-1,1", "--s", "-2,0", "--t",
        "-1,3"])
    assert code == 0, err
    assert "product_is_zero:  true" in out


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "dickson", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_decision_path_runs_without_numpy():
    """numpy is no dependency: with it blocked, the CLI imports and decides
    a GF(49) doubling, the rank walk over its 2401 left factors agrees,
    the brute-force oracle agrees with the enumeration over GF(9), and
    nothing tries to load numpy."""
    child = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None",
        "import dickson.cli",
        "from dickson.analysis import enumerate_automorphisms",
        "from dickson.doubling import zero_divisor_search",
        "from dickson.parsing import algebra_from_document",
        "from oracles import automorphism_images, oracle_automorphisms",
        "rc = dickson.cli.main(['division', '--coeff', 'gf(7,2)',",
        "                       '--sigma', 'frobenius:1', '--c', '0,1'])",
        "D49 = algebra_from_document({'coeff': 'gf(7,2)',",
        "                             'sigma': 'frobenius:1', 'c': '0,1'})",
        "print('walk:', zero_divisor_search(D49)[0])",
        "D = algebra_from_document({'coeff': 'gf(3,2)',",
        "                           'sigma': 'frobenius:1', 'c': '0,1'})",
        "prints = sorted(automorphism_images(D, d)",
        "                for d in enumerate_automorphisms(D).elements)",
        "oracle = oracle_automorphisms(D)",
        "print('oracle agrees:', oracle == prints, len(oracle))",
        "sys.exit(rc if sys.modules['numpy'] is None else 3)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(dickson.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join((src, tests))))
    assert proc.returncode == 0, proc.stderr
    assert "verdict:  proved-division" in proc.stdout
    assert "c is not a square (Euler's criterion)" in proc.stdout
    assert "walk: none" in proc.stdout
    assert "oracle agrees: True 4" in proc.stdout


def test_parser_reuse_leaks_no_state_between_calls(capsys):
    """main builds its parser once per process: an autgroup call with
    --tau must not change the answer of a later call without it."""
    base = ["autgroup", "--coeff=quat(2,3)", "--sigma=conjugation:0,1,0,0",
            "--c=2,0,0,0", "--variant=left", "--format=json"]
    code, _, err = run_cli(capsys, base + ["--tau=id",
                                           "--tau=conjugation:0,0,1,0"])
    assert code == 0, err
    code, out, err = run_cli(capsys, base)
    assert code == 0, err
    src = os.path.dirname(os.path.dirname(os.path.abspath(dickson.__file__)))
    proc = subprocess.run([sys.executable, "-m", "dickson"] + base,
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    in_process, fresh = json.loads(out), json.loads(proc.stdout)
    del in_process["wall_time_s"], fresh["wall_time_s"]
    assert in_process == fresh


@pytest.mark.parametrize("argv", [
    ["division", "--coeff=gf(3,3)", "--sigma=frobenius:1", "--c=0,1,0"],
    ["nuclei", "--coeff=gf(5,2)", "--sigma=frobenius:1", "--c=0,1"],
    ["nuclei", "--coeff=quat(2,3)", "--sigma=conjugation:0,1,0,0",
     "--c=2,0,0,0", "--variant=middle", "--format=json"],
    ["division", "--coeff=gf(3,2)", "--sigma=frobenius:1", "--c=1,0"],
])
def test_main_frees_its_cyclic_garbage_before_returning(capsys, argv):
    """A command leaves its field or algebra in reference cycles; main
    collects them, so a process that calls main repeatedly does not pay
    for one call's garbage inside a later call.  The first call fills the
    process caches and may pass the collector's threshold on its own; the
    repeated one must leave nothing behind."""
    for _ in range(2):
        gc.collect()
        code, _, err = run_cli(capsys, argv)
        assert code == 0, err
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# the envelope writer and the direct dispatch write and read what the
# stdlib json and the full argparse parser do

HERE = os.path.dirname(os.path.abspath(__file__))


def _stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=str)


def _recorded_answers():
    with open(os.path.join(HERE, "answers_seed1.jsonl")) as f:
        return [json.loads(line) for line in f]


def test_writer_matches_stdlib_on_recorded_envelopes():
    with open(os.path.join(HERE, "golden_answers.json")) as f:
        envelopes = list(json.load(f).values())
    envelopes += [a["envelope"] for a in _recorded_answers()]
    assert len(envelopes) > 360
    for envelope in envelopes:
        assert _json(envelope, "") == _stdlib(envelope)


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                          '\xe9\u2211\U0001f600'),
                          st.characters()))
_LEAVES = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf]),
    st.fractions())
_NESTED = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NESTED)
def test_writer_matches_stdlib_on_nested_values(obj):
    assert _json(obj, "") == _stdlib(obj)


@pytest.mark.parametrize("obj", [
    {1: "a"}, {"a": {None: 1}}, [{1.5: 2}], {"a": [{True: 1}]},
    {Fraction(1, 2): 0},
])
def test_writer_refuses_keys_that_are_not_str(obj):
    with pytest.raises(TypeError):
        _json(obj, "")


def _readme_argvs():
    with open(os.path.join(os.path.dirname(HERE), "README.md")) as f:
        return [shlex.split(line)[2:] for line in f
                if line.startswith("$ dickson ")]


def test_dispatch_reads_what_the_full_parser_reads():
    argvs = ([a["argv"] + ["--format=json"] for a in _recorded_answers()]
             + _readme_argvs())
    assert len(argvs) > 370
    parser = build_parser()
    for argv in argvs:
        assert vars(_parse(parser, argv)) == vars(parser.parse_args(argv))


def _parse_outcome(capsys, parse, argv):
    try:
        parsed, code = vars(parse(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    out, err = capsys.readouterr()
    return parsed, code, out, err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["frobnicate", "--c=0,1"],
    ["division", "-h"], ["division", "--version"],
    ["division", "--coeff=gf(3,2)", "--bogus"],
    ["division", "--coeff=gf(3,2)", "extra"],
    ["division", "--coe=gf(3,2)", "--sigma=frobenius:1", "--c=0,1"],
    ["--"], ["--", "division"], ["division", "--", "--c=0,1"],
    ["division", "--format=xml"],
    ["census", "--p", "3"],
    ["division", "--=x"],
])
def test_dispatch_prints_and_exits_as_the_full_parser(capsys, argv):
    parser = build_parser()
    assert (_parse_outcome(capsys, lambda a: _parse(parser, a), argv)
            == _parse_outcome(capsys, parser.parse_args, argv))
