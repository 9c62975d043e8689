"""Every command documented in the README runs here, against the same
flags the README shows, and the salient output lines are pinned."""

import json
import os
import subprocess
import sys

import pytest

import dickson
from dickson.cli import build_parser, main


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
NO_TABLES = "error: no index tables for GF(101^2): they stop at p^n <= 10000\n"


def test_autgroup_above_the_table_bound_names_it(capsys):
    code, out, err = run_cli(capsys, ["autgroup"] + GF101_2)
    assert code == 2 and out == ""
    assert err == NO_TABLES


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


def test_division_above_the_table_bound_refuses_before_the_walk(
        capsys, monkeypatch):
    # 4 is a square, and its root is read off the index tables
    _no_walk(monkeypatch)
    code, out, err = run_cli(capsys, ["division"] + GF101_2[:-1] + ["4,0"])
    assert code == 2 and out == ""
    assert err == NO_TABLES


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
