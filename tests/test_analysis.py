import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

import dickson
from dickson import analysis, doubling
from dickson.analysis import (apply_automorphism, census, compose_descriptors,
                              division_decide, enumerate_automorphisms,
                              group_structure, iso_test, subgroups,
                              verify_automorphism, verify_isomorphism,
                              wene_inner_check)
from dickson.doubling import DicksonAlgebra, FieldCoefficients
from dickson.fields import FrobeniusAut, make_field
from dickson.parsing import algebra_from_document, parse_element
from dickson.padics import PadicContext, PadicQuadExt
from dickson.quadratic import QuadField
from dickson.quaternions import InnerAut, QuaternionAlgebra
from dickson.reports import DIVISION
from oracles import (aut_bounds_check, automorphism_images,
                     oracle_automorphisms)


def _gf(p, n, c_coeffs, k=1):
    K = make_field(p, n)
    return DicksonAlgebra(K, FrobeniusAut(K, k), K.element(c_coeffs))


# ---------------------------------------------------------------------------
# division verdicts

def test_division_finite_three_way_agreement_every_c():
    """Scan, critical-value set and quadratic character must agree for
    every nonzero c; the decider raises internally if they ever split."""
    for p, n in ((3, 2), (5, 2)):
        K = make_field(p, n)
        phi = FrobeniusAut(K, 1)
        for c in K.elements():
            if c.is_zero():
                continue
            D = DicksonAlgebra(K, phi, c)
            verdict = division_decide(D)
            assert (verdict.status == DIVISION) == (not K.is_square(c))
            assert verdict.notes.endswith("critical-value set and quadratic "
                                          "character agree")
            if verdict.status != DIVISION:
                x, y = verdict.witness
                assert D.mul(x, y).is_zero()
                assert not x.is_zero() and not y.is_zero()


def test_division_char2_never_division():
    K = make_field(2, 2)
    phi = FrobeniusAut(K, 1)
    for c in K.elements():
        if c.is_zero():
            continue
        v = division_decide(DicksonAlgebra(K, phi, c))
        assert v.status == "proved-not-division"
        assert v.witness is not None
        # no quadratic character is compared in characteristic 2
        assert v.notes == ("lexicographically first annihilating pair; "
                           "critical-value set agrees; no quadratic-character "
                           "test in characteristic 2")


def test_division_identity_sigma_cases():
    K = make_field(3, 2)
    ident = FrobeniusAut(K, 0)
    # non-square c: adjoining a root gives the field GF(81)
    D = DicksonAlgebra(K, ident, K.gen(), allow_identity=True)
    assert division_decide(D).status == "proved-division"
    # square c: splits, witness pair demanded
    D2 = DicksonAlgebra(K, ident, K.gen() * K.gen(), allow_identity=True)
    v2 = division_decide(D2)
    assert v2.status == "proved-not-division"
    x, y = v2.witness
    assert D2.mul(x, y).is_zero()


def test_division_quad_sqrt2():
    Q = QuadField(2)
    D = DicksonAlgebra(Q, "conjugate", Q.root())
    assert division_decide(D).status == "proved-division"


def test_division_quad_square_c_every_variant():
    Q = QuadField(2)
    for variant in ("commutative", "left", "middle", "right"):
        D = DicksonAlgebra(Q, "conjugate", Q.element(2, 0), variant)
        v = division_decide(D)
        assert v.status == "proved-not-division"
        x, y = v.witness
        assert D.mul(x, y).is_zero()
        assert not x.is_zero() and not y.is_zero()


def test_division_padic_sqrt5():
    ctx = PadicContext(5)
    K = PadicQuadExt(ctx, "sqrt_p")
    D = DicksonAlgebra(K, "conjugate", K.root())
    assert division_decide(D).status == "proved-division"


def test_division_padic_square_and_unknown():
    ctx = PadicContext(5)
    K = PadicQuadExt(ctx, "sqrt_p")
    z = K.element(ctx.from_fraction(2), ctx.from_fraction(3))
    D = DicksonAlgebra(K, "conjugate", z * z)
    v = division_decide(D)
    assert v.status == "proved-not-division"
    x, y = v.witness
    assert D.mul(x, y).is_zero()
    # a 1-unit of the ramified extension is a square, found by the solver
    w = K.element(ctx.from_fraction(1), ctx.from_fraction(1))
    v2 = division_decide(DicksonAlgebra(K, "conjugate", w))
    assert v2.status == "proved-not-division"
    # norm a square but c a non-residue unit: stays unknown, never guesses
    u = K.element(ctx.from_fraction(2), ctx.zero())
    v3 = division_decide(DicksonAlgebra(K, "conjugate", u))
    assert v3.status == "unknown"
    assert v3.method == "norm-criterion"


def test_division_quaternion_i_plus_j():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    c = B.element(0, 1, 1, 0)
    assert c.norm() == -5
    for variant in ("left", "middle", "right"):
        D = DicksonAlgebra(B, sigma, c, variant)
        v = division_decide(D)
        assert v.status == "proved-division"
        assert v.method == "norm-criterion"


def test_division_quaternion_square_c_every_variant():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    c = B.element(2, 0, 0, 0)            # the square of i
    for variant in ("left", "middle", "right"):
        D = DicksonAlgebra(B, sigma, c, variant)
        v = division_decide(D)
        assert v.status == "proved-not-division"
        x, y = v.witness
        assert D.mul(x, y).is_zero()


def test_division_split_quaternions_give_witness():
    B = QuaternionAlgebra(2, 3, p=5)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    D = DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0), "left")
    v = division_decide(D)
    assert v.status == "proved-not-division"
    assert v.method == "split-coefficients"
    x, y = v.witness
    assert D.mul(x, y).is_zero()


def test_identity_sigma_over_finite_quaternions_is_split():
    # c = 1 is a square; the split check runs before the sigma = id one
    for p in (3, 5, 7):
        for a in range(1, p):
            for b in range(1, p):
                B = QuaternionAlgebra(a, b, p=p)
                for variant in ("left", "middle", "right"):
                    D = DicksonAlgebra(B, "id", B.one(), variant,
                                       allow_identity=True)
                    v = division_decide(D)
                    assert v.status == "proved-not-division"
                    assert v.method == "split-coefficients"
                    x, y = v.witness
                    assert not x.is_zero() and not y.is_zero()
                    assert D.mul(x, y).is_zero()


def test_identity_sigma_over_split_rational_quaternions():
    B = QuaternionAlgebra(1, 1)
    for variant in ("left", "middle", "right"):
        D = DicksonAlgebra(B, "id", B.element(2, 0, 0, 0), variant,
                           allow_identity=True)
        v = division_decide(D)
        assert v.status == "proved-not-division"
        x, y = v.witness
        assert D.mul(x, y).is_zero()


def test_identity_sigma_central_square_is_never_division():
    # -2 = (i + j)^2 in (-1,-1 | Q), a square the central test cannot see
    B = QuaternionAlgebra(-1, -1)
    m = B.element(0, 1, 1, 0)
    assert m * m == B.element(-2, 0, 0, 0)
    for variant in ("left", "middle", "right"):
        D = DicksonAlgebra(B, "id", B.element(-2, 0, 0, 0), variant,
                           allow_identity=True)
        assert division_decide(D).status != "proved-division"


def test_identity_sigma_nonsquare_over_division_quaternions():
    # N(i) = -2 is not a rational square, so i is no square in (2,3 | Q)
    B = QuaternionAlgebra(2, 3)
    for variant in ("left", "middle", "right"):
        D = DicksonAlgebra(B, "id", B.i(), variant, allow_identity=True)
        v = division_decide(D)
        assert v.status == "proved-division"
        assert "field" not in v.notes


# Witness and root checks must hold under ``python -O`` too: plant a wrong
# square root at each check and expect RuntimeError, not a wrong answer.
_WRONG_WITNESS_SCRIPT = textwrap.dedent("""
    import dickson.doubling as doubling
    import dickson.quadratic as quadratic
    import dickson.quaternions as quaternions
    from dickson.analysis import division_decide
    from dickson.parsing import algebra_from_document

    def attempt(name, fn):
        try:
            print(name, "returned", fn())
        except RuntimeError as exc:
            print(name, "raised", exc)

    # 11 + 6 sqrt(2) = (3 + sqrt(2))^2 and 11 + 6i = (3 + i)^2 in (2,3|Q)
    # find the root 3 of 9; i^2 = 2 is found from the root 1 of 2/2
    real = quadratic.rational_sqrt
    wrong = lambda r: {9: 4, 1: 2}.get(r, real(r))
    quadratic.rational_sqrt = quaternions.rational_sqrt = wrong
    K = quadratic.QuadField(2)
    B = quaternions.QuaternionAlgebra(2, 3)
    attempt("quad-root", lambda: quadratic.quad_is_square(K.element(11, 6)))
    attempt("quat-root", lambda: quaternions.quat_is_square(
        B.element(11, 6, 0, 0)))
    attempt("quat-axis-root", lambda: quaternions.quat_is_square(
        B.element(2, 0, 0, 0)))
    quadratic.rational_sqrt = quaternions.rational_sqrt = real

    doubling.QuadCoefficients.is_square = lambda self, x: (True,
                                                           x.field.one())
    attempt("quad-pair", lambda: division_decide(algebra_from_document(
        {"coeff": "quad(2)", "sigma": "conjugate", "c": "11,6"})))
    attempt("root-pair", lambda: division_decide(algebra_from_document(
        {"coeff": "quad(2)", "sigma": "id", "c": "2,0",
         "allow_identity": True})))
    doubling.critical_value = lambda D, r, s, t: D.c
    D = algebra_from_document({"coeff": "gf(5,2)", "sigma": "frobenius:1",
                               "c": "0,1"})
    K5 = D.coeff.K
    attempt("theorem-pair", lambda: doubling.theorem_zero_divisor_witness(
        D, K5.element([1, 1]), K5.element([2, 1]), K5.element([1, 2])))
""")


def test_division_gf343_under_the_default_cap(monkeypatch):
    monkeypatch.delenv("DICKSON_MAX_EXHAUSTIVE", raising=False)
    K = make_field(7, 3)
    sigma = FrobeniusAut(K, 1)
    nonsquare = next(c for c in K.elements()
                     if not c.is_zero() and not K.is_square(c))
    v = division_decide(DicksonAlgebra(K, sigma, nonsquare))
    assert v.status == "proved-division"
    assert "among all %d ordered pairs" % 343 ** 4 in v.notes
    D = DicksonAlgebra(K, sigma, K.gen() * K.gen())
    v = division_decide(D)
    assert v.status == "proved-not-division"
    x, y = v.witness
    assert not x.is_zero() and not y.is_zero()
    assert D.mul(x, y).is_zero()


def test_witness_checks_run_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dickson.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_WITNESS_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "quad-root", "quat-root", "quat-axis-root", "quad-pair", "root-pair",
        "theorem-pair"]
    assert all(line.split()[1] == "raised" for line in lines), lines


# ---------------------------------------------------------------------------
# subgroup reports

def test_subgroups_gf9():
    out = subgroups(_gf(3, 2, [0, 1])).to_dict()
    assert out["aut"] == ["frobenius^0", "frobenius^1"]
    assert out["J_c"] == ["frobenius^0", "frobenius^1"]
    assert out["C_sigma"] == ["frobenius^0", "frobenius^1"]
    assert out["J_and_C"] == ["frobenius^0", "frobenius^1"]
    assert out["isotropy"] == ["frobenius^0"]
    assert out["closure_checked"]


def test_subgroups_j_membership_matches_direct_square_test():
    K = make_field(3, 3)
    phi = FrobeniusAut(K, 1)
    for c in (K.gen(), K.gen() * K.gen()):
        rep = subgroups(DicksonAlgebra(K, phi, c)).to_dict()
        for tau in K.automorphisms():
            ratio = tau(c) * c.inv()
            assert (("frobenius^%d" % tau.k) in rep["J_c"]) \
                == K.is_square(ratio)


# ---------------------------------------------------------------------------
# automorphism enumeration and verification

def test_enumerate_gf9_order_4_all_verified():
    D = _gf(3, 2, [0, 1])
    rep = enumerate_automorphisms(D)
    assert rep.order == 4
    assert rep.complete
    for desc in rep.elements:
        assert verify_automorphism(D, desc)
    labels = [(d["tau"], d["b"]) for d in rep.labels]
    assert labels == [("frobenius^0", "1,0"), ("frobenius^0", "2,0"),
                      ("frobenius^1", "1,1"), ("frobenius^1", "2,2")]


def test_enumerate_gf27_order_6():
    D = _gf(3, 3, [0, 1, 0])
    rep = enumerate_automorphisms(D)
    assert rep.order == 6
    assert rep.complete


def test_enumeration_matches_oracle_gf9_and_gf25():
    """Also over GF(27), where the oracle's generator satisfies a cubic,
    with both non-trivial Frobenius powers."""
    for p, n, ks in ((3, 2, (1,)), (5, 2, (1,)), (3, 3, (1, 2))):
        K = make_field(p, n)
        nonsquares = [c for c in K.elements()
                      if not c.is_zero() and not K.is_square(c)]
        for k in ks:
            for c in nonsquares[:2]:
                D = DicksonAlgebra(K, FrobeniusAut(K, k), c)
                rep = enumerate_automorphisms(D)
                prints = sorted(automorphism_images(D, d)
                                for d in rep.elements)
                assert prints == oracle_automorphisms(D)


def test_apply_and_compose_descriptors():
    D = _gf(3, 2, [0, 1])
    rep = enumerate_automorphisms(D)
    rng = random.Random(4)
    for d1 in rep.elements:
        for d2 in rep.elements:
            comp = compose_descriptors(D, d1, d2)
            for _ in range(6):
                z = D.random_element(rng)
                assert apply_automorphism(D, comp, z) == \
                    apply_automorphism(D, d1, apply_automorphism(D, d2, z))


def test_rejected_automorphism_candidate():
    D = _gf(3, 2, [0, 1])
    K = D.coeff.K
    with pytest.raises(AssertionError):
        verify_automorphism(D, (FrobeniusAut(K, 1), K.one()))


def test_aut_bounds_hold():
    for args in ((3, 2, [0, 1]), (3, 3, [0, 1, 0]), (5, 2, [0, 1])):
        out = aut_bounds_check(_gf(*args))
        assert out["lower"] <= out["order"] <= out["upper"]
        assert out["within"]


# ---------------------------------------------------------------------------
# group structure

def test_group_structure_gf9_undetermined():
    D = _gf(3, 2, [0, 1])
    rep = group_structure(D, enumerate_automorphisms(D))
    assert rep.structure == "undetermined"
    assert "element orders [1, 2, 4, 4]" in rep.structure_detail
    assert rep.labeling["orbit_products_all"] == ["+1", "-1", "-1", "-1"]
    assert rep.labeling["generator"] == "frobenius^1"


def test_group_structure_gf27_splits():
    D = _gf(3, 3, [0, 1, 0])
    rep = group_structure(D, enumerate_automorphisms(D))
    assert rep.structure == "yes"
    assert "Z/3 x Z/2" in rep.structure_detail
    assigns = rep.labeling["assignments"]
    assert len(assigns) == 6
    assert {(a["power"], a["sign"]) for a in assigns} \
        == {(i, s) for i in range(3) for s in (1, -1)}


def test_group_structure_failed_labeling_is_a_program_fault():
    # the labeling of an enumerated group is an isomorphism by construction,
    # so elements that disagree with their table raise instead of "no"
    D = _gf(3, 3, [0, 1, 0])
    rep = enumerate_automorphisms(D)
    rep.elements[-2:] = rep.elements[:-3:-1]
    with pytest.raises(RuntimeError, match="homomorphism"):
        group_structure(D, rep)


def test_group_structure_fixed_c_klein_four():
    # c in the prime field is sigma-fixed, both orbit products are +1 and
    # the labeling lands on the Klein four-group
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.from_int(2))
    rep = group_structure(D, enumerate_automorphisms(D))
    assert rep.order == 4
    assert rep.structure == "yes"
    assert "Z/2 x Z/2" in rep.structure_detail


def test_orbit_products_are_signs_everywhere():
    for args in ((3, 2, [0, 1]), (3, 3, [0, 1, 0]), (5, 2, [0, 1])):
        D = _gf(*args)
        rep = group_structure(D, enumerate_automorphisms(D))
        prods = rep.labeling["orbit_products_all"]
        assert len(prods) == rep.order
        assert all(s in ("+1", "-1") for s in prods)


@pytest.mark.parametrize("doc", [
    {"coeff": "gf(3,3)", "sigma": "frobenius:1", "c": "0,1,0"},
    {"coeff": "quad(2)", "sigma": "conjugate", "c": "3,1"},
    {"coeff": "qp(5;sqrt_p)", "sigma": "conjugate", "c": "2"},
    {"coeff": "quat(2,3)", "sigma": "conjugation:0,1,0,0", "c": "2,0,0,0",
     "variant": "left"},
    {"coeff": "quat(1,2;5)", "sigma": "conjugation:0,1,0,0", "c": "0,0,1,0",
     "variant": "left"},
])
def test_enumeration_keeps_its_subgroups_and_a_latin_table(doc):
    D = algebra_from_document(doc)
    taus = ["id", D.sigma] if D.coeff.witness_relative else None
    rep = enumerate_automorphisms(D, taus)
    assert rep.subgroups.to_dict() == subgroups(D, taus).to_dict()
    assert rep.complete == (not D.coeff.witness_relative)
    if rep.complete:
        everything = list(range(rep.order))
        assert all(sorted(row) == everything for row in rep.table)
        assert all(sorted(col) == everything for col in zip(*rep.table))


# ---------------------------------------------------------------------------
# p-adic and quaternion coefficient groups

def test_padic_aut_order_4_random_c():
    ctx = PadicContext(5)
    rng = random.Random(55)
    for kind in ("sqrt_p", "sqrt_u", "sqrt_up"):
        K = PadicQuadExt(ctx, kind)
        for _ in range(8):
            c = K.random_element(rng)
            D = DicksonAlgebra(K, "conjugate", c)
            rep = enumerate_automorphisms(D)
            assert rep.order == 4
            assert subgroups(D).to_dict()["J_c"] == ["id", "conjugate"]


def test_quaternion_autgroup_witness_relative():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    D = DicksonAlgebra(B, sigma, B.element(2, 0, 0, 0), "left")
    rep = enumerate_automorphisms(D, taus=["id", sigma])
    assert rep.order == 4
    assert not rep.complete
    for desc in rep.elements:
        assert verify_automorphism(D, desc)


def test_quaternion_identity_labels():
    # sigma = id describes as "id"; inside a witness list the identity is
    # the conjugation by 1
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    D = DicksonAlgebra(B, "id", B.element(0, 0, 1, 0), "left",
                       allow_identity=True)
    assert D.describe()["sigma"] == "id"
    assert subgroups(D, taus=["id", D.sigma]).to_dict()["aut"] == [
        "conj-by(1,0,0,0)"]
    D = DicksonAlgebra(B, sigma, B.element(2, 0, 0, 0), "left")
    assert subgroups(D, taus=["id", sigma]).to_dict()["aut"] == [
        "conj-by(1,0,0,0)", "conj-by(0,1,0,0)"]
    rep = enumerate_automorphisms(D, taus=["id", sigma])
    assert sorted({lab["tau"] for lab in rep.labels}) == [
        "conj-by(0,1,0,0)", "conj-by(1,0,0,0)"]


def test_quaternion_subgroups_need_witnesses():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    D = DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0), "left")
    with pytest.raises(ValueError):
        subgroups(D)


# ---------------------------------------------------------------------------
# isomorphism testing

def test_iso_same_sigma_nonsquare_cs_yes():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    D1 = DicksonAlgebra(K, phi, K.gen())
    D2 = DicksonAlgebra(K, phi, K.gen().inv())
    v = iso_test(D1, D2)
    assert v.status == "yes"
    # re-verify the reported witness from its printed form
    tau = FrobeniusAut(K, int(v.witness["tau"].split("^")[1]))
    b = K.element([int(t) for t in v.witness["b"].split(",")])
    assert verify_isomorphism(D1, D2, tau, b)


def test_iso_division_vs_split_no():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    D1 = DicksonAlgebra(K, phi, K.gen())
    D2 = DicksonAlgebra(K, phi, K.gen() * K.gen())
    assert iso_test(D1, D2).status == "no"


def test_iso_different_sigma_powers_no():
    K = make_field(3, 4)
    D1 = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    D2 = DicksonAlgebra(K, FrobeniusAut(K, 2), K.gen())
    assert iso_test(D1, D2).status == "no"


def test_iso_kind_mismatch_no():
    K = make_field(3, 2)
    D1 = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    Q = QuadField(2)
    D2 = DicksonAlgebra(Q, "conjugate", Q.root())
    v = iso_test(D1, D2)
    assert v.status == "no"
    assert "kind" in v.reason


def test_iso_same_order_different_moduli_unknown():
    K1 = make_field(3, 2)
    K2 = make_field(3, 2, modulus=[1, 0, 1])
    D1 = DicksonAlgebra(K1, FrobeniusAut(K1, 1), K1.gen())
    D2 = DicksonAlgebra(K2, FrobeniusAut(K2, 1), K2.element([1, 1]))
    assert iso_test(D1, D2).status == "unknown"


def test_iso_quad_conjugate_cs():
    Q = QuadField(2)
    c = Q.element(3, 1)
    D1 = DicksonAlgebra(Q, "conjugate", c)
    D2 = DicksonAlgebra(Q, "conjugate", c.conjugate())
    assert iso_test(D1, D2).status == "yes"


def test_iso_quaternion_witness_relative():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    c = B.element(0, 0, 1, 0)
    D1 = DicksonAlgebra(B, sigma, c, "middle")
    D2 = DicksonAlgebra(B, sigma, -c, "middle")
    # without witnesses the search cannot conclude
    assert iso_test(D1, D2).status == "unknown"
    # conjugation by i sends j to -j and produces a genuine isomorphism
    v = iso_test(D1, D2, taus=[sigma])
    assert v.status == "yes"


# ---------------------------------------------------------------------------
# census

def test_census_3_2():
    rep = census(3, 2)
    assert rep.classes_excluding_id == 1
    assert rep.classes_including_id == 2
    sigmas = {cl["sigma"] for cl in rep.classes}
    assert sigmas == {"frobenius^0", "frobenius^1"}
    for cl in rep.classes:
        assert cl["size"] == len(cl["members"]) == 4
    for entry in rep.entries:
        assert entry["division"] == "proved-division"


def test_census_3_3():
    rep = census(3, 3)
    assert rep.classes_excluding_id == 2
    assert rep.classes_including_id == 3
    assert sum(cl["size"] for cl in rep.classes) == len(rep.entries) == 3 * 13


def test_census_5_2():
    rep = census(5, 2)
    assert rep.classes_excluding_id == 1
    assert rep.classes_including_id == 2


def test_census_7_2_past_the_old_pair_cap():
    # 2401^2 ordered pairs per doubling, over the default cap of 10^6 that
    # once counted pairs; the cap now counts the 2401 left factors
    rep = census(7, 2, limit=49)
    assert rep.classes_excluding_id == 1
    assert rep.classes_including_id == 2


def test_census_guards():
    with pytest.raises(ValueError):
        census(2, 2)
    with pytest.raises(ValueError):
        census(4, 2)
    with pytest.raises(ValueError):
        census(5, 3)
    # no index tables above fields.TABLE_BOUND, whatever the limit
    with pytest.raises(ValueError, match=r"p\^n <= 10000"):
        census(101, 2, limit=20000)
    # exponents far past the bound are refused without forming p^n
    for n in (100000, 10**7):
        started = time.monotonic()
        with pytest.raises(ValueError, match=r"p\^n <= 10000; GF\(3\^%d\)"
                           % n):
            census(3, n)
        assert time.monotonic() - started < 1
    census(5, 2, limit=25)


# sha256 of json.dumps(census(p, n, limit).to_dict(), sort_keys=True), from
# the census that proved every member division by a rank walk and joined it
# to a class by pairwise iso_test
CENSUS_DIGESTS = {
    (3, 4, 81): "b32ea776e2b50a3c8ee68313a22b31b27b61d31ccf362ae3c1cbbf0830473aee",
    (5, 3, 125): "c9d00db9e73274554794eb64ae3bd57bf99544cf8a65c97d943920d26a49cb17",
}


@pytest.mark.parametrize("p, n, limit", sorted(CENSUS_DIGESTS))
def test_census_pinned_reports(p, n, limit):
    rep = census(p, n, limit=limit)
    payload = json.dumps(rep.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == CENSUS_DIGESTS[p, n, limit]
    K = make_field(p, n)
    nonsquares = [c.literal() for c in K.elements()
                  if not c.is_zero() and not K.is_square(c)]
    assert [cl["sigma"] for cl in rep.classes] == [
        "frobenius^%d" % k for k in range(n)]
    assert all(cl["members"] == nonsquares for cl in rep.classes)
    assert (rep.classes_excluding_id, rep.classes_including_id) == (n - 1, n)


@pytest.mark.parametrize("p, n", [(3, 3), (5, 2)])
def test_census_division_column_matches_rank_walk(p, n):
    """The census reads division off the critical-value set; the rank walk
    of division_decide is the independent oracle here."""
    K = make_field(p, n)
    coeff = FieldCoefficients(K)
    sigmas = {s.label: s for s in K.automorphisms()}
    entries = census(p, n).entries
    assert len(entries) == n * (K.order - 1) // 2
    for entry in entries:
        D = DicksonAlgebra(coeff, sigmas[entry["sigma"]],
                           parse_element(coeff, entry["c"]), "commutative",
                           allow_identity=True)
        assert entry["division"] == division_decide(D).status


def test_census_never_walks(monkeypatch):
    def walk(D):
        raise AssertionError("the census ran a rank walk")

    monkeypatch.setattr(doubling, "_first_singular_left_factor", walk)
    assert census(3, 3).classes_including_id == 3
    assert census(5, 3, limit=125).classes_including_id == 3
    with pytest.raises(AssertionError, match="rank walk"):
        division_decide(_gf(3, 2, [0, 1]))


def test_census_planted_wrong_b_raises(monkeypatch):
    """A b that does not map the representative onto a member is a program
    fault: the census raises instead of classifying the member.  Each
    true b times the generator g of GF(9) is wrong, as sigma(g)^2 != 1."""
    true_b = analysis._b_candidates

    def wrong(D1, D2, tau):
        return [b * D2.coeff.K.gen() for b in true_b(D1, D2, tau)]

    monkeypatch.setattr(analysis, "_b_candidates", wrong)
    with pytest.raises(RuntimeError, match="certificate failed"):
        census(3, 2)


@pytest.mark.parametrize("table", [
    [[1, 1], [1, 1]],                  # no row is the identity row
    [[0, 1, 2], [1, 2, 2], [2, 2, 2]],  # the powers of 1 stick at 2
], ids=["no-identity", "not-a-group"])
def test_planted_composition_tables_fail_their_certificates(table):
    with pytest.raises(RuntimeError, match="certificate failed"):
        analysis._element_orders(table)


# ---------------------------------------------------------------------------
# the grouped inner map

def test_wene_sigma_fixes_c_gives_sigma_pair():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    for cval in (1, 2):
        rep = wene_inner_check(DicksonAlgebra(K, phi, K.from_int(cval)))
        assert rep.sigma_fixes_c
        assert rep.grouped_map_is_sigma_pair
        assert rep.consistent
        assert rep.in_automorphism_group


def test_wene_moving_c_is_not_sigma_pair():
    rep = wene_inner_check(_gf(3, 2, [0, 1]))
    assert not rep.sigma_fixes_c
    assert not rep.grouped_map_is_sigma_pair
    assert rep.consistent
    assert rep.in_automorphism_group is None


def test_wene_left_inverse_is_correct():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    c = K.from_int(2)
    D = DicksonAlgebra(K, phi, c)
    rep = wene_inner_check(D)
    w = D.element(K.zero(), phi.inverse()(c.inv()))
    assert rep.left_inverse == w.literal()
    assert D.mul(w, D.adjoined()) == D.unit()


def test_readme_library_snippet():
    # the exact sequence shown in README.md under "Library use"
    from dickson import (DicksonAlgebra, FrobeniusAut, compute_nuclei,
                         division_decide, enumerate_automorphisms, make_field)

    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    D = DicksonAlgebra(K, phi, K.gen())

    assert division_decide(D).status == "proved-division"
    aut = enumerate_automorphisms(D)
    assert aut.order == 4
    assert len(aut.subgroups.intersection) == 2
    assert compute_nuclei(D).dims["middle"] == 2
