import json
from fractions import Fraction

import pytest

from dickson.parsing import (DescriptionError, algebra_from_document,
                             load_document, parse_coefficient, parse_element,
                             parse_sigma)


# ---------------------------------------------------------------------------
# coefficient specs

def test_parse_gf_default_modulus():
    A = parse_coefficient("gf(3,2)")
    assert A.kind == "field"
    assert (A.K.p, A.K.n) == (3, 2)
    assert A.K.modulus == (2, 1, 1)


def test_parse_gf_explicit_modulus():
    A = parse_coefficient("gf(3,2;1,0,1)")
    assert A.K.modulus == (1, 0, 1)


def test_parse_quad_reduces_radicand():
    A = parse_coefficient("quad(8)")
    assert A.kind == "quad"
    assert A.K.a == 2


def test_parse_qp_defaults_and_overrides():
    A = parse_coefficient("qp(5)")
    assert A.kind == "padic"
    assert A.K.kind == "sqrt_p"
    assert A.K.ctx.N == 32
    B = parse_coefficient("qp(7;sqrt_u;16)")
    assert B.K.kind == "sqrt_u"
    assert B.K.ctx.N == 16


def test_qp_label_round_trips_with_its_precision():
    for spec, label in (("qp(5;sqrt_u;4)", "qp(5;sqrt_u;4)"),
                        ("qp(7;sqrt_up;16)", "qp(7;sqrt_up;16)"),
                        ("qp(3;sqrt_p;32)", "qp(3;sqrt_p)"),
                        ("qp(5)", "qp(5;sqrt_p)")):
        A = parse_coefficient(spec)
        assert A.describe() == label
        B = parse_coefficient(label)
        assert (B.K.ctx.p, B.K.kind, B.K.ctx.N) == (A.K.ctx.p, A.K.kind,
                                                    A.K.ctx.N)


def test_parse_quat_rational_and_finite():
    A = parse_coefficient("quat(2,3)")
    assert A.kind == "quat"
    assert (A.B.a, A.B.b, A.B.p) == (Fraction(2), Fraction(3), None)
    B = parse_coefficient("quat(-1,-1;7)")
    assert B.B.p == 7


def test_parse_coefficient_rejections():
    bad = ["gf(3)", "gf(4,2)", "gf(3,2;1,1,1)",     # 1+x+x^2 has the root 1
           "quad(9)", "quad(0)", "qp(2)", "qp(9)", "quat(0,3)",
           "nope(1)", "gf3,2", "quad(2,3)"]
    for text in bad:
        with pytest.raises(DescriptionError):
            parse_coefficient(text)
    with pytest.raises(DescriptionError):
        parse_coefficient(12)


@pytest.mark.parametrize("text, head", [
    ("gf(3,2;2,2,1;junk)", "gf"),
    ("quad(2;junk)", "quad"),
    ("qp(5;sqrt_u;8;junk)", "qp"),
    ("quat(-1,-1;5;junk)", "quat"),
])
def test_parse_coefficient_refuses_extra_parts(text, head):
    with pytest.raises(DescriptionError) as exc:
        parse_coefficient(text)
    assert str(exc.value) == ("coefficient spec %r: %s takes at most %d ';' "
                              "parts" % (text, head, text.count(";")))


# ---------------------------------------------------------------------------
# sigma descriptors

def test_parse_sigma_field_forms():
    A = parse_coefficient("gf(3,3)")
    for spec in ("frobenius:2", "frobenius^2", {"frobenius": 2}):
        tau = parse_sigma(A, spec)
        assert tau.k == 2
    assert parse_sigma(A, "id").k == 0
    with pytest.raises(DescriptionError):
        parse_sigma(A, "conjugate")


def test_parse_sigma_quad_and_padic_forms():
    for spec_text in ("quad(2)", "qp(5)"):
        A = parse_coefficient(spec_text)
        assert parse_sigma(A, "conjugate") == "conjugate"
        assert parse_sigma(A, "id") == "id"
        with pytest.raises(DescriptionError):
            parse_sigma(A, "frobenius:1")


def test_parse_sigma_quaternion_forms():
    A = parse_coefficient("quat(2,3)")
    tau = parse_sigma(A, "conjugation:0,1,0,0")
    assert tau == parse_sigma(A, {"conjugation": [0, 1, 0, 0]})
    assert parse_sigma(A, "id") == "id"
    with pytest.raises(DescriptionError):
        parse_sigma(A, {"conjugation": [0, 1]})
    with pytest.raises(DescriptionError):
        parse_sigma(A, {"frobenius": 1, "conjugation": [0, 1, 0, 0]})
    with pytest.raises(DescriptionError):
        parse_sigma(A, 5)


# ---------------------------------------------------------------------------
# element literals

def test_parse_field_element_reduces_mod_p():
    A = parse_coefficient("gf(3,2)")
    assert parse_element(A, "4,5") == A.K.element([1, 2])
    with pytest.raises(DescriptionError):
        parse_element(A, "1")
    with pytest.raises(DescriptionError):
        parse_element(A, "1,2,3")


def test_parse_quad_element_pair_and_triple():
    A = parse_coefficient("quad(2)")
    assert parse_element(A, "1/2,3") == A.K.element(Fraction(1, 2), 3)
    # 1 + 2*sqrt(8) = 1 + 4*sqrt(2)
    assert parse_element(A, "1,2,8") == A.K.element(1, 4)
    with pytest.raises(DescriptionError):
        parse_element(A, "1,2,3")          # sqrt(3) is not sqrt(2)
    with pytest.raises(DescriptionError):
        parse_element(A, "1,2,0")
    with pytest.raises(DescriptionError):
        parse_element(A, "1")


def test_parse_padic_element_forms():
    A = parse_coefficient("qp(5)")
    ctx = A.K.ctx
    z = parse_element(A, "2:3")
    assert z.x == ctx.from_fraction(75)
    assert z.y.is_zero()
    w = parse_element(A, "7/3,1:1")
    assert w.x == ctx.from_fraction(Fraction(7, 3))
    assert w.y == ctx.from_fraction(5)
    with pytest.raises(DescriptionError):
        parse_element(A, "1,2,3")
    with pytest.raises(DescriptionError):
        parse_element(A, "0:5")            # unit part divisible by p


def test_parse_quat_element_forms():
    A = parse_coefficient("quat(2,3)")
    q = parse_element(A, "1,-2,1/3,0")
    assert (q.x, q.y, q.z, q.w) == (1, -2, Fraction(1, 3), 0)
    with pytest.raises(DescriptionError):
        parse_element(A, "1,2,3")
    F = parse_coefficient("quat(2,3;5)")
    r = parse_element(F, "6,-1,0,0")
    assert (r.x, r.y) == (1, 4)


# ---------------------------------------------------------------------------
# whole documents

def test_document_roundtrip_field():
    D = algebra_from_document(
        {"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,1"})
    assert D.variant == "commutative"
    assert D.coeff.kind == "field"
    assert not D.sigma_is_id


def test_document_default_variant_noncommutative():
    D = algebra_from_document({"coeff": "quat(2,3)",
                               "sigma": "conjugation:0,1,0,0",
                               "c": "0,1,1,0"})
    assert D.variant == "left"


def test_document_rejections():
    base = {"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,1"}
    with pytest.raises(DescriptionError):
        algebra_from_document(dict(base, extra=1))
    for key in ("coeff", "sigma", "c"):
        doc = dict(base)
        del doc[key]
        with pytest.raises(DescriptionError):
            algebra_from_document(doc)
    with pytest.raises(DescriptionError):
        algebra_from_document(dict(base, allow_identity="yes"))
    with pytest.raises(DescriptionError):
        algebra_from_document(dict(base, sigma="id"))
    with pytest.raises(DescriptionError):
        algebra_from_document(dict(base, c="0,0"))
    with pytest.raises(DescriptionError):
        algebra_from_document(dict(base, variant="sideways"))
    with pytest.raises(DescriptionError):
        algebra_from_document(["not", "a", "dict"])


def test_document_identity_sigma_opt_in():
    D = algebra_from_document({"coeff": "gf(3,2)", "sigma": "id", "c": "0,1",
                               "allow_identity": True})
    assert D.sigma_is_id


def test_document_commutative_variant_needs_commutative_coeff():
    with pytest.raises(DescriptionError):
        algebra_from_document({"coeff": "quat(2,3)",
                               "sigma": "conjugation:0,1,0,0",
                               "c": "0,1,1,0", "variant": "commutative"})


# ---------------------------------------------------------------------------
# files

def test_load_document_roundtrip(tmp_path):
    path = tmp_path / "alg.json"
    doc = {"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,1"}
    path.write_text(json.dumps(doc))
    assert load_document(str(path)) == doc
    algebra_from_document(load_document(str(path)))


def test_load_document_errors(tmp_path):
    with pytest.raises(DescriptionError):
        load_document(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DescriptionError):
        load_document(str(bad))
