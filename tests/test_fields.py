import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickson.fields import (TABLE_BOUND, FieldError, FrobeniusAut,
                            _pmod, _pmul, _ppowmod, make_field)
from oracles import fixed_field, norm_over


# ---------------------------------------------------------------------------
# construction and the default modulus

def test_default_modulus_gf9():
    K = make_field(3, 2)
    assert tuple(K.modulus) == (2, 1, 1)


def test_default_modulus_adjoined_root_generates_units():
    """The default field picks a modulus whose root x is primitive, so
    element literals like "0,1" name a generator of the unit group."""
    for p, n in [(2, 2), (3, 2), (3, 3), (5, 2)]:
        K = make_field(p, n)
        g = K.gen()
        z = K.one()
        seen = set()
        for _ in range(K.order - 1):
            z = z * g
            seen.add(K.element_index(z))
        assert len(seen) == K.order - 1


def test_explicit_modulus_respected():
    K = make_field(3, 2, [1, 0, 1])
    g = K.gen()
    assert (g * g + K.one()).is_zero()


def test_bad_constructions_rejected():
    with pytest.raises(FieldError):
        make_field(3, 2, [1, 2, 1])   # (x+1)^2
    with pytest.raises(FieldError):
        make_field(3, 2, [1, 1])      # wrong degree
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(3, 0)


# ---------------------------------------------------------------------------
# field axioms, exhaustive on GF(9) and sampled on GF(27)

def test_gf9_axioms_exhaustive():
    K = make_field(3, 2)
    elems = list(K.elements())
    one = K.one()
    for a in elems:
        assert a + K.zero() == a
        assert a * one == a
        if not a.is_zero():
            assert a * a.inv() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_gf27_axioms_sampled():
    K = make_field(3, 3)
    rng = random.Random(20260814)
    for _ in range(300):
        a = K.random_element(rng)
        b = K.random_element(rng)
        c = K.random_element(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_element_index_roundtrip():
    K = make_field(5, 2)
    for i in range(K.order):
        assert K.element_index(K.element_at(i)) == i


def test_element_at_refuses_indices_outside_the_field():
    for K in (make_field(3, 2), make_field(101, 2)):
        assert K.element_at(K.order - 1).coeffs == (K.p - 1,) * K.n
        for bad in (K.order, K.order + 1, -1):
            with pytest.raises(FieldError):
                K.element_at(bad)


# ---------------------------------------------------------------------------
# Frobenius

def test_frobenius_is_pth_power():
    for p, n in [(3, 2), (3, 3), (5, 2)]:
        K = make_field(p, n)
        phi = FrobeniusAut(K, 1)
        for a in K.elements():
            pw = K.one()
            for _ in range(p):
                pw = pw * a
            assert phi(a) == pw


def test_frobenius_compose_inverse_order():
    K = make_field(3, 3)
    phi = FrobeniusAut(K, 1)
    assert phi.compose(phi).k == 2
    assert phi.compose(phi.inverse()).is_identity()
    assert phi.order() == 3
    assert FrobeniusAut(K, 0).order() == 1
    x = K.gen()
    assert phi.inverse()(phi(x)) == x


def test_fixed_field_of_frobenius_on_gf9():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    fixed = [a for a in K.elements() if phi(a) == a]
    assert sorted(a.literal() for a in fixed) == ["0,0", "1,0", "2,0"]
    sub, basis = fixed_field(phi)
    assert sub.order == 3
    assert len(basis) == 1


def test_fixed_field_intermediate():
    # GF(3^4) with k = 2 fixes a copy of GF(9)
    K = make_field(3, 4)
    tau = FrobeniusAut(K, 2)
    sub, basis = fixed_field(tau)
    assert sub.order == 9
    assert len(basis) == 2
    for b in basis:
        assert tau(b) == b


# ---------------------------------------------------------------------------
# norm, squares, square roots

def test_norm_lands_in_prime_field_and_is_multiplicative():
    K = make_field(3, 2)
    for a in K.elements():
        na = K.norm(a)
        assert all(x == 0 for x in na.coeffs[1:])
        for b in K.elements():
            assert K.norm(a * b) == na * K.norm(b)


def test_norm_is_product_of_conjugates():
    K = make_field(5, 2)
    phi = FrobeniusAut(K, 1)
    for a in K.elements():
        assert K.norm(a) == a * phi(a)


def test_squares_match_enumerated_square_set():
    for p, n in [(3, 2), (5, 2), (3, 3)]:
        K = make_field(p, n)
        squares = {K.element_index(z * z) for z in K.elements()}
        for a in K.elements():
            if a.is_zero():
                continue
            assert K.is_square(a) == (K.element_index(a) in squares)
            if K.is_square(a):
                r = K.sqrt(a)
                assert r * r == a


def test_square_count_in_odd_characteristic():
    K = make_field(3, 3)
    nonzero_squares = sum(1 for a in K.elements()
                          if not a.is_zero() and K.is_square(a))
    assert nonzero_squares == (K.order - 1) // 2


def test_char2_everything_is_a_square():
    K = make_field(2, 2)
    for a in K.elements():
        if a.is_zero():
            continue
        assert K.is_square(a)
        r = K.sqrt(a)
        assert r * r == a


def test_norm_over_intermediate_frobenius():
    K = make_field(3, 4)
    tau = FrobeniusAut(K, 2)
    rng = random.Random(7)
    for _ in range(50):
        a = K.random_element(rng)
        na = norm_over(K, a, tau)
        assert na == a * tau(a)
        assert tau(na) == na


# ---------------------------------------------------------------------------
# index tables against the polynomial helpers
#
# Up to TABLE_BOUND elements the arithmetic reads discrete-log and Zech
# tables; each operation is compared here with the polynomial product
# reduced by the modulus, kept as the reference.  GF(9) uses the modulus
# x^2 + 1, whose root X is not primitive; GF(97^2) sits at the bound and
# GF(101^2) above it, where the field computes on polynomials itself.

TABLE_FIELDS = [(2, 2, None), (2, 3, None), (3, 2, (1, 0, 1)), (5, 2, None),
                (3, 3, None), (7, 2, None), (7, 3, None), (97, 2, None),
                (101, 2, None)]
SETTINGS = settings(max_examples=60, deadline=None)


@lru_cache(maxsize=None)
def _field(spec):
    return make_field(*spec)


def _poly(a):
    return list(a.coeffs)


def _reference(K, poly):
    """The element with the coefficients of poly reduced by the modulus."""
    red = _pmod(poly, K.modulus, K.p)
    return tuple(red) + (0,) * (K.n - len(red))


@st.composite
def field_elements(draw, count=2):
    K = _field(draw(st.sampled_from(TABLE_FIELDS)))
    idx = st.integers(0, K.order - 1)
    return (K,) + tuple(K.element_at(draw(idx)) for _ in range(count))


def test_the_bound_splits_the_sample():
    assert _field((97, 2, None)).order <= TABLE_BOUND
    assert _field((101, 2, None)).order > TABLE_BOUND
    assert _field((3, 2, (1, 0, 1))).gen() ** 4 == 1


@SETTINGS
@given(field_elements())
def test_sum_product_and_negative_match_polynomials(case):
    K, a, b = case
    p = K.p
    assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
    assert (a - b).coeffs == tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))
    assert (-a).coeffs == tuple(-x % p for x in a.coeffs)
    assert (a * b).coeffs == _reference(K, _pmul(_poly(a), _poly(b), p))


@SETTINGS
@given(field_elements(count=1), st.integers(0, 40))
def test_inverses_and_powers_match_polynomials(case, e):
    K, a = case
    assert (a ** e).coeffs == _reference(K, _ppowmod(_poly(a), e, K.modulus, K.p))
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
        return
    inv = _ppowmod(_poly(a), K.order - 2, K.modulus, K.p)
    assert a.inv().coeffs == _reference(K, inv)
    assert (a ** -e).coeffs == _reference(K, _ppowmod(inv, e, K.modulus, K.p))


@SETTINGS
@given(field_elements(count=1))
def test_every_frobenius_power_matches_polynomials(case):
    K, a = case
    for k in range(K.n):
        want = _ppowmod(_poly(a), K.p ** k, K.modulus, K.p)
        assert FrobeniusAut(K, k)(a).coeffs == _reference(K, want)


@SETTINGS
@given(field_elements(count=1))
def test_squares_match_the_quadratic_character(case):
    K, a = case
    if a.is_zero():
        return
    half = _ppowmod(_poly(a), (K.order - 1) // 2, K.modulus, K.p)
    assert K.is_square(a) == (K.p == 2 or half == [1])


@settings(max_examples=20, deadline=None)
@given(field_elements(count=1))
def test_sqrt_is_the_first_root_a_scan_meets(case):
    K, a = case
    if K.order > TABLE_BOUND:
        with pytest.raises(FieldError):
            K.sqrt(a)
        return
    want = next((r for r in K.elements()
                 if _reference(K, _pmul(_poly(r), _poly(r), K.p)) == a.coeffs),
                None)
    assert K.sqrt(a) is want


@SETTINGS
@given(field_elements())
def test_index_equality_and_hash_agree_with_coefficients(case):
    K, a, b = case
    i = K.element_index(a)
    assert i == sum(c * K.p ** (K.n - 1 - j) for j, c in enumerate(a.coeffs))
    assert K.element_at(i) == a and K.element_at(i).coeffs == a.coeffs
    assert K.element(list(a.coeffs)) == a
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)
    s = a.coeffs[0]
    assert (a == s) == (not any(a.coeffs[1:]))
    if a == s:
        assert hash(a) == hash(s)
    assert a != s + K.p


def test_tables_are_shared_between_equal_fields_and_values_interned():
    K1, K2 = make_field(5, 2), make_field(5, 2)
    assert K1._log is None
    x = K1.gen() * K1.gen()
    assert K1._tables() is K2._tables()
    assert x is K1.element(list(x.coeffs)) and x is K1.element_at(x.index)
    assert [a.index for a in K1.elements()] == list(range(K1.order))
