import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dickson.quaternions import InnerAut, QuaternionAlgebra, quat_is_square
from oracles import fixed_subalgebra, inner_auts_equal, random_invertible


def _rand_quat(B, rng, span=6):
    return B.element(*[Fraction(rng.randint(-span, span)) for _ in range(4)])


# ---------------------------------------------------------------------------
# multiplication table and norms

def test_defining_relations():
    B = QuaternionAlgebra(2, 3)
    one, i, j, k = B.basis()
    a = B.scalar(2)
    b = B.scalar(3)
    assert i * i == a * one
    assert j * j == b * one
    assert i * j == k
    assert j * i == -k
    assert k * k == -(a * b) * one
    assert i * k == a * j
    assert k * i == -(a * j)


def test_norm_and_conjugation_multiplicative():
    B = QuaternionAlgebra(2, 3)
    rng = random.Random(23)
    for _ in range(60):
        z = _rand_quat(B, rng)
        w = _rand_quat(B, rng)
        assert (z * w).conjugate() == w.conjugate() * z.conjugate()
        assert (z * w).norm() == z.norm() * w.norm()
        assert z * z.conjugate() == B.scalar(z.norm())


def test_norm_formula():
    B = QuaternionAlgebra(2, 3)
    z = B.element(1, 2, 3, 4)
    # x0^2 - a x1^2 - b x2^2 + ab x3^2
    assert z.norm() == 1 - 2 * 4 - 3 * 9 + 6 * 16


def test_inverse_and_centrality():
    B = QuaternionAlgebra(2, 3)
    rng = random.Random(29)
    for _ in range(40):
        z = _rand_quat(B, rng)
        if z.norm() == 0:
            continue
        assert z * z.inv() == B.one()
        assert z.inv() * z == B.one()
    assert B.element(5, 0, 0, 0).is_central()
    assert not B.element(0, 1, 0, 0).is_central()


def test_noncommutative_and_associative():
    B = QuaternionAlgebra(2, 3)
    rng = random.Random(31)
    saw_noncommuting = False
    for _ in range(40):
        x, y, z = (_rand_quat(B, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        if x * y != y * x:
            saw_noncommuting = True
    assert saw_noncommuting


# ---------------------------------------------------------------------------
# inner automorphisms

def test_inner_aut_is_an_automorphism():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    rng = random.Random(37)
    for _ in range(40):
        z = _rand_quat(B, rng)
        w = _rand_quat(B, rng)
        assert sigma(z * w) == sigma(z) * sigma(w)
        assert sigma(z + w) == sigma(z) + sigma(w)
    assert sigma(B.one()) == B.one()


def test_inner_aut_compose_inverse_identity():
    B = QuaternionAlgebra(2, 3)
    s = InnerAut(B.element(0, 1, 0, 0))
    t = InnerAut(B.element(0, 0, 1, 0))
    rng = random.Random(38)
    for _ in range(25):
        z = _rand_quat(B, rng)
        assert s.compose(t)(z) == s(t(z))
        assert s.inverse()(s(z)) == z
    assert s.compose(s.inverse()).is_identity()
    assert not s.is_identity()
    assert InnerAut(B.element(7, 0, 0, 0)).is_identity()


def test_inner_aut_by_i_fixes_the_i_axis():
    B = QuaternionAlgebra(2, 3)
    i = B.element(0, 1, 0, 0)
    sigma = InnerAut(i)
    assert sigma(i) == i
    j = B.element(0, 0, 1, 0)
    assert sigma(j) == -j
    basis = fixed_subalgebra(sigma)
    assert len(basis) == 2          # Q(i): spanned by 1 and i
    for e in basis:
        assert sigma(e) == e


def test_inner_aut_canonical_witness_equality():
    B = QuaternionAlgebra(2, 3)
    i = B.element(0, 1, 0, 0)
    assert InnerAut(i) == InnerAut(i * B.scalar(-3))
    assert InnerAut(i) != InnerAut(B.element(0, 0, 1, 0))


# (2,3 | Q) and quat(a,b;p) for p in 3, 5, 7
ALGEBRAS = st.one_of(
    st.just(QuaternionAlgebra(2, 3)),
    st.sampled_from([3, 5, 7]).flatmap(lambda p: st.builds(
        QuaternionAlgebra, st.integers(1, p - 1), st.integers(1, p - 1),
        st.just(p))))
KEY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def _central(B):
    """A nonzero base-field scalar of B, negative ones included over Q."""
    if B.p is None:
        return st.fractions(-9, 9, max_denominator=6).filter(bool)
    return st.integers(1, B.p - 1)


def _witness(data, B, coord=None):
    """An invertible quaternion of B, zero coordinates drawn often."""
    if coord is None:
        coord = st.integers(0, B.p - 1) if B.p is not None else \
            st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=6))
    m = B.element(*data.draw(st.lists(coord, min_size=4, max_size=4)))
    assume(not B.ops.is_zero(m.norm()))
    return m


@KEY_SETTINGS
@given(st.data())
def test_inner_aut_key_ignores_a_central_factor(data):
    B = data.draw(ALGEBRAS)
    m = _witness(data, B)
    lam = data.draw(_central(B))
    s, t = InnerAut(m), InnerAut(m * B.element(lam, 0, 0, 0))
    assert s == t and hash(s) == hash(t)


@KEY_SETTINGS
@given(st.data())
def test_inner_aut_equality_is_the_fraction_rule(data):
    """Equality by the int key agrees with the witnesses scaled to a
    leading 1 in Fractions (oracles.inner_auts_equal), on independent
    witnesses and on one that is a central multiple of the other."""
    B = data.draw(ALGEBRAS)
    m = _witness(data, B)
    if data.draw(st.booleans()):
        n = m * B.element(data.draw(_central(B)), 0, 0, 0)
    else:
        n = _witness(data, B)
    s, t = InnerAut(m), InnerAut(n)
    assert (s == t) == inner_auts_equal(s, t)
    if s == t:
        assert hash(s) == hash(t)


@KEY_SETTINGS
@given(st.data())
def test_inner_aut_key_tells_algebras_apart(data):
    """The same witness coordinates in two different algebras give unequal
    conjugations."""
    B1, B2 = data.draw(ALGEBRAS), data.draw(ALGEBRAS)
    assume(B1 != B2)
    coords = data.draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
    m1, m2 = B1.element(*coords), B2.element(*coords)
    assume(not B1.ops.is_zero(m1.norm()) and not B2.ops.is_zero(m2.norm()))
    assert InnerAut(m1) != InnerAut(m2)
    assert not inner_auts_equal(InnerAut(m1), InnerAut(m2))


# ---------------------------------------------------------------------------
# squares

def test_quat_is_square_roundtrip():
    B = QuaternionAlgebra(2, 3)
    rng = random.Random(43)
    found = 0
    for _ in range(50):
        z = _rand_quat(B, rng, span=4)
        sq = z * z
        ok, w = quat_is_square(sq)
        if ok is True:
            assert w * w == sq
            found += 1
    assert found > 20


def test_quat_is_square_negative_cases():
    B = QuaternionAlgebra(2, 3)
    # i + j has norm -5 < 0; a square z^2 has norm N(z)^2 >= 0
    ok, w = quat_is_square(B.element(0, 1, 1, 0))
    assert ok is False and w is None


def test_quat_central_squareness_certificates():
    B = QuaternionAlgebra(2, 3)
    # 2 = i^2 is found on a coordinate axis
    ok, w = quat_is_square(B.element(2, 0, 0, 0))
    assert ok is True and w * w == B.element(2, 0, 0, 0)
    ok, w = quat_is_square(B.element(9, 0, 0, 0))
    assert ok is True and w == B.element(3, 0, 0, 0)
    # 5 is neither a rational square nor on any axis: undecided, not "no"
    ok, w = quat_is_square(B.element(5, 0, 0, 0))
    assert ok is None and w is None


# ---------------------------------------------------------------------------
# quaternions over a prime field

def test_finite_quaternions_are_split():
    B = QuaternionAlgebra(2, 3, p=5)
    pair = B.find_zero_divisor()
    assert pair is not None
    x, y = pair
    assert not x.is_zero() and not y.is_zero()
    assert (x * y).is_zero()


def test_finite_quaternion_arithmetic_mod_p():
    B = QuaternionAlgebra(2, 3, p=5)
    one, i, j, k = B.basis()
    assert i * i == B.scalar(2)
    assert j * i == -k
    rng = random.Random(47)
    for _ in range(30):
        z = random_invertible(B, rng)
        assert z * z.inv() == B.one()


def test_finite_quaternions_reduce_fraction_scalars():
    # n/d is the residue n * d^-1 mod p, in sums and products alike
    B = QuaternionAlgebra(1, 2, p=5)
    assert B.one() + Fraction(1, 2) == B.element(4, 0, 0, 0)
    assert B.one() * Fraction(1, 3) == B.element(2, 0, 0, 0)
    with pytest.raises(ZeroDivisionError):
        B.one() + Fraction(1, 5)


def test_quaternion_invalid_parameters():
    with pytest.raises(ValueError):
        QuaternionAlgebra(0, 3)
    with pytest.raises(ValueError):
        QuaternionAlgebra(2, 3, p=4)


def test_rational_scalar_takes_fractions_and_ints_as_they_are():
    B = QuaternionAlgebra(2, 3)
    half = Fraction(1, 2)
    assert B.scalar(half) is half
    assert B.scalar(7) == 7 and type(B.scalar(7)) is int
    assert B.scalar("2/6") == Fraction(1, 3)
    assert B.element(half, 7, "2/6", 0)._k == (3, 42, 2, 0, 6)
