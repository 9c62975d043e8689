import random
from fractions import Fraction

import pytest

from dickson.quaternions import InnerAut, QuaternionAlgebra, quat_is_square
from oracles import fixed_subalgebra, random_invertible


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
