"""Operator protocol shared by the five element kinds: reflected
subtraction and hashes that agree with equality."""

from fractions import Fraction

import pytest

from dickson.fields import make_field
from dickson.padics import PadicContext, PadicQuadExt
from dickson.quadratic import QuadField
from dickson.quaternions import QuaternionAlgebra


def _elements():
    K = make_field(3, 2)
    ctx = PadicContext(5)
    return {
        "field": K.element([1, 2]),
        "quaternion": QuaternionAlgebra(2, 3).element(1, Fraction(1, 2), 0, -1),
        "quadratic": QuadField(2).element(Fraction(3, 4), -1),
        "padic": ctx.from_fraction(Fraction(7, 3)),
        "padic-ext": PadicQuadExt(ctx, "sqrt_u").element(2, 1),
    }


@pytest.mark.parametrize("kind", sorted(_elements()))
def test_reflected_subtraction(kind):
    x = _elements()[kind]
    # an unsupported left operand is refused, not recursed on
    with pytest.raises(TypeError):
        1.5 - x
    # an int left operand still coerces
    assert 1 - x == -(x - 1)


def test_scalar_elements_hash_as_their_scalar():
    B = QuaternionAlgebra(2, 3)
    K = QuadField(2)
    assert B.one() == 1 and K.one() == 1
    assert len({B.one(), 1}) == 1
    assert len({K.one(), 1}) == 1
    half = Fraction(1, 2)
    for x in (B.element(half, 0, 0, 0), K.element(half, 0)):
        assert x == half and hash(x) == hash(half)
    Bp = QuaternionAlgebra(1, 2, p=5)
    assert Bp.element(3, 0, 0, 0) == 3 and len({Bp.element(3, 0, 0, 0), 3}) == 1
    # equal non-scalar elements still hash alike
    q1 = B.element(1, half, 0, -1)
    q2 = B.element(Fraction(2, 2), Fraction(2, 4), 0, -1)
    assert q1 == q2 and hash(q1) == hash(q2)
    z1, z2 = K.element(half, 3), K.element(Fraction(3, 6), 3)
    assert z1 == z2 and hash(z1) == hash(z2)
