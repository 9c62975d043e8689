"""Operator protocol shared by the five element kinds: coercion,
reflected operators, equality with scalars and hashes that agree with
equality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickson.fields import TABLE_BOUND, FieldElement, FiniteField, make_field
from dickson.padics import (PadicContext, PadicExtElement, PadicNumber,
                            PadicQuadExt)
from dickson.parsing import algebra_from_document
from dickson.quadratic import QuadElement, QuadField
from dickson.quaternions import Quaternion, QuaternionAlgebra

KINDS = (FieldElement, QuadElement, PadicNumber, PadicExtElement, Quaternion)


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


def test_one_protocol_for_the_five_kinds():
    # the reflected and derived operators, coercion and equality are
    # inherited; PadicNumber keeps its precision-aware equality and the
    # coercion that re-homes an equal context, and the p-adic kinds keep
    # their measured subtraction fast paths
    for cls in KINDS:
        own = set(vars(cls))
        assert not own & {"__radd__", "__rmul__", "__rsub__", "__truediv__"}
        if cls is PadicNumber:
            assert {"_coerce", "__eq__", "__hash__"} <= own
        else:
            assert not own & {"_coerce", "__eq__", "__hash__"}
        assert ("__sub__" in own) == (cls in (PadicNumber, PadicExtElement))


def _scalars(rng):
    return ([rng.randrange(-7, 12) for _ in range(6)]
            + [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
               for _ in range(4)] + [0, 1])


def _field_sample(rng):
    out = []
    for K in (make_field(3, 2), make_field(3, 2), make_field(5, 1)):
        out += [K.random_element(rng) for _ in range(6)]
        out += [K.from_int(rng.randrange(-7, 12)) for _ in range(4)]
    return out


def _quadratic_sample(rng):
    out = []
    for K in (QuadField(2), QuadField(8), QuadField(3)):
        for _ in range(8):
            x = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            y = rng.choice([0, 0, Fraction(rng.randrange(-2, 3), 2)])
            out.append(K.element(x, y))
    return out


def _quaternion_sample(rng):
    out = []
    for B in (QuaternionAlgebra(2, 3), QuaternionAlgebra(2, 3),
              QuaternionAlgebra(1, 2, p=5), QuaternionAlgebra(1, 2, p=5)):
        for _ in range(8):
            coords = [rng.randrange(-2, 3) for _ in range(4)]
            if rng.random() < 0.5:
                coords[1:] = [0, 0, 0]
            out.append(B.element(*coords))
    return out


def _padic_sample(rng):
    out = []
    for ctx in (PadicContext(5), PadicContext(5), PadicContext(7)):
        for _ in range(8):
            r = Fraction(rng.randrange(-30, 31), rng.choice([1, 2, 5, 25]))
            out.append(ctx.from_fraction(r))
        # a sum keeps fewer digits than its operands
        out.append(ctx.from_fraction(26) - ctx.from_fraction(1))
    return out


def _padic_ext_sample(rng):
    out = []
    for ctx in (PadicContext(5), PadicContext(5)):
        for kind in ("sqrt_u", "sqrt_p"):
            E = PadicQuadExt(ctx, kind)
            for _ in range(6):
                y = rng.choice([0, 0, rng.randrange(-3, 4)])
                out.append(E.element(rng.randrange(-3, 4), y))
            out.append(ctx.from_fraction(rng.randrange(-3, 4)))
    return out


def _dickson_sample(rng):
    doc = {"coeff": "quat(-1,-1)", "sigma": "conjugation:0,1,0,0",
           "c": "0,1,1,0", "variant": "middle"}
    out = []
    for D in (algebra_from_document(doc), algebra_from_document(doc)):
        B = D.coeff.B
        for _ in range(6):
            u = B.element(*(rng.randrange(-1, 2) for _ in range(4)))
            v = rng.choice([B.zero(), B.one(), B.i()])
            out.append(D.element(u, v))
        out += [D.unit(), D.zero(), D.adjoined()]
    return out


SAMPLES = {"field": _field_sample, "quadratic": _quadratic_sample,
           "quaternion": _quaternion_sample, "padic": _padic_sample,
           "padic-ext": _padic_ext_sample, "dickson": _dickson_sample}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_equal_elements_hash_alike(kind):
    rng = random.Random("hash/" + kind)
    sample = SAMPLES[kind](rng)
    if kind != "dickson":
        sample += _scalars(rng)
    twins, scalar_pairs = 0, 0
    for x in sample:
        for y in sample:
            if x is not y and x == y:
                assert y == x
                assert hash(x) == hash(y), (x, y)
                if isinstance(y, (int, Fraction)):
                    scalar_pairs += 1
                elif not isinstance(x, (int, Fraction)):
                    twins += _owner(x) is not _owner(y)
    # the sample holds equal elements of equal but distinct parents, and
    # elements equal to Python scalars
    assert twins and (scalar_pairs or kind == "dickson")


def _owner(z):
    return next(getattr(z, a) for a in ("alg", "field", "ctx", "ext")
                if hasattr(z, a))


def test_padic_extension_elements_are_hashable():
    ctx = PadicContext(5)
    E = PadicQuadExt(ctx, "sqrt_u")
    assert len({E.element(1, 0), PadicQuadExt(PadicContext(5), "sqrt_u").one()}) == 1
    assert len({E.element(0, 0), 0}) == 1
    # (x, 0) is the base scalar x, both ways round
    assert E.element(3, 0) == ctx.from_int(3) and ctx.from_int(3) == E.element(3, 0)
    assert hash(E.element(3, 0)) == hash(ctx.from_int(3))
    assert E.element(3, 1) != ctx.from_int(3)


def test_finite_scalars_equal_only_their_canonical_representative():
    for x in (make_field(5, 1).one(), QuaternionAlgebra(1, 2, p=5).one()):
        assert x == 1 and 1 == x and len({x, 1}) == 1
        assert x != 6 and x != -4 and 6 != x
        # arithmetic still reduces any int
        assert x + 5 == 1 and x * 6 == 1
    K = make_field(3, 2)
    assert K.from_int(2) == 2 and K.from_int(2) != -1
    assert K.gen() != 0 and K.gen() != 1


def test_padic_numbers_equal_only_the_exact_zero():
    ctx = PadicContext(5)
    one = ctx.from_fraction(1)
    assert one != 1 and 1 != one and one != Fraction(1)
    assert ctx.zero() == 0 and 0 == ctx.zero() and len({ctx.zero(), 0}) == 1
    assert ctx.from_fraction(0) == Fraction(0)
    E = PadicQuadExt(ctx, "sqrt_p")
    assert E.one() != 1 and E.zero() == 0
    # arithmetic still lifts Python scalars
    assert one + 1 == ctx.from_int(2) and E.one() * 2 == E.element(2, 0)


def _different_parent_pairs():
    ctx5, ctx7 = PadicContext(5), PadicContext(7)
    return {
        "field": (make_field(3, 2).one(), make_field(3, 2, [1, 0, 1]).one()),
        "quadratic": (QuadField(2).one(), QuadField(3).one()),
        "quaternion": (QuaternionAlgebra(2, 3).one(),
                       QuaternionAlgebra(2, 5).one()),
        "padic": (ctx5.one(), ctx7.one()),
        "padic-ext": (PadicQuadExt(ctx5, "sqrt_u").one(),
                      PadicQuadExt(ctx5, "sqrt_p").one()),
    }


@pytest.mark.parametrize("kind", sorted(_different_parent_pairs()))
def test_different_parents_are_unequal_and_do_not_mix(kind):
    x, y = _different_parent_pairs()[kind]
    assert x != y and y != x
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(ValueError):
            op()


def test_doublings_from_one_spec_share_elements():
    doc = {"coeff": "qp(5;sqrt_u)", "sigma": "conjugate", "c": "2"}
    D1, D2 = algebra_from_document(doc), algebra_from_document(doc)
    assert D1 is not D2
    x = D1.element(D1.coeff.K.element(1, 2), D1.coeff.K.element(0, 3))
    y = D2.element(D2.coeff.K.element(1, 2), D2.coeff.K.element(0, 3))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1


# ---------------------------------------------------------------------------
# the equality and hash contract of Element, on every path of __eq__


class _Kind:
    """How to build one kind's parents and elements for the contract test:
    make() a fresh parent, other() a different parent of the same shape,
    element(P, coords), the scalar equal to (s, 0, ...), and p, the
    modulus coordinates reduce by (None over Q and Q_p)."""

    def __init__(self, make, other, dim, p=None, element=None, scalar=None):
        self.make, self.other, self.dim, self.p = make, other, dim, p
        self.element = element or (lambda P, v: P.element(*v))
        self.scalar = scalar or (lambda P, s: s)

    def coord(self):
        if self.p is not None:
            return st.integers(-self.p, 2 * self.p)
        return st.fractions(-4, 4, max_denominator=3)

    def reduce(self, v):
        return [t % self.p for t in v] if self.p is not None else list(v)


CONTRACT_KINDS = {
    # GF(25) arithmetic reads the index tables, GF(101^2) is above them;
    # the other parent has the same p and n and another modulus
    "gf-tables": _Kind(lambda: FiniteField(5, 2),
                       lambda: FiniteField(5, 2, [3, 0, 1]), 2, 5,
                       lambda P, v: P.element(list(v))),
    "gf-poly": _Kind(lambda: FiniteField(101, 2),
                     lambda: FiniteField(101, 2, [99, 0, 1]), 2, 101,
                     lambda P, v: P.element(list(v))),
    "quadratic": _Kind(lambda: QuadField(-7), lambda: QuadField(5), 2),
    "quaternion": _Kind(lambda: QuaternionAlgebra(2, 3),
                        lambda: QuaternionAlgebra(2, 5), 4),
    "quaternion-p": _Kind(lambda: QuaternionAlgebra(1, 2, p=5),
                          lambda: QuaternionAlgebra(1, 3, p=5), 4, 5),
    "padic-ext": _Kind(lambda: PadicQuadExt(PadicContext(5), "sqrt_u"),
                       lambda: PadicQuadExt(PadicContext(5), "sqrt_p"), 2,
                       scalar=lambda P, s: P.ctx.from_fraction(s)),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_equality_and_hash_contract(data):
    """For each of the four element kinds (GF(q) below and above
    TABLE_BOUND): equality is that of the reduced coordinates, != is its
    negation, the same coordinates in an equal but distinct parent are
    equal and hash alike, in a different parent unequal, an element
    equals a scalar exactly when it is that scalar, and equal elements
    hash alike."""
    kind = CONTRACT_KINDS[data.draw(st.sampled_from(sorted(CONTRACT_KINDS)))]
    P, twin, other = kind.make(), kind.make(), kind.other()
    assert P is not twin and P == twin and P != other
    coords = st.lists(kind.coord(), min_size=kind.dim, max_size=kind.dim)
    cx = data.draw(coords)
    cy = data.draw(st.one_of(st.just(cx), coords))
    x, y = kind.element(P, cx), kind.element(P, cy)
    equal = kind.reduce(cx) == kind.reduce(cy)
    assert (x == y) is equal and (y == x) is equal
    assert (x != y) is (not equal) and (y != x) is (not equal)
    if equal:
        assert hash(x) == hash(y)
    assert x == x and not x != x
    xt, xo = kind.element(twin, cx), kind.element(other, cx)
    assert x == xt and xt == x and not x != xt and hash(x) == hash(xt)
    assert x != xo and xo != x and not x == xo
    s = data.draw(kind.coord())
    if kind.p is not None:
        s %= kind.p
    zeros = [0] * (kind.dim - 1)
    z, scalar = kind.element(P, [s] + zeros), kind.scalar(P, s)
    assert z == scalar and scalar == z and not z != scalar
    assert hash(z) == hash(scalar)
    is_scalar = kind.reduce(cx) == kind.reduce([s] + zeros)
    assert (x == scalar) is is_scalar and (x != scalar) is (not is_scalar)


def test_contract_kinds_cover_both_field_routes():
    assert FiniteField(5, 2).order <= TABLE_BOUND < FiniteField(101, 2).order
