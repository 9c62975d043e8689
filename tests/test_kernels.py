"""The integer kernels against the scalar-ops formulas they replace.

Quaternions over Q and Q(sqrt a) elements are integer numerators over
one denominator, and their operators work on those ints; rational
elimination runs on ints over common denominators, GF(p) elimination on
lane-packed ints, and the Q_p(alpha) product on (val, unit, prec)
triples without building its scalar products; every coefficient kind's
fused a.dot(b, c, e) = a*b + c*e normalizes once.  Each is compared here
with the plain formula through the scalar ops or on Fractions, kept as
the reference (in oracles.py, for the element operators and the
elimination): values and types must agree exactly.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickson import fields, linalg
from dickson.fields import make_field
from dickson.linalg import (FpOps, QOps, PackedLayout, kernel_basis, rank,
                            rref, solve)
from dickson.padics import (PadicContext, PadicNumber, PadicOps,
                            PadicQuadExt, PrecisionError)
from dickson.quadratic import QuadField
from dickson.quaternions import QuaternionAlgebra
from oracles import (quadratic_conjugate, quadratic_difference,
                     quadratic_inverse, quadratic_product, quadratic_sum,
                     quaternion_conjugate, quaternion_difference,
                     quaternion_inverse, quaternion_norm, quaternion_product,
                     quaternion_sum, rref_loop)

SETTINGS = settings(max_examples=100, deadline=None)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero_rationals = rationals.filter(bool)


def _same(got, want):
    assert got == want
    assert [type(t) for t in got] == [type(t) for t in want]


# ---------------------------------------------------------------------------
# quaternion products

@st.composite
def rational_quaternion_pairs(draw):
    a = draw(st.one_of(st.just(Fraction(1, 2)), nonzero_rationals))
    b = draw(st.one_of(st.just(Fraction(-3, 5)), nonzero_rationals))
    B = QuaternionAlgebra(a, b)
    coords = st.lists(st.one_of(st.just(0), st.integers(-5, 5), rationals),
                      min_size=4, max_size=4)
    return B.element(*draw(coords)), B.element(*draw(coords))


@SETTINGS
@given(rational_quaternion_pairs())
def test_rational_quaternion_product_matches_ops_formula(pair):
    q1, q2 = pair
    got = (q1 * q2).coords()
    _same(got, quaternion_product(q1, q2))
    assert all(type(t) is Fraction for t in got)


def test_quaternion_product_with_fractional_structure_constants():
    B = QuaternionAlgebra(Fraction(1, 2), Fraction(-3, 5))
    one, i, j, k = B.basis()
    assert i * i == Fraction(1, 2) * one
    assert j * j == Fraction(-3, 5) * one
    assert k * k == Fraction(3, 10) * one
    assert i * j == k and j * i == -k
    q = B.element(Fraction(1, 3), Fraction(-2, 7), 0, Fraction(5, 4))
    prod = (q * q.conjugate()).coords()
    assert prod == [q.norm(), 0, 0, 0]
    assert all(type(t) is Fraction for t in prod)


@st.composite
def finite_quaternion_pairs(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    a, b = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    B = QuaternionAlgebra(a, b, p=p)
    coords = st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
    return B.element(*draw(coords)), B.element(*draw(coords))


@SETTINGS
@given(finite_quaternion_pairs())
def test_finite_quaternion_product_matches_ops_formula(pair):
    q1, q2 = pair
    got = (q1 * q2).coords()
    _same(got, quaternion_product(q1, q2))
    assert all(type(t) is int and 0 <= t < q1.alg.p for t in got)


def test_scalar_operands_coerce_in_products():
    B = QuaternionAlgebra(Fraction(1, 2), 3)
    q = B.element(1, Fraction(2, 3), 0, -1)
    prod = (q * Fraction(3, 2)).coords()
    assert prod == [Fraction(3, 2), 1, 0, Fraction(-3, 2)]
    assert all(type(t) is Fraction for t in prod)
    _same((2 * q).coords(), (q + q).coords())


# ---------------------------------------------------------------------------
# quadratic products

@st.composite
def quadratic_pairs(draw):
    K = QuadField(draw(st.sampled_from([-7, -3, -1, 2, 3, 5, 10])))
    coords = st.tuples(st.one_of(st.integers(-5, 5), rationals),
                       st.one_of(st.integers(-5, 5), rationals))
    return K.element(*draw(coords)), K.element(*draw(coords))


@SETTINGS
@given(quadratic_pairs())
def test_quadratic_product_matches_fraction_formula(pair):
    u, v = pair
    got = u * v
    _same([got.x, got.y], quadratic_product(u, v))


# ---------------------------------------------------------------------------
# every operator of the integer-numerator kinds
#
# Planted faults each rejected here (checked on a copy of the package): a
# constructor that skips the gcd division, a wrong sign on the nb term of
# the quaternion product, and a product denominator without da * db.

@st.composite
def quaternion_pairs(draw):
    """Two quaternions of one algebra over GF(5) or over Q, where a and b
    may have denominators."""
    if draw(st.booleans()):
        B = QuaternionAlgebra(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                              p=5)
        coords = st.lists(st.integers(0, 4), min_size=4, max_size=4)
    else:
        B = QuaternionAlgebra(
            draw(st.one_of(st.just(Fraction(1, 2)), nonzero_rationals)),
            draw(st.one_of(st.just(Fraction(-3, 5)), nonzero_rationals)))
        coords = st.lists(st.one_of(st.just(0), st.integers(-5, 5), rationals),
                          min_size=4, max_size=4)
    return B.element(*draw(coords)), B.element(*draw(coords))


def _canonical_key(z, p=None):
    """Numerators over one denominator d: over Q, d > 0 and the gcd of
    them all is 1; over GF(p), d = 1 and residues in range(p)."""
    *ns, d = z._key()
    if p is not None:
        return d == 1 and all(0 <= t < p for t in ns)
    return d > 0 and gcd(*ns, d) == 1


def _check_operators(u, v, results, inverse):
    """Each (element, reference coordinates) pair agrees in value and
    type and is canonical; inv() agrees with the reference inverse of u
    and v, raising where it raises."""
    p = getattr(u.parent, "p", None)
    for z in (u, v):
        try:
            want = inverse(z)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                z.inv()
        else:
            results.append((z.inv(), want))
    for got, want in results:
        _same(got.coords(), want)
        assert _canonical_key(got, p), got._key()
    assert _canonical_key(u, p) and _canonical_key(v, p)


@SETTINGS
@given(quaternion_pairs())
def test_quaternion_operators_match_fraction_formulas(pair):
    q1, q2 = pair
    o = q1.alg.ops
    _check_operators(q1, q2, [
        (q1 + q2, quaternion_sum(q1, q2)),
        (q1 - q2, quaternion_difference(q1, q2)),
        (q1 - q1, [o.zero] * 4),
        (-q1, [o.neg(t) for t in q1.coords()]),
        (q1 * q2, quaternion_product(q1, q2)),
        (q2 * q1, quaternion_product(q2, q1)),
        (q1.conjugate(), quaternion_conjugate(q1)),
    ], quaternion_inverse)
    _same([q1.norm()], [quaternion_norm(q1)])


@SETTINGS
@given(quadratic_pairs())
def test_quadratic_operators_match_fraction_formulas(pair):
    u, v = pair
    _check_operators(u, v, [
        (u + v, quadratic_sum(u, v)),
        (u - v, quadratic_difference(u, v)),
        (u - u, [Fraction(0)] * 2),
        (-u, [-u.x, -u.y]),
        (u * v, quadratic_product(u, v)),
        (v * u, quadratic_product(v, u)),
        (u.conjugate(), quadratic_conjugate(u)),
    ], quadratic_inverse)
    _same([u.norm()], [u.x * u.x - u.field.a * u.y * u.y])


# ---------------------------------------------------------------------------
# p-adic extension products
#
# Planted faults each rejected here (checked on a copy of the package): a
# product unit not reduced mod p**prec, max in place of min precision in
# the product or in the sum's window, a negation that keeps the unit, and
# _dot returning c*d where a*b is nonzero.

@st.composite
def padic_numbers(draw, ctx):
    """The exact zero, or p^val * unit to prec digits, valuations up to
    3N apart so that shifts past the tabled powers occur."""
    p, N = ctx.p, ctx.N
    if draw(st.integers(0, 5)) == 0:
        return ctx.zero()
    prec = draw(st.integers(1, N))
    unit = draw(st.integers(0, p ** (prec - 1) - 1)) * p + draw(
        st.integers(1, p - 1))
    return PadicNumber(ctx, draw(st.integers(-N, 2 * N)), unit, prec)


def _near_negative(draw, z):
    """-z perturbed at one digit: a sum with z cancels partly, or wholly
    (to the exact zero) when the digit is past the window."""
    if not z:
        return z
    ctx = z.ctx
    k = draw(st.integers(1, z.prec + 2))
    unit = -z.unit + draw(st.integers(1, ctx.p - 1)) * ctx.p ** k
    return PadicNumber(ctx, z.val, unit, z.prec)


@st.composite
def padic_ext_pairs(draw):
    """(x + y alpha, ox + oy alpha) over Q_p(alpha) for p in 3, 5, 7 and
    N in 4, 8, 16, the second operand free or built so that the terms of
    one coordinate of the product cancel."""
    ctx = PadicContext(draw(st.sampled_from([3, 5, 7])),
                       draw(st.sampled_from([4, 8, 16])))
    ext = PadicQuadExt(ctx, draw(st.sampled_from(PadicQuadExt.KINDS)))
    num = padic_numbers(ctx)
    x, y, t = draw(num), draw(num), draw(num)
    mode = draw(st.sampled_from(["free", "cancel-x", "cancel-y"]))
    if mode == "free":
        ox, oy = draw(num), draw(num)
    elif mode == "cancel-x":    # x*ox against (d*y)*oy
        ox, oy = ext.d * y * t, _near_negative(draw, x * t)
    else:                       # x*oy against y*ox
        ox, oy = x * t, _near_negative(draw, y * t)
    return ext.element(x, y), ext.element(ox, oy)


def _outcome(fn):
    """The (val, unit, prec) triples fn returns, or PrecisionError."""
    try:
        return [(z.val, z.unit, z.prec) for z in fn()]
    except PrecisionError:
        return PrecisionError


def _canonical(z):
    """The exact zero, or 0 < unit < p^prec, p not dividing unit and
    prec >= 1."""
    ctx = z.ctx
    if not z.unit:
        return (z.val, z.prec) == (0, ctx.N)
    return (z.prec >= 1 and 0 < z.unit < ctx.p ** z.prec
            and z.unit % ctx.p != 0)


@SETTINGS
@given(padic_ext_pairs())
def test_padic_extension_product_matches_scalar_operators(pair):
    u, w = pair
    d = u.ext.d

    def product():
        z = u * w
        assert z.x.ctx is u.ext.ctx and z.y.ctx is u.ext.ctx
        return [z.x, z.y]

    def reference():
        return [u.x * w.x + (d * u.y) * w.y, u.x * w.y + u.y * w.x]

    assert _outcome(product) == _outcome(reference)


@SETTINGS
@given(padic_ext_pairs())
def test_padic_results_are_canonical(pair):
    u, w = pair
    a, b = u.x, w.y
    results = [a + b, b + a, a - b, a * b, b * a, -a, -b]
    for first, second in ((u.x, u.y), (w.x, w.y)):
        results += [first + second, first - second, first * second]
    z = u * w
    results += [z.x, z.y, (-z).x, (-z).y]
    assert all(_canonical(r) for r in results)
    # a number and its negation cancel to the exact zero
    assert all(not (r + -r).unit for r in results)


# ---------------------------------------------------------------------------
# the fused a.dot(b, c, e) = a*b + c*e of every coefficient kind
#
# Planted faults each rejected here (checked on a copy of the package): a
# dropped term of the sum, a product denominator without da * db, and a
# dot that skips the parent check of its operands.

def _fours(draw, element):
    """a, b, c, e from element(): free, or with c = -a, so that the sum
    is a*(b - e), and zero when also e = b."""
    a, b, c, e = (element() for _ in range(4))
    mode = draw(st.sampled_from(["free", "cancel", "negated"]))
    if mode != "free":
        c = -a
        if mode == "cancel":
            e = b
    return a, b, c, e


@st.composite
def quadratic_fours(draw):
    K = QuadField(draw(st.sampled_from([-7, -3, -1, 2, 3, 5, 10])))
    coords = st.tuples(st.one_of(st.integers(-5, 5), rationals),
                       st.one_of(st.integers(-5, 5), rationals))
    return _fours(draw, lambda: K.element(*draw(coords)))


@SETTINGS
@given(quadratic_fours())
def test_quadratic_dot_matches_operators_and_fraction_formula(four):
    a, b, c, e = four
    got = a.dot(b, c, e)
    assert got._key() == (a * b + c * e)._key()
    _same(got.coords(), [s + t for s, t in zip(quadratic_product(a, b),
                                               quadratic_product(c, e))])
    assert _canonical_key(got)


@st.composite
def quaternion_fours(draw):
    """As quaternion_pairs: over GF(p) for p in 3, 5, 7, or over Q with a
    and b that may have denominators."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([3, 5, 7]))
        B = QuaternionAlgebra(draw(st.integers(1, p - 1)),
                              draw(st.integers(1, p - 1)), p=p)
        coords = st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
    else:
        B = QuaternionAlgebra(
            draw(st.one_of(st.just(Fraction(1, 2)), nonzero_rationals)),
            draw(st.one_of(st.just(Fraction(-3, 5)), nonzero_rationals)))
        coords = st.lists(st.one_of(st.just(0), st.integers(-5, 5), rationals),
                          min_size=4, max_size=4)
    return _fours(draw, lambda: B.element(*draw(coords)))


@SETTINGS
@given(quaternion_fours())
def test_quaternion_dot_matches_operators_and_fraction_formula(four):
    a, b, c, e = four
    o = a.alg.ops
    got = a.dot(b, c, e)
    assert got._key() == (a * b + c * e)._key()
    _same(got.coords(), [o.add(s, t) for s, t in zip(
        quaternion_product(a, b), quaternion_product(c, e))])
    assert _canonical_key(got, a.alg.p)


@st.composite
def field_fours(draw):
    """GF(p^n) with index tables, or GF(101^2) above them; zero drawn
    often."""
    K = make_field(*draw(st.sampled_from([(2, 3), (3, 2), (5, 2), (7, 1),
                                          (101, 2)])))
    index = st.one_of(st.just(0), st.integers(0, K.order - 1))
    return _fours(draw, lambda: K.element_at(draw(index)))


@SETTINGS
@given(field_fours())
def test_field_dot_is_the_operators_element(four):
    """The very interned element with tables; the same coefficients, and
    the polynomial formula's, above them."""
    a, b, c, e = four
    K = a.field
    got, want = a.dot(b, c, e), a * b + c * e
    if K._tables() is not None:
        assert got is want
    p = K.p
    poly = fields._pmod(fields._padd(
        fields._pmul(list(a.coeffs), list(b.coeffs), p),
        fields._pmul(list(c.coeffs), list(e.coeffs), p), p), K.modulus, p)
    assert got.coeffs == want.coeffs == tuple(poly + [0] * (K.n - len(poly)))
    assert got.index == want.index


@st.composite
def padic_ext_fours(draw):
    """Four elements of Q_p(alpha) at N = 4, p in 3, 5, 7: free, or with
    c*e a perturbed negative of a*b, so that the sums cancel partly or
    through the whole window."""
    ctx = PadicContext(draw(st.sampled_from([3, 5, 7])), 4)
    ext = PadicQuadExt(ctx, draw(st.sampled_from(PadicQuadExt.KINDS)))
    num = padic_numbers(ctx)
    a, b, c, e = (ext.element(draw(num), draw(num)) for _ in range(4))
    if draw(st.booleans()):
        c = ext.element(_near_negative(draw, a.x), _near_negative(draw, a.y))
        e = b
    return a, b, c, e


@SETTINGS
@given(padic_ext_fours())
def test_padic_extension_dot_has_the_operators_digits(four):
    a, b, c, e = four

    def fused():
        z = a.dot(b, c, e)
        assert z.x.ctx is a.ext.ctx and z.y.ctx is a.ext.ctx
        return [z.x, z.y]

    def operators():
        z = a * b + c * e
        return [z.x, z.y]

    assert _outcome(fused) == _outcome(operators)
    assert all(_canonical(t) for t in fused())


def _dot_cases():
    """(parent, element from an int, scalars, an element of an equal but
    distinct parent, one of another algebra) per kind."""
    ctx = PadicContext(5, 4)
    return [
        (QuadField(2), lambda K, i: K.element(i, Fraction(1, i + 2)),
         [3, Fraction(-2, 3)], QuadField(2).root(), QuadField(3).root()),
        (QuaternionAlgebra(Fraction(1, 2), 3),
         lambda B, i: B.element(i, 1, 0, -i), [3, Fraction(-2, 3)],
         QuaternionAlgebra(Fraction(1, 2), 3).i(), QuaternionAlgebra(2, 3).i()),
        (QuaternionAlgebra(2, 3, p=5), lambda B, i: B.element(i, 1, 2, 0),
         [3, Fraction(-2, 3)], QuaternionAlgebra(2, 3, p=5).j(),
         QuaternionAlgebra(2, 3, p=7).j()),
        (make_field(5, 2), lambda K, i: K.element([i, 1]), [3, -1],
         make_field(5, 2).gen(), make_field(7, 2).gen()),
        (make_field(101, 2), lambda K, i: K.element([i, 1]), [3, -1],
         make_field(101, 2).gen(), make_field(103, 2).gen()),
        (PadicQuadExt(ctx, "sqrt_u"),
         lambda E, i: E.element(i + 1, Fraction(1, 5)),
         [3, Fraction(-2, 3), ctx.from_int(7)],
         PadicQuadExt(PadicContext(5, 4), "sqrt_u").root(),
         PadicQuadExt(PadicContext(7, 4), "sqrt_u").root()),
    ]


def _value(z):
    if hasattr(z, "ext"):
        return [(t.val, t.unit, t.prec) for t in (z.x, z.y)]
    return z._key()


@pytest.mark.parametrize("parent, make, scalars, equal, foreign",
                         _dot_cases(), ids=["quad", "quat-Q", "quat-GF5",
                                            "gf25", "gf10201", "qp5"])
def test_dot_coerces_scalars_and_refuses_other_algebras(parent, make, scalars,
                                                        equal, foreign):
    a, b, c, e = (make(parent, i) for i in range(1, 5))
    for s in scalars + [equal]:
        for args in ((s, c, e), (b, s, e), (b, c, s)):
            x, y, z = args
            assert _value(a.dot(*args)) == _value(a * x + y * z)
    for args in ((foreign, c, e), (b, foreign, e), (b, c, foreign)):
        with pytest.raises(ValueError):
            a.dot(*args)
    with pytest.raises(TypeError):
        a.dot(b, "1", e)


# ---------------------------------------------------------------------------
# rational elimination

entries = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-4, 4),
                    rationals)
dense_entries = st.one_of(st.integers(1, 6), rationals.filter(bool))


@st.composite
def rational_matrices(draw):
    """Sparse or dense rows, then scaled sums of rows (rank deficiency),
    duplicate rows and zero rows, shuffled."""
    n = draw(st.integers(1, 7))
    cell = draw(st.sampled_from([entries, dense_entries]))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        s = draw(rationals)
        rows.append([x + s * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    for _ in range(draw(st.integers(0, 2))):
        rows.append([draw(st.sampled_from([0, Fraction(0)]))] * n)
    return draw(st.permutations(rows))


def _generic(fn, *args):
    """fn run with the reference Gauss-Jordan loop, oracles.rref_loop,
    through QOps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", rref_loop)
        return fn(*args)


@SETTINGS
@given(rational_matrices())
def test_rational_rref_matches_generic_loop(rows):
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    pivots = rref(got, QOps())
    assert pivots == rref_loop(want, QOps())
    r = len(pivots)
    assert len(got) == len(rows)
    for g, w in zip(got[:r], want[:r]):
        _same(g, w)
        assert all(type(t) is Fraction for t in g)
    assert all(t == 0 for row in got[r:] + want[r:] for t in row)


@SETTINGS
@given(rational_matrices())
def test_rational_kernel_matches_generic_loop(rows):
    n = len(rows[0])
    got = kernel_basis(rows, n, QOps())
    want = _generic(kernel_basis, rows, n, QOps())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same(g, w)


@SETTINGS
@given(rational_matrices(), st.data())
def test_rational_solve_matches_generic_loop(rows, data):
    n = len(rows[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(rationals, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    got = solve(rows, rhs, QOps())
    want = _generic(solve, rows, rhs, QOps())
    if want is None:
        assert got is None
    else:
        _same(got, want)


def test_integer_scaled_scales_rationals_and_passes_others_through():
    values = [Fraction(1, 2), 0, Fraction(-2, 3), 3,
              0, Fraction(5, 4), 1, Fraction(0)]
    scaled, den = linalg._integer_scaled(values, QOps())
    assert (scaled, den) == ([6, 0, -8, 36, 0, 15, 12, 0], 12)
    assert all(type(x) is int for x in scaled)
    assert linalg._integer_scaled([1, 2, 3], QOps()) == ([1, 2, 3], 1)
    for ops in (FpOps(5), PadicOps(PadicContext(5))):
        same, one = linalg._integer_scaled(values, ops)
        assert same is values and one == 1


# ---------------------------------------------------------------------------
# GF(p) elimination on packed ints

PRIMES = [2, 3, 5, 7, 31, 97, 101]


@st.composite
def prime_field_matrices(draw):
    """Up to 512 rows (the GF(p)-quaternion nucleus systems) of up to 12
    columns: combinations of a few random rows, so the rank is drawn too,
    sparse or dense, with duplicate and zero rows, shuffled."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, 12))
    nrows = draw(st.one_of(st.integers(1, 16), st.integers(17, 512)))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.2, 1.0]))
    basis = [[rng.randrange(p) if rng.random() < density else 0
              for _ in range(ncols)]
             for _ in range(draw(st.integers(0, min(nrows, ncols))))]
    rows = [[sum(rng.randrange(p) * b[j] for b in basis) % p
             for j in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3))):
        rows.append(list(rows[rng.randrange(len(rows))]))
    for _ in range(draw(st.integers(0, 2))):
        rows.append([0] * ncols)
    rng.shuffle(rows)
    return p, rows


def _check_packed_rref(p, rows):
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    pivots = rref(got, FpOps(p))
    assert pivots == rref_loop(want, FpOps(p))
    assert got == want
    assert all(type(t) is int and 0 <= t < p for row in got for t in row)


@settings(max_examples=60, deadline=None)
@given(prime_field_matrices())
def test_packed_rref_matches_generic_loop(case):
    _check_packed_rref(*case)


@SETTINGS
@given(prime_field_matrices())
def test_packed_kernel_and_rank_match_generic_loop(case):
    p, rows = case
    n = len(rows[0])
    assert kernel_basis(rows, n, FpOps(p)) == _generic(kernel_basis, rows, n,
                                                       FpOps(p))
    assert rank(rows, FpOps(p)) == _generic(rank, rows, FpOps(p))


@SETTINGS
@given(prime_field_matrices(), st.randoms(use_true_random=False))
def test_packed_rref_reduces_entries_outside_range_p(case, rng):
    """Entries off by multiples of p, negative ones included (the fixed
    field of a Frobenius power is the kernel of tau - id), give the rref
    of the reduced matrix."""
    p, rows = case
    shifted = [[x + p * rng.randint(-3, 3) for x in row] for row in rows]
    got, want = [list(r) for r in shifted], [list(r) for r in rows]
    assert rref(got, FpOps(p)) == rref_loop(want, FpOps(p))
    assert got == want


@pytest.mark.parametrize("p", PRIMES)
def test_packed_rref_at_the_lane_bound(p):
    """Every entry p - 1; and a pivot row of p - 1 over rows that read 0 in
    its column, which gain p times it and reach the lane bound
    (p - 1)^2 + p (p - 1) before the next reduction."""
    for nrows, ncols in ((1, 1), (2, 12), (512, 12)):
        _check_packed_rref(p, [[p - 1] * ncols for _ in range(nrows)])
        _check_packed_rref(p, [[p - 1] * ncols] + [[0] + [p - 1] * (ncols - 1)
                                                    for _ in range(nrows)])
    g = PackedLayout(p, 2, 12, p - 1)
    assert (p - 1) ** 2 + p * (p - 1) <= g.lane


@pytest.mark.parametrize("p", PRIMES)
def test_packed_reduction_is_exact_below_the_lane_width(p):
    """One multiplication reduces every lane mod p at once: exact for every
    value a lane can hold, with no carry between neighbouring lanes."""
    g = PackedLayout(p, 3, 4, 12 * (p - 1) ** 2)
    xs = range(g.lane + 1)
    assert all(x * g.magic >> g.shift == x // p for x in xs)
    rng = random.Random(p)
    for top in (g.lane, None):
        vals = [top if top is not None else rng.choice(xs) for _ in range(12)]
        M = linalg._join(vals, g.W)
        M -= p * (M * g.magic >> g.shift & g.lanes)
        assert M == linalg._join([x % p for x in vals], g.W)


@SETTINGS
@given(st.sampled_from(PRIMES), st.integers(1, 8),
       st.randoms(use_true_random=False))
def test_packed_singular_matches_rank(p, m, rng):
    """rref's column step (linalg._packed_pivots) on sums of l_i * T_i,
    l_i in range(p), the way the rank test builds L_x, so lanes start as
    high as m (p - 1)^2: the pivot columns, and so singular or not, are
    those of the list loop on the reduced sum."""
    g = PackedLayout(p, m, m, m * (p - 1) ** 2)
    mats = [[[rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(m)]
             for _ in range(m)] for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        # the last row of every T_i a multiple of the first: L_x is singular
        for t in mats:
            t[-1] = [2 * x for x in t[0]]
    ls = [rng.choice([p - 1, rng.randrange(p)]) for _ in range(m)]
    M = sum(l * g.pack(t) for l, t in zip(ls, mats))
    want = [[sum(l * t[r][j] for l, t in zip(ls, mats)) % p for j in range(m)]
            for r in range(m)]
    assert g.unpack(M) == want
    _, found = linalg._packed_pivots(M, g)
    pivots = rref_loop(want, FpOps(p))
    assert [col for col, _ in found] == pivots


def test_rref_loop_pivots_on_the_lowest_valuation_over_q_p():
    """Over Q_p the reference loop takes the first entry of lowest
    valuation in the column, not the first nonzero one."""
    ctx = PadicContext(5)
    five, one, zero = ctx.from_int(5), ctx.one(), ctx.zero()
    divisors = []

    class Recording(PadicOps):
        def inv(self, a):
            divisors.append(a.val)
            return super().inv(a)

    rows = [[five, one], [five * five, zero], [one, zero], [one, one]]
    assert rref_loop(rows, Recording(ctx)) == [0, 1]
    assert divisors[0] == 0
