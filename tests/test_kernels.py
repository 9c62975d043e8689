"""The integer kernels against the scalar-ops formulas they replace.

Quaternion and quadratic products and rational elimination run on ints
over common denominators.  Each is compared here with the plain formula
through the scalar ops, kept as the reference: values and types must
agree exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickson import linalg
from dickson.linalg import FpOps, QOps, kernel_basis, rref, solve
from dickson.padics import PadicContext, PadicOps
from dickson.quadratic import QuadField
from dickson.quaternions import QuaternionAlgebra

SETTINGS = settings(max_examples=100, deadline=None)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)
nonzero_rationals = rationals.filter(bool)


def reference_quaternion_product(q1, q2):
    """The 16-product formula written with the algebra's scalar ops."""
    alg = q1.alg
    o = alg.ops
    a, b = alg.a, alg.b
    x1, y1, z1, w1 = q1.coords()
    x2, y2, z2, w2 = q2.coords()

    def m(u, v):
        return o.mul(u, v)

    ab = m(a, b)
    x = o.sub(o.add(m(x1, x2), o.add(m(a, m(y1, y2)), m(b, m(z1, z2)))),
              m(ab, m(w1, w2)))
    y = o.add(o.add(m(x1, y2), m(y1, x2)),
              o.sub(m(b, m(w1, z2)), m(b, m(z1, w2))))
    z = o.add(o.add(m(x1, z2), m(z1, x2)),
              o.sub(m(a, m(y1, w2)), m(a, m(w1, y2))))
    w = o.add(o.add(m(x1, w2), m(w1, x2)),
              o.sub(m(y1, z2), m(z1, y2)))
    return [x, y, z, w]


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
    _same(got, reference_quaternion_product(q1, q2))
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
    _same(got, reference_quaternion_product(q1, q2))
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
    a = u.field.a
    got = u * v
    want = [u.x * v.x + a * u.y * v.y, u.x * v.y + u.y * v.x]
    _same([got.x, got.y], want)


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
    """fn run with linalg's Gauss-Jordan loop through QOps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "rref", linalg._rref_loop)
        return fn(*args)


@SETTINGS
@given(rational_matrices())
def test_rational_rref_matches_generic_loop(rows):
    got, want = [list(r) for r in rows], [list(r) for r in rows]
    pivots = rref(got, QOps())
    assert pivots == linalg._rref_loop(want, QOps())
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


def test_integer_tensor_scales_rationals_and_passes_others_through():
    tensor = [[[Fraction(1, 2), 0], [Fraction(-2, 3), 3]],
              [[0, Fraction(5, 4)], [1, Fraction(0)]]]
    scaled = linalg._integer_tensor(tensor, QOps())
    assert scaled == [[[6, 0], [-8, 36]], [[0, 15], [12, 0]]]
    assert all(type(x) is int for m in scaled for row in m for x in row)
    for ops in (FpOps(5), PadicOps(PadicContext(5))):
        assert linalg._integer_tensor(tensor, ops) is tensor

