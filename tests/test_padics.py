import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import dickson
from dickson.analysis import division_decide
from dickson.doubling import DicksonAlgebra
from dickson.padics import (PadicContext, PadicNumber, PadicQuadExt,
                            PrecisionError, ext_sqrt, padic_is_square)
from oracles import padic_sqrt, square_class


# ---------------------------------------------------------------------------
# base field numbers

def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(2)
    with pytest.raises(ValueError):
        PadicContext(9)
    with pytest.raises(ValueError):
        PadicContext(5, 0)


def test_from_fraction_roundtrip_mod_powers():
    ctx = PadicContext(5)
    z = ctx.from_fraction(Fraction(7, 3))
    # 7/3 = 7 * inv(3) mod 5^N; check by clearing the denominator
    lhs = z * 3
    rhs = ctx.from_fraction(7)
    assert lhs == rhs
    assert ctx.from_fraction(Fraction(50)).val == 2
    assert ctx.from_fraction(Fraction(1, 25)).val == -2
    assert ctx.from_fraction(0).is_zero()


def test_arithmetic_matches_rationals():
    ctx = PadicContext(7)
    rng = random.Random(41)
    for _ in range(80):
        a = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 5, 6]))
        b = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 4, 5, 6]))
        za, zb = ctx.from_fraction(a), ctx.from_fraction(b)
        assert za + zb == ctx.from_fraction(a + b)
        assert za * zb == ctx.from_fraction(a * b)
        assert za - zb == ctx.from_fraction(a - b)
        if b != 0:
            assert za * ctx.from_fraction(b).inv() == ctx.from_fraction(a / b)


def test_exact_cancellation_gives_zero():
    ctx = PadicContext(5)
    z = ctx.from_fraction(Fraction(12))
    assert (z - z).is_zero()


def test_truthiness_is_false_exactly_at_the_exact_zero():
    ctx = PadicContext(5, 8)
    assert not ctx.zero() and not ctx.from_fraction(0)
    assert not (ctx.from_fraction(3) - ctx.from_fraction(3))
    # one significant digit left, at a high valuation: still nonzero
    low = ctx.from_fraction(1 + 5 ** 7) - ctx.from_fraction(1)
    assert (low.val, low.prec) == (7, 1)
    assert low and not low.is_zero()
    assert ctx.one() and PadicNumber(ctx, -3, 2, 1)


def test_precision_window_shrinks_on_valuation_jump():
    ctx = PadicContext(5, 8)
    a = ctx.from_fraction(1)
    b = ctx.from_fraction(1 + 5 ** 6)
    d = b - a          # valuation 6 eats six digits
    assert d.val == 6
    assert d.prec <= 2


def test_cancellation_below_the_window_is_exact_zero():
    # numbers equal through the whole precision window subtract to the
    # exact zero element rather than a fuzzy low-precision residue
    ctx = PadicContext(5, 4)
    a = ctx.from_fraction(1)
    b = ctx.from_fraction(1 + 5 ** 4)
    assert (a - b).is_zero()


def test_no_significant_digits_raises():
    ctx = PadicContext(5, 4)
    with pytest.raises(PrecisionError):
        PadicNumber(ctx, 0, 1, 0)


# Reference arithmetic: the sum and product formulas with plain p ** k,
# on (val, unit, prec) triples; zero is (0, 0, N).

def _ref_add(a, b, N, p):
    if a[1] == 0:
        return b
    if b[1] == 0:
        return a
    v = min(a[0], b[0])
    window = min(a[0] + a[2], b[0] + b[2]) - v
    if window < 1:
        raise PrecisionError("operands do not overlap in precision")
    raw = (a[1] * p ** (a[0] - v) + b[1] * p ** (b[0] - v)) % p ** window
    if raw == 0:
        return (0, 0, N)
    s = 0
    while raw % p == 0:
        raw //= p
        s += 1
    return (v + s, raw % p ** (window - s), window - s)


def _ref_mul(a, b, N, p):
    if a[1] == 0 or b[1] == 0:
        return (0, 0, N)
    prec = min(a[2], b[2])
    return (a[0] + b[0], a[1] * b[1] % p ** prec, prec)


def _triple(z):
    return (z.val, z.unit, z.prec)


def _in_context(z, ctx):
    """The same (val, unit, prec) in another context."""
    return ctx.zero() if z.is_zero() else PadicNumber(ctx, z.val, z.unit,
                                                      z.prec)


def _random_number(ctx, rng):
    p, N = ctx.p, ctx.N
    if rng.random() < 0.1:
        return ctx.zero()
    prec = rng.randint(1, N)
    unit = rng.randrange(1, p ** prec)
    if unit % p == 0:
        unit += 1
    # valuations up to 3N apart, so shifts beyond the tabled p**N occur
    return PadicNumber(ctx, rng.randint(-N, 2 * N), unit, prec)


def _near_negative(z, rng):
    """-z plus a perturbation at a random digit: the sum with z cancels
    partly, or wholly (to the exact zero) when the digit is past the window."""
    ctx = z.ctx
    k = rng.randint(1, z.prec + 2)
    unit = -z.unit + rng.randrange(1, ctx.p) * ctx.p ** k
    return PadicNumber(ctx, z.val, unit, z.prec)


def test_arithmetic_matches_reference_formulas():
    rng = random.Random(20261018)
    for p in (3, 5, 7):
        for N in (4, 16, 32):
            ctx, twin = PadicContext(p, N), PadicContext(p, N)
            assert twin == ctx and twin is not ctx
            for _ in range(300):
                a = _random_number(ctx, rng)
                roll = rng.random()
                if roll < 0.2 and not a.is_zero():
                    b = _near_negative(a, rng)
                elif roll < 0.3:
                    b = ctx.from_fraction(Fraction(rng.randint(-50, 50),
                                                   rng.randint(1, 9)))
                else:
                    b = _random_number(ctx, rng)
                b_twin = _in_context(b, twin)
                want_sum = _ref_add(_triple(a), _triple(b), N, p)
                want_prod = _ref_mul(_triple(a), _triple(b), N, p)
                for other in (b, b_twin):
                    for got, want in ((a + other, want_sum),
                                      (other + a, want_sum),
                                      (a * other, want_prod),
                                      (other * a, want_prod)):
                        assert _triple(got) == want
                        assert got.is_zero() == (want[1] == 0)
                        assert got.ctx == ctx
                diff = a - b
                want = _ref_add(_triple(a), _triple(-b), N, p)
                assert _triple(diff) == want
            zero = ctx.zero()
            assert zero is ctx.zero()
            assert _triple(zero) == (0, 0, N)


def test_mixed_p_or_precision_raises():
    ctx = PadicContext(5, 16)
    a = ctx.from_fraction(3)
    for other in (PadicContext(7, 16), PadicContext(5, 32)):
        b = other.from_fraction(3)
        for op in (lambda: a + b, lambda: a * b, lambda: a - b,
                   lambda: b + a, lambda: b * a):
            with pytest.raises(ValueError):
                op()
        K, L = PadicQuadExt(ctx, "sqrt_u"), PadicQuadExt(other, "sqrt_u")
        for op in (lambda: K.one() + L.one(), lambda: K.one() * L.one()):
            with pytest.raises(ValueError):
                op()


def test_shared_zero_is_still_zero_after_use():
    ctx = PadicContext(7, 8)
    zero = ctx.zero()
    a = ctx.from_fraction(Fraction(22, 3))
    assert (a - a) is zero
    assert (a * zero) is zero and (zero * a) is zero
    assert (zero + a) is a and (a + zero) is a
    assert -zero is zero
    K = PadicQuadExt(ctx, "sqrt_p")
    x = K.random_element(random.Random(3))
    assert (x * K.zero() - K.zero()).is_zero()
    assert (x + K.zero()) == x
    assert zero is ctx.zero() and ctx.from_fraction(0) is zero
    assert (zero.val, zero.unit, zero.prec) == (0, 0, 8)
    assert zero.is_zero() and zero == 0


def test_extension_ops_across_equal_contexts():
    rng = random.Random(12)
    for kind in PadicQuadExt.KINDS:
        K = PadicQuadExt(PadicContext(5, 16), kind)
        L = PadicQuadExt(PadicContext(5, 16), kind)
        for _ in range(20):
            x, y = K.random_element(rng), K.random_element(rng)
            y_twin = L.element(_in_context(y.x, L.ctx), _in_context(y.y, L.ctx))
            assert x + y_twin == x + y
            assert x * y_twin == x * y
            assert x - y_twin == x - y


def test_results_carry_the_left_operand_context():
    K, L = PadicContext(5, 16), PadicContext(5, 16)
    a, b = K.from_fraction(Fraction(7, 5)), L.from_fraction(Fraction(7, 5))
    for got, want in ((K.zero() + b, a), (K.zero() - b, -a),
                      (a + L.zero(), a)):
        assert got.ctx is K and _triple(got) == _triple(want)
    assert (L.zero() + K.zero()) is L.zero()
    E, F = PadicQuadExt(K, "sqrt_u"), PadicQuadExt(L, "sqrt_u")
    for z in (E.zero() + F.one(), E.zero() - F.root(), E.one() * F.one()):
        assert z.ext is E and z.x.ctx is K and z.y.ctx is K
    assert E.zero() + F.one() == E.one()


# A certificate must hold under ``python -O`` too: plant a wrong first
# residue for the Hensel lifts, then a wrong Tonelli-Shanks root, and
# expect each root check to raise.
_WRONG_ROOT_SCRIPT = textwrap.dedent("""
    import dickson.fields as fields
    import dickson.padics as padics
    import oracles

    sqrt = fields.FiniteField.sqrt
    # 1 is not a root of 4 mod 7, nor of 4 in GF(25)
    fields.FiniteField.sqrt = lambda self, e: self.from_int(1)
    ctx = padics.PadicContext(7)
    try:
        r = oracles.padic_sqrt(ctx.from_fraction(4))
        print("returned", r)
    except RuntimeError as exc:
        print("raised", exc)

    K = padics.PadicQuadExt(padics.PadicContext(5), "sqrt_u")
    z = K.element(4, 0)
    try:
        r = padics.ext_sqrt(z)
        print("returned", r)
    except RuntimeError as exc:
        print("raised", exc)

    # above the index tables: a negation that answers 1 makes the root of
    # smaller index 1, which is not a root of 4 in GF(101^2)
    fields.FiniteField.sqrt = sqrt
    fields.FieldElement.__neg__ = lambda self: self.field.one()
    F = fields.make_field(101, 2)
    try:
        r = F.sqrt(F.from_int(4))
        print("returned", r)
    except RuntimeError as exc:
        print("raised", exc)
""")


def test_sqrt_certificates_run_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dickson.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_ROOT_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("raised ") for line in lines), lines


# ---------------------------------------------------------------------------
# squares in Q_p

def test_square_class_labels_cover_all_four():
    ctx = PadicContext(5)
    labels = set()
    for v in (0, 1):
        for u in (1, 2):
            labels.add(square_class(PadicNumber(ctx, v, u, ctx.N)))
    assert labels == {"1", "u", "pi", "upi"}


def test_square_class_invariant_under_multiplication_by_squares():
    ctx = PadicContext(7)
    rng = random.Random(6)
    for _ in range(50):
        z = ctx.from_fraction(Fraction(rng.randint(1, 400)))
        w = ctx.from_fraction(Fraction(rng.randint(1, 30)))
        assert square_class(z * w * w) == square_class(z)


def test_padic_sqrt_hensel():
    ctx = PadicContext(5)
    r = padic_sqrt(ctx.from_fraction(6))
    assert r is not None
    assert r * r == ctx.from_fraction(6)
    assert r.unit % 25 in (16, 9)      # +-16 mod 25
    assert padic_sqrt(ctx.from_fraction(5)) is None
    assert padic_sqrt(ctx.from_fraction(2)) is None
    r = padic_sqrt(ctx.from_fraction(100))
    assert r is not None and r * r == ctx.from_fraction(100)


def test_padic_sqrt_random_squares():
    ctx = PadicContext(13)
    rng = random.Random(77)
    for _ in range(40):
        x = ctx.from_fraction(Fraction(rng.randint(1, 500),
                                       rng.randint(1, 30)))
        sq = x * x
        assert padic_is_square(sq)
        r = padic_sqrt(sq)
        assert r * r == sq


# ---------------------------------------------------------------------------
# the three quadratic extensions

def test_extension_kinds_and_alpha_square():
    ctx = PadicContext(5)
    for kind, target in (("sqrt_p", 5), ("sqrt_u", None), ("sqrt_up", None)):
        K = PadicQuadExt(ctx, kind)
        alpha = K.element(ctx.zero(), ctx.one())
        asq = alpha * alpha
        assert asq.y.is_zero()
        assert asq.x == K.d
        if target is not None:
            assert asq.x == ctx.from_fraction(target)
        # the radicand must not be a square downstairs
        assert not padic_is_square(K.d)


def test_random_element_is_the_product_by_p_to_the_shift():
    # random_element moves valuations in place of the extension product
    # by p**shift; the rng calls and the values are those of the product
    for p, N in ((3, 4), (5, 32), (7, 8)):
        for kind in PadicQuadExt.KINDS:
            K = PadicQuadExt(PadicContext(p, N), kind)
            for seed in range(40):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                z = K.random_element(got_rng)
                x = y = 0
                while not (x or y):
                    x = want_rng.randrange(-99, 100)
                    y = want_rng.randrange(-99, 100)
                shift = want_rng.choice([0, 0, 1, -1])
                want = K.element(x, y) * K.element(Fraction(p) ** shift, 0)
                assert [_triple(t) for t in (z.x, z.y)] == \
                    [_triple(t) for t in (want.x, want.y)]
                assert got_rng.random() == want_rng.random()


def test_unknown_extension_kind_rejected():
    ctx = PadicContext(5)
    with pytest.raises(ValueError):
        PadicQuadExt(ctx, "sqrt_q")


def test_extension_arithmetic_and_conjugate_norm():
    ctx = PadicContext(5)
    K = PadicQuadExt(ctx, "sqrt_p")
    rng = random.Random(3)
    for _ in range(40):
        z = K.element(ctx.from_fraction(rng.randint(-20, 20)),
                      ctx.from_fraction(rng.randint(-20, 20)))
        w = K.element(ctx.from_fraction(rng.randint(-20, 20)),
                      ctx.from_fraction(rng.randint(-20, 20)))
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()
        nz = z.norm()
        assert nz == (z * z.conjugate()).x
        if not z.is_zero() and not w.is_zero():
            assert (z * w).norm() == nz * w.norm()
    z = K.element(ctx.from_fraction(2), ctx.from_fraction(3))
    assert (z * z.inv()) == K.one()


def test_ext_squares_have_hensel_roots():
    ctx = PadicContext(5)
    rng = random.Random(8)
    for kind in ("sqrt_p", "sqrt_u", "sqrt_up"):
        K = PadicQuadExt(ctx, kind)
        for _ in range(20):
            z = K.element(ctx.from_fraction(rng.randint(-15, 15)),
                          ctx.from_fraction(rng.randint(-15, 15)))
            if z.is_zero():
                continue
            sq = z * z
            assert ext_sqrt(sq) is not None
            r = ext_sqrt(sq)
            assert r * r == sq


def test_ext_alpha_is_not_a_square_in_ramified_extension():
    ctx = PadicContext(5)
    K = PadicQuadExt(ctx, "sqrt_p")
    alpha = K.element(ctx.zero(), ctx.one())
    # N(alpha) = -5 has odd valuation, and -1 is a square in Q_5
    assert ext_sqrt(alpha) is None



def test_ext_sqrt_walks_the_residue_once(monkeypatch):
    # a square's root and a non-square's verdict each read the residue of
    # the unit part once, in ext_sqrt itself
    from dickson import padics
    from dickson.doubling import PadicCoefficients

    K = PadicQuadExt(PadicContext(5, 8), "sqrt_u")
    A = PadicCoefficients(K)
    calls = []
    residue = padics.PadicExtElement.residue
    monkeypatch.setattr(padics.PadicExtElement, "residue",
                        lambda z: calls.append(z) or residue(z))
    z = K.element(2, 1)
    ok, r = A.is_square(z * z)
    assert ok and r * r == z * z and len(calls) == 1
    ok, r = A.is_square(K.element(0, 1))
    assert (ok, r) == (False, None) and len(calls) == 2


def test_ext_non_squares_decided_above_the_table_bound():
    # GF(10007) has no index tables; its residue roots come from
    # Tonelli-Shanks, which decides a non-square residue on the way
    ctx = PadicContext(10007, 8)
    K = PadicQuadExt(ctx, "sqrt_p")
    assert ext_sqrt(K.element(5, 0)) is None
    r = ext_sqrt(K.element(4, 0))
    assert r * r == K.element(4, 0)
    D = DicksonAlgebra(K, "id", K.element(5, 0), allow_identity=True)
    assert division_decide(D).status == "proved-division"

# ---------------------------------------------------------------------------
# the worked division example

def test_division_example_sqrt5():
    # for p = 1 mod 4, N(y*alpha) = -y^2 alpha^2 is not a square in Q_p:
    # -1 and y^2 are squares and alpha^2 is not
    ctx = PadicContext(5)
    for kind in ("sqrt_p", "sqrt_u", "sqrt_up"):
        K = PadicQuadExt(ctx, kind)
        for y in (1, 2, Fraction(3, 5)):
            c = K.element(ctx.zero(), ctx.from_fraction(y))
            verdict = division_decide(DicksonAlgebra(K, "conjugate", c))
            assert verdict.status == "proved-division"


def test_division_example_rejects_zero_y():
    ctx = PadicContext(5)
    K = PadicQuadExt(ctx, "sqrt_p")
    with pytest.raises(ValueError):
        DicksonAlgebra(K, "conjugate", K.element(ctx.zero(), ctx.zero()))


# ---------------------------------------------------------------------------
# the rationals an element names, and the rational twin of a doubling

def test_rational_coords_are_the_literal_or_the_digits():
    from dickson.padics import rational_coords
    from dickson.parsing import parse_coefficient, parse_element
    A = parse_coefficient("qp(5;sqrt_u;4)")
    # a literal names its rational exactly, beyond the 4 digits kept
    z = parse_element(A, "30:1,-30:7")
    assert rational_coords(z) == [Fraction(5) ** 30, Fraction(7, 5 ** 30)]
    assert rational_coords(parse_element(A, "1/3")) == [Fraction(1, 3), 0]
    # an arithmetic result names what its digits write: -1/3 at 4 digits
    # is the unit 208, since 3 * 208 = 5^4 - 1
    w = -parse_element(A, "3").inv()
    assert rational_coords(w) == [Fraction(208), 0]
    assert w == A.K.element(Fraction(-1, 3), 0)


def test_rational_twin_draws_the_trials_of_the_padic_doubling():
    from dickson.doubling import rational_twin
    from dickson.padics import rational_coords
    from dickson.parsing import algebra_from_document
    D = algebra_from_document({"coeff": "qp(7;sqrt_up;8)",
                               "sigma": "conjugate", "c": "1/7,-2:3"})
    T = rational_twin(D)
    assert rational_twin(D) is T and rational_twin(T) is T
    assert T.coeff.describe() == "quad(%d)" % (3 * 7)
    assert T.c.coords() == [Fraction(1, 7), Fraction(3, 49)]
    assert (T.sigma, T.variant) == (D.sigma, D.variant)
    seen = set()
    r1, r2 = random.Random(5), random.Random(5)
    for _ in range(60):
        x, y = D.random_element(r1), T.random_element(r2)
        assert rational_coords(x.u) + rational_coords(x.v) == T.coords(y)
        seen.add(min(t.val for t in (x.u.x, x.u.y) if t.unit))
    assert r1.random() == r2.random()
    assert {-1, 0, 1} <= seen
