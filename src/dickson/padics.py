"""Bounded-precision p-adic numbers (odd p) and their quadratic extensions.

A number is (valuation, unit) with the unit kept to `prec` significant
p-adic digits, 32 by default.  Multiplication is exact on that window;
addition renormalizes and full cancellation collapses to exact zero.
Squareness questions only ever need the valuation parity plus one residue
digit, so the default window is generous.

A literal names a rational: "v:u" is p^v * u and "a/b" is a/b.  An
extension element made from two rationals keeps them (`exact`), and
rational_coords reads them back; for any other element it reads the
rational p^val * unit that the digits write.  The doubling module runs
construct and the nuclei of a Q_p doubling on those rationals, over
Q(sqrt d) (doubling.rational_twin), so the working precision N bounds
only the p-adic work: square roots (Hensel lifting) and the searches
that use them.

The sum has one home, _sum on two (val, unit, prec) triples: `+` calls it
on two numbers, and the Q_p(alpha) product calls it through _dot on the
triples of its scalar products, which it never builds as numbers.
PadicNumber.__init__ reduces and checks every value that comes from
outside (parsing, from_fraction, _coerce, inv); the results of `*`,
negation and _sum are built by _number without that work, since each
already is a reduced unit to at least one digit when its operands are.

Quadratic extensions come in the three square classes of conductors:
    sqrt_p   ramified,   alpha^2 = p
    sqrt_u   unramified, alpha^2 = u   (u the smallest positive non-residue)
    sqrt_up  ramified,   alpha^2 = u*p
The uniformizer is alpha for the ramified kinds and p otherwise, and the
residue field is GF(p) or GF(p^2) accordingly; ext_sqrt reads squareness
off there and Hensel-lifts the residue's root in one walk.  Its residue
root is FiniteField.sqrt's, which works at every p.

p = 2 is rejected outright; none of the analyses here need it and the
square theory is different there.
"""

from fractions import Fraction
from operator import attrgetter

from .fields import FiniteField, is_prime, randbelow
from .linalg import Element
from .reports import certify


DEFAULT_PRECISION = 32


class PrecisionError(ArithmeticError):
    """A verdict would need p-adic digits beyond the working precision."""


class _PowerTable(dict):
    """p**k, stored for 0 <= k <= N; a larger k is computed on lookup."""

    __slots__ = ("p",)

    def __init__(self, p, n):
        super().__init__((k, p ** k) for k in range(n + 1))
        self.p = p

    def __missing__(self, k):
        return self.p ** k


class PadicContext:
    """Q_p at a fixed working precision of N significant digits.

    `powers[k]` is p**k; every modulus, sum window and valuation shift of
    the arithmetic reads it there.  `zero()` is one shared number: a
    PadicNumber is never mutated in place.
    """

    def __init__(self, p, precision=DEFAULT_PRECISION):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if p == 2:
            raise ValueError("p = 2 is not supported")
        if precision < 4:
            raise ValueError("precision must be at least 4 digits")
        self.p = p
        self.N = precision
        self.powers = _PowerTable(p, precision)
        self._u = None
        self._zero = PadicNumber(self, 0, 0, precision)

    def zero(self):
        return self._zero

    def one(self):
        return self.from_int(1)

    def from_int(self, a):
        return self.from_fraction(Fraction(a))

    def from_fraction(self, r):
        r = Fraction(r)
        if r == 0:
            return self._zero
        p = self.p
        v = 0
        num, den = r.numerator, r.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        mod = self.powers[self.N]
        return PadicNumber(self, v, num * pow(den, -1, mod) % mod, self.N)

    def nonresidue(self):
        """The smallest positive quadratic non-residue mod p."""
        if self._u is None:
            u = 2
            while pow(u, (self.p - 1) // 2, self.p) == 1:
                u += 1
            self._u = u
        return self._u

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, PadicContext) and other.p == self.p
                and other.N == self.N)

    def __hash__(self):
        return hash(("Qp", self.p, self.N))

    def __repr__(self):
        return "Q_%d (prec %d)" % (self.p, self.N)


class PadicNumber(Element):
    """p^val * unit, the unit known to prec digits.  Its own _coerce
    re-homes an operand from an equal but distinct context, and its own
    __eq__ compares units only to the precision both operands know."""

    __slots__ = ("ctx", "val", "unit", "prec")

    def __init__(self, ctx, val, unit, prec):
        self.ctx = ctx
        if unit == 0:
            self.val, self.unit, self.prec = 0, 0, ctx.N
            return
        if prec < 1:
            raise PrecisionError("no significant digits left")
        unit %= ctx.powers[prec]
        if unit % ctx.p == 0:
            raise ValueError("unit part divisible by p")
        self.val, self.unit, self.prec = val, unit, prec

    def is_zero(self):
        return self.unit == 0

    def __bool__(self):
        """False exactly at the exact zero, as for int and Fraction."""
        return self.unit != 0

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.ctx is self.ctx:
                return other
            if other.ctx != self.ctx:
                raise ValueError("numbers from different contexts")
            # an equal but distinct context: a result such as 0 + other
            # must still carry self's context
            if not other.unit:
                return self.ctx._zero
            return PadicNumber(self.ctx, other.val, other.unit, other.prec)
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_fraction(Fraction(other))
        return NotImplemented

    # The operators below skip _coerce when the operand is a PadicNumber of
    # this very context object, the case of nearly every call.

    def __add__(self, other):
        if type(other) is not PadicNumber or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.unit:
            return other
        if not other.unit:
            return self
        return _sum(self.ctx, self.val, self.unit, self.prec,
                    other.val, other.unit, other.prec)

    def __neg__(self):
        if not self.unit:
            return self
        return _number(self.ctx, self.val,
                       -self.unit % self.ctx.powers[self.prec], self.prec)

    def __sub__(self, other):
        if type(other) is not PadicNumber or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not PadicNumber or other.ctx is not self.ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.unit or not other.unit:
            return self.ctx._zero
        prec = self.prec if self.prec < other.prec else other.prec
        return _number(self.ctx, self.val + other.val,
                       self.unit * other.unit % self.ctx.powers[prec], prec)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of p-adic zero")
        return PadicNumber(self.ctx, -self.val,
                           pow(self.unit, -1, self.ctx.powers[self.prec]),
                           self.prec)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a nonzero p-adic number is known only to its precision
            return not self.unit and not other
        if not isinstance(other, PadicNumber) or (
                other.ctx is not self.ctx and other.ctx != self.ctx):
            return NotImplemented
        if not self.unit or not other.unit:
            return not self.unit and not other.unit
        if self.val != other.val:
            return False
        prec = min(self.prec, other.prec)
        return (self.unit - other.unit) % self.ctx.powers[prec] == 0

    def __hash__(self):
        if self.is_zero():
            return hash(0)
        return hash(("padic", self.ctx.p, self.val, self.unit % self.ctx.p))

    def __repr__(self):
        if self.is_zero():
            return "0 (p=%d)" % self.ctx.p
        return "%d^%d * %d (mod p^%d)" % (self.ctx.p, self.val,
                                          self.unit % self.ctx.p ** min(self.prec, 6),
                                          min(self.prec, 6))

    def literal(self):
        if self.is_zero():
            return "0"
        return "%d:%d" % (self.val, self.unit)

    def residue(self):
        """First digit of the unit part, in range(p)."""
        if self.is_zero():
            raise ValueError("zero has no unit residue")
        return self.unit % self.ctx.p


_new_number = object.__new__


def _number(ctx, val, unit, prec):
    """The nonzero PadicNumber p^val * unit, built without __init__.

    The caller guarantees what __init__ would check or establish:
    prec >= 1, 0 < unit < p**prec and p does not divide unit.  These hold
    for every result made here from numbers that hold them: a product
    of two units is a unit (p is prime), reduced mod p**min(prec); a
    negation p**prec - unit is one; and _sum strips every factor p off
    a nonzero residue mod p**window, which leaves at least one digit."""
    z = _new_number(PadicNumber)
    z.ctx, z.val, z.unit, z.prec = ctx, val, unit, prec
    return z


def _sum(ctx, sv, su, sp, ov, ou, op):
    """The p-adic sum of the nonzero numbers (sv, su, sp) and (ov, ou, op),
    given as (val, unit, prec) triples of one context; the exact zero when
    they cancel through the window both know.  Only su mod p**sp and ou
    mod p**op are read, so a caller may pass unreduced units (as _dot
    does): the window below is at most either precision past its own
    valuation, and at least min(sp, op) >= 1: for sv <= ov it is
    min(sp, ov - sv + op), so no sum runs out of digits."""
    # absolute precision of the sum
    sa, oa = sv + sp, ov + op
    absp = sa if sa <= oa else oa
    v = sv if sv <= ov else ov
    window = absp - v
    pw = ctx.powers
    if sv == v:
        raw = (su + ou * pw[ov - v]) % pw[window]
    else:
        raw = (su * pw[sv - v] + ou) % pw[window]
    if not raw:
        return ctx._zero
    p = ctx.p
    s = 0
    while raw % p == 0:
        raw //= p
        s += 1
    return _number(ctx, v + s, raw, window - s)


def _dot(a, b, c, d):
    """(a*b) + (c*d), the very number the operators give, without
    building the two products: each is passed to _sum as its (val, unit,
    prec) triple.  A zero operand, or operands of distinct contexts, take
    the operators' own path."""
    ctx = a.ctx
    if b.ctx is not ctx or c.ctx is not ctx or d.ctx is not ctx:
        return a * b + c * d
    if not a.unit or not b.unit:
        return c * d
    if not c.unit or not d.unit:
        return a * b
    return _sum(ctx, a.val + b.val, a.unit * b.unit,
                a.prec if a.prec < b.prec else b.prec,
                c.val + d.val, c.unit * d.unit,
                c.prec if c.prec < d.prec else d.prec)


def padic_is_square(z):
    """Is the PadicNumber z a square?  Needs the valuation parity and one
    residue digit; ext_sqrt decides squareness in the extension."""
    if not isinstance(z, PadicNumber):
        raise TypeError("expected a PadicNumber")
    if z.is_zero():
        raise ValueError("squareness of zero is not asked here")
    if z.prec < 1:
        raise PrecisionError("not enough digits to test squareness")
    if z.val % 2:
        return False
    return pow(z.residue(), (z.ctx.p - 1) // 2, z.ctx.p) == 1


class PadicQuadExt:
    """A quadratic extension Q_p(alpha) with alpha^2 in {p, u, u*p}."""

    KINDS = ("sqrt_p", "sqrt_u", "sqrt_up")

    def __init__(self, ctx, kind):
        if kind not in self.KINDS:
            raise ValueError("kind must be one of %s" % (self.KINDS,))
        self.ctx = ctx
        self.kind = kind
        u = ctx.nonresidue()
        d = {"sqrt_p": ctx.p, "sqrt_u": u, "sqrt_up": u * ctx.p}[kind]
        self.d_int = d
        self.d = ctx.from_int(d)
        self.ramified = kind != "sqrt_u"
        self._residue_field = None

    def element(self, x, y):
        """x + y*alpha from PadicNumbers or rationals.  Given two rationals
        it keeps them, as the rationals the element names (rational_coords)."""
        if isinstance(x, PadicNumber) or isinstance(y, PadicNumber):
            def lift(v):
                return (v if isinstance(v, PadicNumber)
                        else self.ctx.from_fraction(v))
            return PadicExtElement(self, lift(x), lift(y))
        exact = (Fraction(x), Fraction(y))
        return PadicExtElement(self, self.ctx.from_fraction(exact[0]),
                               self.ctx.from_fraction(exact[1]), exact)

    def zero(self):
        return self.element(0, 0)

    def one(self):
        return self.element(1, 0)

    def root(self):
        """alpha itself."""
        return self.element(0, 1)

    def residue_field(self):
        """GF(p) for ramified kinds, GF(p^2) presented as GF(p)[X]/(X^2 - u)
        for the unramified one."""
        if self._residue_field is None:
            if self.ramified:
                self._residue_field = FiniteField(self.ctx.p, 1)
            else:
                u = self.ctx.nonresidue()
                self._residue_field = FiniteField(self.ctx.p, 2,
                                                  [-u % self.ctx.p, 0, 1])
        return self._residue_field

    def pi_power(self, j):
        """The uniformizer to the j-th power, as an extension element."""
        if not self.ramified:
            return self.element(Fraction(self.ctx.p) ** j, 0)
        # alpha^j = d^(j//2) * alpha^(j mod 2), floor division
        q, r = divmod(j, 2)
        scalar = Fraction(self.d_int) ** q
        if r == 0:
            return self.element(scalar, 0)
        return self.element(0, scalar)

    def draw(self, rng):
        """The ints (x, y, shift) of one random element, (x + y*alpha) *
        p**shift: x, y in [-99, 99], not both 0, and shift 0, 1 or -1.
        They are what rng.randrange(-99, 100) twice, until x or y is
        nonzero, and rng.choice([0, 0, 1, -1]) draw (fields.randbelow)."""
        bits = rng.getrandbits
        while True:
            x = randbelow(bits, 199) - 99
            y = randbelow(bits, 199) - 99
            if x or y:
                break
        return x, y, (0, 0, 1, -1)[randbelow(bits, 4)]

    def random_element(self, rng):
        x, y, shift = self.draw(rng)
        s = Fraction(self.ctx.p) ** shift
        return self.element(x * s, y * s)

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, PadicQuadExt) and other.ctx == self.ctx
                and other.kind == self.kind)

    def __hash__(self):
        return hash(("QpExt", self.ctx.p, self.ctx.N, self.kind))

    def __repr__(self):
        return "Q_%d(%s)" % (self.ctx.p, self.kind)


class PadicExtElement(Element, parent="ext"):
    """x + y*alpha over a PadicQuadExt; x and y are PadicNumbers, and
    (x, 0) equals x.  `exact` is the pair of rationals the element was made
    from by ext.element, or None; arithmetic results keep none."""

    __slots__ = ("ext", "x", "y", "exact")
    _k = property(attrgetter("x", "y"))
    _scalars = (int, Fraction, PadicNumber)

    def __init__(self, ext, x, y, exact=None):
        self.ext = ext
        self.x = x
        self.y = y
        self.exact = exact

    def _lift(self, s):
        return self.ext.element(s, 0)

    def _scalar(self):
        return self.x if self.y.is_zero() else None

    # As for PadicNumber, an operand of this very extension object skips
    # _coerce; the coordinates of such elements are PadicNumbers already,
    # so results are built without ext.element's lift.

    def __add__(self, other):
        if type(other) is not PadicExtElement or other.ext is not self.ext:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return PadicExtElement(self.ext, self.x + other.x, self.y + other.y)

    def __neg__(self):
        return PadicExtElement(self.ext, -self.x, -self.y)

    def __sub__(self, other):
        if type(other) is not PadicExtElement or other.ext is not self.ext:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not PadicExtElement or other.ext is not self.ext:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ext = self.ext
        x, y, ox, oy = self.x, self.y, other.x, other.y
        # x*ox + (d*y)*oy and x*oy + y*ox, with the sums in that order
        return PadicExtElement(ext, _dot(x, ox, ext.d * y, oy),
                               _dot(x, oy, y, ox))

    def dot(self, b, c, e):
        """self*b + c*e: __mul__'s coordinates, summed as __add__ sums them."""
        ext = self.ext
        if not (type(b) is type(c) is type(e) is PadicExtElement
                and b.ext is ext and c.ext is ext and e.ext is ext):
            b, c, e = self._coerced(b, c, e)
        d, x, y, cx, cy = ext.d, self.x, self.y, c.x, c.y
        return PadicExtElement(
            ext, _dot(x, b.x, d * y, b.y) + _dot(cx, e.x, d * cy, e.y),
            _dot(x, b.y, y, b.x) + _dot(cx, e.y, cy, e.x))

    def conjugate(self):
        return PadicExtElement(self.ext, self.x, -self.y)

    def norm(self):
        """N(x + y alpha) = x^2 - (alpha^2) y^2, in Q_p."""
        return self.x * self.x - self.ext.d * self.y * self.y

    def inv(self):
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero")
        ni = n.inv()
        return self.ext.element(self.x * ni, -(self.y * ni))

    def is_zero(self):
        return self.x.is_zero() and self.y.is_zero()

    def __repr__(self):
        return "(%r) + (%r)*alpha" % (self.x, self.y)

    def literal(self):
        return "%s,%s" % (self.x.literal(), self.y.literal())

    def val_pi(self):
        """Valuation with respect to the uniformizer."""
        if self.is_zero():
            raise ValueError("valuation of zero")
        parts = []
        if not self.x.is_zero():
            parts.append(2 * self.x.val if self.ext.ramified else self.x.val)
        if not self.y.is_zero():
            parts.append(2 * self.y.val + 1 if self.ext.ramified else self.y.val)
        return min(parts)

    def unit_part(self):
        return self * self.ext.pi_power(-self.val_pi())

    def residue(self):
        """Image of a unit in the residue field."""
        R = self.ext.residue_field()
        if self.val_pi() != 0:
            raise ValueError("residue of a non-unit")
        if self.ext.ramified:
            # pi-valuation 0 forces the scalar part to be a p-unit
            return R.element([self.x.residue()])
        cx = 0 if self.x.is_zero() or self.x.val > 0 else self.x.residue()
        cy = 0 if self.y.is_zero() or self.y.val > 0 else self.y.residue()
        return R.element([cx, cy])


def _written(t):
    """The rational p**val * unit that the digits of a PadicNumber write."""
    if not t.unit:
        return Fraction(0)
    if t.val < 0:
        return Fraction(t.unit, t.ctx.p ** -t.val)
    return Fraction(t.unit * t.ctx.p ** t.val)


def rational_coords(z):
    """The rationals x, y that the extension element z = x + y*alpha
    names: those it was made from (a literal, ext.element on rationals),
    else those its digits write."""
    if z.exact is not None:
        return list(z.exact)
    return [_written(z.x), _written(z.y)]


def ext_sqrt(z):
    """A square root of z in the extension, or None, deciding squareness
    on the way: z is a square exactly when its pi-valuation is even and
    the residue of its unit part is a square (Hensel lifting provides the
    converse for odd p), and that residue's root is the one lifted."""
    if z.is_zero():
        return z.ext.zero()
    v = z.val_pi()
    if v % 2:
        return None
    ext = z.ext
    w = z.unit_part()
    R = ext.residue_field()
    r0 = R.sqrt(w.residue())
    if r0 is None:
        return None
    s = ext.element(r0.coeffs[0], 0) if ext.ramified else ext.element(r0.coeffs[0], r0.coeffs[1])
    half = ext.element(Fraction(1, 2), 0)
    for _ in range(ext.ctx.N.bit_length() + 2):
        s = (s + w / s) * half
    certify(s * s == w, "the Hensel-lifted unit root squares back")
    root = s * ext.pi_power(v // 2)
    certify(root * root == z, "the extension root squares back")
    return root


class PadicOps:
    """linalg scalar ops over PadicNumbers of one context.  The package
    eliminates no system over Q_p (linalg.rref refuses these ops); the
    tests run the reference elimination of tests/oracles.py through
    them."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.zero = ctx.zero()
        self.one = ctx.one()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inv()

    def is_zero(self, a):
        return a.is_zero()
