"""Exact rational arithmetic, quadratic fields Q(sqrt(a)), and the local
norm machinery (Legendre and Hilbert symbols) needed to decide whether a
rational is a norm from a quadratic field.

Rationals are stdlib fractions.Fraction: arbitrary precision, positive
denominator, always reduced.  An element x + y sqrt(a) is the same on
ints: two numerators over one denominator d > 0, gcd 1 over all three.
Its operators work on those ints and build each result through _quad,
which only divides out the gcd; Fractions are made only at the edges:
coords(), the read-only x and y, norm() and literal().  Radicands are
normalized to squarefree integers, so Q(sqrt(8/9)) and Q(sqrt(2))
construct the same field.

element_sqrt is the one square-root rule of Q(sqrt a) and of the
quaternion algebras over Q: the root in Q[z] from the norm, and for a
rational z a root on a basis axis.

The division criterion for a doubled quadratic field uses these: the
doubling of K = Q(sqrt(a)) by c fails to be division exactly when
N(c) = s^2 for a rational s such that s or -s is a norm from K.  Norm
membership is decided by Hilbert symbols over the finite set of places
where either argument is a non-unit.
"""

from fractions import Fraction
from math import gcd, isqrt

from .fields import prime_factors
from .linalg import Element, QOps, _integer_scaled
from .reports import certify


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("expected a rational, got %r" % (x,))


def rational_sqrt(r):
    """Exact nonnegative square root, or None when r is not a square:
    r >= 0 with numerator and denominator perfect squares."""
    r = _as_fraction(r)
    if r < 0:
        return None
    n, d = isqrt(r.numerator), isqrt(r.denominator)
    if n * n != r.numerator or d * d != r.denominator:
        return None
    return Fraction(n, d)


def rational_is_square(r):
    return rational_sqrt(r) is not None


def squarefree_part(n):
    """The squarefree integer with the same square class as n."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = sign
    for p in prime_factors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
    return out


def valuation(r, p):
    """p-adic valuation of a nonzero rational."""
    r = _as_fraction(r)
    if r == 0:
        raise ZeroDivisionError("valuation of zero")
    v = 0
    n = r.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = r.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def legendre(a, p):
    """Legendre symbol of a rational p-unit modulo an odd prime."""
    a = _as_fraction(a)
    m = (a.numerator * a.denominator) % p
    if m == 0:
        raise ValueError("not a p-unit")
    s = pow(m, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def hilbert_symbol(s, a, place):
    """Hilbert symbol (s, a)_place for place an odd prime, 2, or "inf".

    (s, a)_p = 1 exactly when s x^2 + a y^2 = z^2 has a nontrivial
    solution over Q_p; equivalently s is a local norm from Q_p(sqrt(a)).
    """
    s = _as_fraction(s)
    a = _as_fraction(a)
    if s == 0 or a == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == "inf":
        return -1 if (s < 0 and a < 0) else 1
    p = place
    if p == 2:
        alpha = valuation(s, 2)
        beta = valuation(a, 2)
        u = s / Fraction(2) ** alpha
        v = a / Fraction(2) ** beta
        # For odd rationals, num * den is congruent to the value mod 8.
        um = (u.numerator * u.denominator) % 8
        vm = (v.numerator * v.denominator) % 8
        eps_u = (um - 1) // 2 % 2
        eps_v = (vm - 1) // 2 % 2
        omega_u = (um * um - 1) // 8 % 2
        omega_v = (vm * vm - 1) // 8 % 2
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    alpha = valuation(s, p)
    beta = valuation(a, p)
    u = s / Fraction(p) ** alpha
    v = a / Fraction(p) ** beta
    sign = 1
    if (alpha * beta * (p - 1) // 2) % 2:
        sign = -sign
    if beta % 2 and legendre(u, p) == -1:
        sign = -sign
    if alpha % 2 and legendre(v, p) == -1:
        sign = -sign
    return sign


class QuadField:
    """Q(sqrt(a)) for a squarefree integer a not 0 or 1.

    Any nonzero rational radicand is accepted and normalized: the stored
    radicand is its squarefree part, and .scale is the rational lambda
    with input = lambda^2 * radicand (useful for re-expressing literals).
    """

    def __init__(self, a):
        a = _as_fraction(a)
        if a == 0:
            raise ValueError("radicand must be nonzero")
        d = squarefree_part(a.numerator * a.denominator)
        if d == 1:
            raise ValueError("radicand %s is a square; not a quadratic field" % a)
        self.a = d
        self.scale = rational_sqrt(a / d)

    def element(self, x, y):
        return QuadElement(self, x, y)

    def zero(self):
        return self.element(0, 0)

    def one(self):
        return self.element(1, 0)

    def root(self):
        return self.element(0, 1)

    def basis(self):
        return [self.one(), self.root()]

    def __eq__(self, other):
        return isinstance(other, QuadField) and other.a == self.a

    def __hash__(self):
        return hash(("QuadField", self.a))

    def __repr__(self):
        return "Q(sqrt(%d))" % self.a


_new_quad = object.__new__


def _quad(field, x, y, d):
    """(x + y sqrt(a)) / d from ints with d > 0, built without __init__:
    divided by the gcd of all three, which is all a result needs."""
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    z = _new_quad(QuadElement)
    z.field, z._k = field, (x, y, d)
    return z


class QuadElement(Element, parent="field"):
    """x + y sqrt(a) with rational x, y, kept as the canonical key
    (X, Y, d) of ints: x = X/d, y = Y/d, d > 0 and gcd(X, Y, d) = 1."""

    __slots__ = ("field", "_k")
    x = property(lambda self: Fraction(self._k[0], self._k[2]))
    y = property(lambda self: Fraction(self._k[1], self._k[2]))

    def __init__(self, field, x, y):
        (x, y), d = _integer_scaled([_as_fraction(x), _as_fraction(y)], QOps())
        self.field, self._k = field, (x, y, d)

    def coords(self):
        x, y, d = self._k
        return [Fraction(x, d), Fraction(y, d)]

    def _lift(self, s):
        return self.field.element(s, 0)

    def _scalar(self):
        x, y, d = self._k
        return None if y else Fraction(x, d)

    def __add__(self, other):
        if other.__class__ is not QuadElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x1, y1, d1 = self._k
        x2, y2, d2 = other._k
        return _quad(self.field, x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2)

    def __neg__(self):
        x, y, d = self._k
        return _quad(self.field, -x, -y, d)

    def __mul__(self, other):
        if other.__class__ is not QuadElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x1, y1, d1 = self._k
        x2, y2, d2 = other._k
        return _quad(self.field, x1 * x2 + self.field.a * y1 * y2,
                     x1 * y2 + y1 * x2, d1 * d2)

    def dot(self, b, c, e):
        """self*b + c*e on the keys, with one gcd."""
        K = self.field
        if not (b.__class__ is c.__class__ is e.__class__ is QuadElement
                and b.field is K and c.field is K and e.field is K):
            b, c, e = self._coerced(b, c, e)
        (x1, y1, d1), (x2, y2, d2) = self._k, b._k
        (x3, y3, d3), (x4, y4, d4) = c._k, e._k
        a, s, t = K.a, d1 * d2, d3 * d4
        X = (x1 * x2 + a * y1 * y2) * t + (x3 * x4 + a * y3 * y4) * s
        Y = (x1 * y2 + y1 * x2) * t + (x3 * y4 + y3 * x4) * s
        return _quad(K, X, Y, s * t)

    def conjugate(self):
        x, y, d = self._k
        return _quad(self.field, x, -y, d)

    def norm(self):
        """N(x + y sqrt(a)) = x^2 - a y^2, a rational."""
        x, y, d = self._k
        return Fraction(x * x - self.field.a * y * y, d * d)

    def inv(self):
        x, y, d = self._k
        n = x * x - self.field.a * y * y
        if not n:
            raise ZeroDivisionError("inverse of zero in %r" % self.field)
        # conj/N = (x, -y) d / n
        if n < 0:
            d, n = -d, -n
        return _quad(self.field, x * d, -y * d, n)

    def is_zero(self):
        return not (self._k[0] or self._k[1])

    def __repr__(self):
        return "(%s + %s*sqrt(%d))" % (self.x, self.y, self.field.a)

    def literal(self):
        return "%s,%s" % (self.x, self.y)


def element_sqrt(z):
    """A square root of z over Q, or None: the one root rule of Q(sqrt a)
    and of the quaternion algebras over Q.  For z not rational it is the
    root in Q[z], w = s + (z - x)/(2s) with x the rational part of z and
    s^2 = (x + d)/2, else (x - d)/2, where d^2 = N(z).  For rational z it
    is the first t*e, e over the basis (1, sqrt(a) or 1, i, j, k) and t a
    rational root of z / e^2; a quaternion root off those axes is not
    tried.  Every root is checked by squaring it back."""
    x = z._scalar()
    if x is None:
        d = rational_sqrt(z.norm())
        if d is None:
            return None
        coords = z.coords()
        x = coords[0]
        for cand in ((x + d) / 2, (x - d) / 2):
            s = rational_sqrt(cand)
            if s:
                w = z.parent.element(s, *(t / (2 * s) for t in coords[1:]))
                break
        else:
            return None
    else:
        for e in z.parent.basis():
            t = rational_sqrt(x / (e * e)._scalar())
            if t is not None:
                w = e * t
                break
        else:
            return None
    certify(w * w == z, "the square root squares back")
    return w


def quad_is_square(z):
    """Exact squareness of z in its quadratic field, with a witness root:
    (True, w) with w*w = z, or (False, None), by element_sqrt."""
    w = element_sqrt(z)
    return w is not None, w


def norm_support(s, a):
    """The finite places where (s, a)_p could be -1: 2 and the odd primes
    dividing a numerator or denominator of either argument."""
    s = _as_fraction(s)
    a = _as_fraction(a)
    ps = {2}
    for r in (s, a):
        ps.update(prime_factors(r.numerator))
        ps.update(prime_factors(r.denominator))
    return sorted(ps)


def is_norm_from_quadfield(s, field):
    """Is the nonzero rational s a norm x^2 - a y^2 from Q(sqrt(a))?

    Local-global: s is a global norm iff (s, a)_v = 1 at every place, and
    the symbol is automatically 1 at odd primes where both arguments are
    units, so only the support set plus the real place need checking.
    """
    s = _as_fraction(s)
    if s == 0:
        raise ValueError("norm membership of zero is not asked here")
    a = Fraction(field.a)
    if hilbert_symbol(s, a, "inf") != 1:
        return False
    for p in norm_support(s, a):
        if hilbert_symbol(s, a, p) != 1:
            return False
    return True


def find_norm_preimage(field, s, bound=60):
    """Small search for t in Q(sqrt(a)) with N(t) = s, clearing denominators
    and scanning X^2 - a Y^2 = s Z^2 up to the bound.  Returns None when the
    search space is exhausted; existence should be decided separately."""
    s = _as_fraction(s)
    a = field.a
    for z in range(1, bound + 1):
        target = s * z * z
        for y in range(0, bound + 1):
            x2 = target + a * y * y
            r = rational_sqrt(x2)
            if r is not None:
                t = field.element(Fraction(r, z), Fraction(y, z))
                if t.norm() == s:
                    return t
    return None
