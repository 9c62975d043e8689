"""Quaternion algebras (a,b | F): i^2 = a, j^2 = b, ij = -ji = k.

The base field is Q or a prime field GF(p).  Over GF(p) the algebra is
always split; it is still constructible here so that division analyses
of its doubling can be watched failing, with inversion signaling the
norm-zero elements.

An element is four integer numerators over one denominator d > 0, with
gcd 1 over all five; over GF(p), d = 1 and the numerators lie in
range(p).  +, *, negation, conjugation and inv work on those ints (a and
b enter over their own denominators) and build each result through
_quaternion, which divides out the gcd over Q and reduces mod p over
GF(p).  Fractions are made only at the edges: coords(), the read-only
x, y, z, w, norm() and literal(), which give residues over GF(p).
Square roots over Q follow quadratic.element_sqrt, the rule of Q(sqrt a).

Inner automorphisms x -> m^-1 x m are the only automorphism witnesses
this package handles on quaternions (Skolem-Noether says that is no
restriction over a field).  Witnesses that differ by a central factor
give the same map, so an InnerAut compares and hashes by an int key made
once from the witness's key: over Q its primitive numerators with the
first nonzero one positive, over GF(p) its residues scaled so that the
first nonzero one is 1.  No Fraction is made to compare two of them.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .fields import is_prime
from .linalg import Element, FpOps, QOps, _integer_scaled
from .quadratic import element_sqrt


class QuaternionAlgebra:
    """(a, b | F) with distinguished basis 1, i, j, k."""

    def __init__(self, a, b, p=None):
        """Base field: Q when p is None, else GF(p)."""
        self.p = p
        if p is None:
            self.a = Fraction(a)
            self.b = Fraction(b)
            if self.a == 0 or self.b == 0:
                raise ValueError("a and b must be nonzero")
            self.ops = QOps()
        else:
            if p >= 2**31:
                raise ValueError("characteristic must be an int in [2, 2^31)")
            if not is_prime(p) or p == 2:
                raise ValueError("base must be Q or GF(p) for an odd prime p")
            self.a = a % p
            self.b = b % p
            if self.a == 0 or self.b == 0:
                raise ValueError("a and b must be nonzero mod p")
            self.ops = FpOps(p)
        # a = na/da and b = nb/db, premultiplied as the product needs them
        na, da = self.a.as_integer_ratio()
        nb, db = self.b.as_integer_ratio()
        self._ab = (na, da, nb, db, da * db, na * db, nb * da, na * nb)

    def scalar(self, v):
        """v as a coordinate: over Q a Fraction or an int, v itself when it
        is one; over GF(p) the residue of n/d = v, n * d^-1 mod p, which
        does not exist when p divides d."""
        if self.p is None:
            return v if isinstance(v, (Fraction, int)) else Fraction(v)
        n, d = v.as_integer_ratio()
        if d % self.p == 0:
            raise ZeroDivisionError("%s has no residue mod %d" % (v, self.p))
        return n * pow(d, -1, self.p) % self.p

    def _from_ints(self, n, d):
        """The coordinate n/d from ints: a Fraction over Q, the residue of
        n over GF(p), where d is 1."""
        return Fraction(n, d) if self.p is None else n % self.p

    def element(self, x, y, z, w):
        return Quaternion(self, x, y, z, w)

    def zero(self):
        return self.element(0, 0, 0, 0)

    def one(self):
        return self.element(1, 0, 0, 0)

    def i(self):
        return self.element(0, 1, 0, 0)

    def j(self):
        return self.element(0, 0, 1, 0)

    def k(self):
        return self.element(0, 0, 0, 1)

    def basis(self):
        return [self.one(), self.i(), self.j(), self.k()]

    def elements(self):
        """All p^4 elements (finite base only), lexicographic coordinates."""
        if self.p is None:
            raise ValueError("Q-quaternions are not enumerable")
        for x, y, z, w in itertools.product(range(self.p), repeat=4):
            yield self.element(x, y, z, w)

    def find_zero_divisor(self):
        """A pair (z, conj z) with z * conj z = 0 for a nonzero z of norm
        zero: the first one in enumeration order over GF(p), the first one
        with integer coordinates in [-12, 12] (x >= 0) over Q, or None when
        that bounded search finds none."""
        if self.p is None:
            span = range(-12, 13)
            candidates = (self.element(*v) for v in
                          itertools.product(range(13), span, span, span))
        else:
            candidates = self.elements()
        for z in candidates:
            if not z.is_zero() and self.ops.is_zero(z.norm()):
                return z, z.conjugate()
        return None

    def random_element(self, rng):
        if self.p is None:
            nd = [(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(4)]
            den = lcm(*(d for _, d in nd))
            return _quaternion(self, *(n * (den // d) for n, d in nd), den)
        return self.element(*(rng.randrange(self.p) for _ in range(4)))

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra) and other.p == self.p
                and other.a == self.a and other.b == self.b)

    def __hash__(self):
        return hash(("Quat", self.p, self.a, self.b))

    def __repr__(self):
        base = "Q" if self.p is None else "GF(%d)" % self.p
        return "(%s, %s | %s)" % (self.a, self.b, base)


_new_quaternion = object.__new__


def _quaternion(alg, x, y, z, w, d):
    """(x + y i + z j + w k) / d from ints with d > 0 (d = 1 over GF(p)),
    built without __init__: reduced mod p over GF(p), over Q divided by
    the gcd of all five, which is all a result needs to be canonical."""
    p = alg.p
    if p is not None:
        x, y, z, w = x % p, y % p, z % p, w % p
    elif d != 1:
        g = gcd(x, y, z, w, d)
        if g != 1:
            x, y, z, w, d = x // g, y // g, z // g, w // g, d // g
    q = _new_quaternion(Quaternion)
    q.alg, q._k = alg, (x, y, z, w, d)
    return q


def _product(alg, k1, k2):
    """The numerators and the denominator of the product of the keys k1
    and k2, unreduced: the one product formula, of __mul__ and dot."""
    na, da, nb, db, dadb, nadb, nbda, nanb = alg._ab
    x1, y1, z1, w1, d1 = k1
    x2, y2, z2, w2, d2 = k2
    # the coordinates of the product times d1*d2 and da*db, db, da, 1;
    # the result puts all four over d1*d2*da*db
    x = x1 * x2 * dadb + nadb * y1 * y2 + nbda * z1 * z2 - nanb * w1 * w2
    y = (x1 * y2 + y1 * x2) * db + nb * (w1 * z2 - z1 * w2)
    z = (x1 * z2 + z1 * x2) * da + na * (y1 * w2 - w1 * y2)
    w = x1 * w2 + w1 * x2 + y1 * z2 - z1 * y2
    return x, y * da, z * db, w * dadb, d1 * d2 * dadb


class Quaternion(Element):
    """x + y i + z j + w k, kept as the canonical key (X, Y, Z, W, d) of
    ints: x = X/d, ..., w = W/d with d > 0 and gcd(X, Y, Z, W, d) = 1;
    over GF(p), d = 1 and X, ..., W lie in range(p)."""

    __slots__ = ("alg", "_k")
    parent = property(attrgetter("alg"))
    x, y, z, w = (property(lambda q, i=i: q.alg._from_ints(q._k[i], q._k[4]))
                  for i in range(4))

    def __init__(self, alg, x, y, z, w):
        ns, d = _integer_scaled([alg.scalar(t) for t in (x, y, z, w)], alg.ops)
        self.alg, self._k = alg, (*ns, d)

    def coords(self):
        d = self._k[4]
        return [self.alg._from_ints(t, d) for t in self._k[:4]]

    def _lift(self, s):
        return self.alg.element(s, 0, 0, 0)

    def _key(self):
        return self._k

    def _scalar(self):
        k = self._k
        return None if any(k[1:4]) else self.alg._from_ints(k[0], k[4])

    def __add__(self, other):
        if other.__class__ is not Quaternion or other.alg is not self.alg:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x1, y1, z1, w1, d1 = self._k
        x2, y2, z2, w2, d2 = other._k
        return _quaternion(self.alg, x1 * d2 + x2 * d1, y1 * d2 + y2 * d1,
                           z1 * d2 + z2 * d1, w1 * d2 + w2 * d1, d1 * d2)

    def __neg__(self):
        x, y, z, w, d = self._k
        return _quaternion(self.alg, -x, -y, -z, -w, d)

    def __mul__(self, other):
        if other.__class__ is not Quaternion or other.alg is not self.alg:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _quaternion(self.alg, *_product(self.alg, self._k, other._k))

    def dot(self, b, c, e):
        """self*b + c*e from the two products' numerators, reduced once."""
        alg = self.alg
        if not (b.__class__ is c.__class__ is e.__class__ is Quaternion
                and b.alg is alg and c.alg is alg and e.alg is alg):
            b, c, e = self._coerced(b, c, e)
        x1, y1, z1, w1, s = _product(alg, self._k, b._k)
        x2, y2, z2, w2, t = _product(alg, c._k, e._k)
        return _quaternion(alg, x1 * t + x2 * s, y1 * t + y2 * s,
                           z1 * t + z2 * s, w1 * t + w2 * s, s * t)

    def conjugate(self):
        x, y, z, w, d = self._k
        return _quaternion(self.alg, x, -y, -z, -w, d)

    def _norm_numerator(self):
        """d^2 da db N(q), an int: N(q) = x^2 - a y^2 - b z^2 + ab w^2."""
        x, y, z, w, d = self._k
        _, _, _, _, dadb, nadb, nbda, nanb = self.alg._ab
        return x * x * dadb - nadb * y * y - nbda * z * z + nanb * w * w

    def norm(self):
        """N(q) = x^2 - a y^2 - b z^2 + ab w^2, a base-field scalar."""
        d = self._k[4]
        return self.alg._from_ints(self._norm_numerator(), d * d * self.alg._ab[4])

    def inv(self):
        """conj/N; on a split algebra norm-zero elements are the zero
        divisors and raise."""
        n, p = self._norm_numerator(), self.alg.p
        if (n % p if p is not None else n) == 0:
            raise ZeroDivisionError("norm-zero quaternion (zero divisor)")
        x, y, z, w, d = self._k
        # conj/N = (x, -y, -z, -w) d da db / n
        if p is not None:
            f, n = pow(n, -1, p), 1
        else:
            f = d * self.alg._ab[4]
            if n < 0:
                f, n = -f, -n
        return _quaternion(self.alg, x * f, -y * f, -z * f, -w * f, n)

    def is_zero(self):
        return not any(self._k[:4])

    def is_central(self):
        return not any(self._k[1:4])

    def __repr__(self):
        return "quat(%s, %s, %s, %s)" % tuple(self.coords())

    def literal(self):
        return ",".join(str(t) for t in self.coords())


class InnerAut:
    """Conjugation x -> m^-1 x m by an invertible witness m."""

    def __init__(self, witness):
        if witness.alg.ops.is_zero(witness.norm()):
            raise ValueError("witness has zero norm; conjugation undefined")
        self.witness = witness
        alg = self.alg = witness.alg
        self._minv = witness.inv()
        # the key of the module docstring, shared by m and every lambda m
        ns = witness._k[:4]
        lead = next(t for t in ns if t)
        if alg.p is None:
            g = gcd(*ns) if lead > 0 else -gcd(*ns)
            self._key = tuple(t // g for t in ns)
        else:
            f = pow(lead, -1, alg.p)
            self._key = tuple(t * f % alg.p for t in ns)
        self._hash = hash((alg.p, alg.a, alg.b, self._key))

    def __call__(self, q):
        return self._minv * q * self.witness

    def compose(self, other):
        """self after other: with m = self.witness and m' = other.witness it
        is x -> m^-1 (m'^-1 x m') m = (m'm)^-1 x (m'm), of witness m'm."""
        return InnerAut(other.witness * self.witness)

    def inverse(self):
        return InnerAut(self.witness.conjugate())

    def is_identity(self):
        return self.witness.is_central()

    @property
    def label(self):
        return "conj-by(%s)" % self.witness.literal()

    def __eq__(self, other):
        return (isinstance(other, InnerAut) and other._key == self._key
                and other.alg == self.alg)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.label


def quat_is_square(c):
    """Squareness of c with element_sqrt's root: (True, m), (False, None),
    or (None, None) when undecided, over GF(p) and for a central c with no
    root on the axes 1, i, j, k (pure quaternions off them are not tried).
    """
    alg = c.alg
    if alg.p is not None:
        return None, None
    m = element_sqrt(c)
    if m is not None:
        return True, m
    return (None if c.is_central() else False), None
