"""Quaternion algebras (a,b | F): i^2 = a, j^2 = b, ij = -ji = k.

The base field is Q (elements carry fractions.Fraction coordinates) or a
prime field GF(p) (plain int coordinates).  Over GF(p) the algebra is
always split; it is still constructible here so that division analyses
of its doubling can be watched failing, with inversion signaling the
norm-zero elements.

One integer formula multiplies over both bases.  Over Q the coordinates
of each factor and a, b are written as integers over common
denominators, the 16 coordinate products are taken on ints and each
coordinate of the product becomes a Fraction once; over GF(p) every
denominator is 1 and the coordinates are reduced mod p instead.

Inner automorphisms x -> m^-1 x m are the only automorphism witnesses
this package handles on quaternions (Skolem-Noether says that is no
restriction over a field).  Witnesses that differ by a central factor
give the same map, so comparisons go through a scaled canonical form.
"""

import itertools
from fractions import Fraction
from math import lcm
from operator import attrgetter

from .fields import is_prime
from .linalg import Element, FpOps, QOps, kernel_basis
from .quadratic import rational_sqrt
from .reports import certify


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
        """v as a coordinate: a Fraction over Q; over GF(p) the residue of
        n/d = v, n * d^-1 mod p, which does not exist when p divides d."""
        if self.p is None:
            return Fraction(v)
        n, d = v.as_integer_ratio()
        if d % self.p == 0:
            raise ZeroDivisionError("%s has no residue mod %d" % (v, self.p))
        return n * pow(d, -1, self.p) % self.p

    def element(self, x, y, z, w):
        return Quaternion(self, self.scalar(x), self.scalar(y),
                          self.scalar(z), self.scalar(w))

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
            return self.element(*(Fraction(rng.randrange(-9, 10),
                                           rng.randrange(1, 4)) for _ in range(4)))
        return self.element(*(rng.randrange(self.p) for _ in range(4)))

    def random_invertible(self, rng):
        while True:
            q = self.random_element(rng)
            if not self.ops.is_zero(q.norm()):
                return q

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra) and other.p == self.p
                and other.a == self.a and other.b == self.b)

    def __hash__(self):
        return hash(("Quat", self.p, self.a, self.b))

    def __repr__(self):
        base = "Q" if self.p is None else "GF(%d)" % self.p
        return "(%s, %s | %s)" % (self.a, self.b, base)


def _ratio(n, d):
    return Fraction(n, d) if n else QOps.zero


def _integer_coords(q):
    """(x, y, z, w, d): the coordinates of q as x/d, ..., w/d on ints."""
    x, dx = q.x.as_integer_ratio()
    y, dy = q.y.as_integer_ratio()
    z, dz = q.z.as_integer_ratio()
    w, dw = q.w.as_integer_ratio()
    if dx == dy == dz == dw:
        return x, y, z, w, dx
    d = lcm(dx, dy, dz, dw)
    return x * (d // dx), y * (d // dy), z * (d // dz), w * (d // dw), d


class Quaternion(Element):
    __slots__ = ("alg", "x", "y", "z", "w")
    parent = property(attrgetter("alg"))

    def __init__(self, alg, x, y, z, w):
        self.alg = alg
        self.x, self.y, self.z, self.w = x, y, z, w

    def coords(self):
        return [self.x, self.y, self.z, self.w]

    def _lift(self, s):
        return self.alg.element(s, 0, 0, 0)

    def _key(self):
        return self.x, self.y, self.z, self.w

    def _scalar(self):
        # coordinates are canonical: Fractions over Q, range(p) over GF(p)
        return None if self.y or self.z or self.w else self.x

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        o = self.alg.ops
        return Quaternion(self.alg, o.add(self.x, other.x), o.add(self.y, other.y),
                          o.add(self.z, other.z), o.add(self.w, other.w))

    def __neg__(self):
        o = self.alg.ops
        return Quaternion(self.alg, o.neg(self.x), o.neg(self.y),
                          o.neg(self.z), o.neg(self.w))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        alg = self.alg
        na, da, nb, db, dadb, nadb, nbda, nanb = alg._ab
        x1, y1, z1, w1, d1 = _integer_coords(self)
        x2, y2, z2, w2, d2 = _integer_coords(other)
        # the coordinates of the product times d1*d2 and da*db, db, da, 1
        x = x1 * x2 * dadb + nadb * y1 * y2 + nbda * z1 * z2 - nanb * w1 * w2
        y = (x1 * y2 + y1 * x2) * db + nb * (w1 * z2 - z1 * w2)
        z = (x1 * z2 + z1 * x2) * da + na * (y1 * w2 - w1 * y2)
        w = x1 * w2 + w1 * x2 + y1 * z2 - z1 * y2
        p = alg.p
        if p is not None:
            return Quaternion(alg, x % p, y % p, z % p, w % p)
        d = d1 * d2
        return Quaternion(alg, _ratio(x, d * dadb), _ratio(y, d * db),
                          _ratio(z, d * da), _ratio(w, d))

    def conjugate(self):
        o = self.alg.ops
        return Quaternion(self.alg, self.x, o.neg(self.y), o.neg(self.z), o.neg(self.w))

    def norm(self):
        """N(q) = x^2 - a y^2 - b z^2 + ab w^2, a base-field scalar."""
        o = self.alg.ops
        a, b = self.alg.a, self.alg.b
        return o.add(
            o.sub(o.mul(self.x, self.x), o.mul(a, o.mul(self.y, self.y))),
            o.sub(o.mul(o.mul(a, b), o.mul(self.w, self.w)),
                  o.mul(b, o.mul(self.z, self.z))))

    def inv(self):
        """conj/N; on a split algebra norm-zero elements are the zero
        divisors and raise."""
        n = self.norm()
        if self.alg.ops.is_zero(n):
            raise ZeroDivisionError("norm-zero quaternion (zero divisor)")
        ninv = self.alg.ops.inv(n)
        c = self.conjugate()
        return Quaternion(self.alg, *(self.alg.ops.mul(ninv, t) for t in c.coords()))

    def is_zero(self):
        o = self.alg.ops
        return all(o.is_zero(t) for t in self.coords())

    def is_central(self):
        o = self.alg.ops
        return all(o.is_zero(t) for t in (self.y, self.z, self.w))

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
        self.alg = witness.alg
        self._minv = witness.inv()

    def __call__(self, q):
        return self._minv * q * self.witness

    def compose(self, other):
        """self after other: witness product other.witness * ... note
        (mm')^-1 x (mm') applies m' last, so self-after-other has witness
        other.witness * self.witness."""
        return InnerAut(other.witness * self.witness)

    def inverse(self):
        return InnerAut(self.witness.conjugate())

    def is_identity(self):
        return self.witness.is_central()

    @property
    def label(self):
        return "conj-by(%s)" % self.witness.literal()

    def canonical_witness(self):
        """Scale so the first nonzero coordinate is 1; witnesses equal up
        to a central factor collapse to the same tuple."""
        o = self.alg.ops
        for t in self.witness.coords():
            if not o.is_zero(t):
                f = o.inv(t)
                return tuple(o.mul(f, s) for s in self.witness.coords())
        raise AssertionError("zero witness")

    def __eq__(self, other):
        return (isinstance(other, InnerAut) and other.alg == self.alg
                and other.canonical_witness() == self.canonical_witness())

    def __hash__(self):
        return hash((self.alg.a, self.alg.b, self.canonical_witness()))

    def __repr__(self):
        return self.label


def fixed_subalgebra(aut):
    """Basis of {z : m z = z m} via an exact 4x4 kernel over the base.

    A non-central witness fixes exactly span{1, pure part of m}; a central
    witness fixes everything.
    """
    alg = aut.alg
    m = aut.witness
    rows = list(zip(*((m * e - e * m).coords() for e in alg.basis())))
    vecs = kernel_basis(rows, 4, alg.ops)
    return [Quaternion(alg, *v) for v in vecs]


def quat_is_square(c):
    """Exact-where-possible squareness of c over Q, with witness.

    Returns (True, m), (False, None), or (None, None) when undecided.
    Non-central c: c = m^2 solvable iff N(c) = d^2 in Q and (c0 + d)/2 or
    (c0 - d)/2 is a nonzero rational square (m = s + pure(c)/(2s)).
    Central c: decided via the scalar square root or a coordinate axis;
    general representability by the pure-part form is not attempted.
    """
    alg = c.alg
    if alg.p is not None:
        return None, None
    if c.is_zero():
        return True, alg.zero()
    if not c.is_central():
        d = rational_sqrt(c.norm())
        if d is None:
            return False, None
        for sgn in (1, -1):
            cand = (c.x + sgn * d) / 2
            if cand > 0:
                s = rational_sqrt(cand)
                if s is not None:
                    half = 1 / (2 * s)
                    m = alg.element(s, c.y * half, c.z * half, c.w * half)
                    certify(m * m == c, "the square root squares back")
                    return True, m
        return False, None
    c0 = c.x
    r = rational_sqrt(c0)
    if r is not None:
        return True, alg.element(r, 0, 0, 0)
    for val, mk in ((c0 / alg.a, lambda t: alg.element(0, t, 0, 0)),
                    (c0 / alg.b, lambda t: alg.element(0, 0, t, 0)),
                    (-c0 / (alg.a * alg.b), lambda t: alg.element(0, 0, 0, t))):
        t = rational_sqrt(val)
        if t is not None:
            m = mk(t)
            certify(m * m == c, "the square root squares back")
            return True, m
    return None, None
