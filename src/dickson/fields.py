"""Finite fields GF(p^n) with explicit polynomial arithmetic.

Elements are residue classes of GF(p)[X] modulo a monic irreducible
polynomial of degree n, stored as coefficient tuples in ascending degree
(so "1,0,1" is 1 + X^2).  When no modulus is supplied the field uses the
lexicographically smallest monic irreducible of that degree, comparing
coefficient tuples low degree first; this makes field objects canonical,
so two calls to make_field(3, 2) are interchangeable.

Automorphisms are Frobenius powers a -> a^(p^k) and are represented by
the exponent k alone.  Composition adds exponents mod n.  The fixed field
of a -> a^(p^k) is GF(p^gcd(k, n)); fixed_field returns both an abstract
copy of that subfield and a concrete GF(p)-basis of the fixed subspace.

p = 2 is allowed here (the doubling of GF(4) is a useful degenerate case)
even though most of the analysis layer requires odd characteristic.
"""

import itertools
from functools import lru_cache
from math import gcd
from operator import attrgetter

from .linalg import Element, FpOps, kernel_basis


class FieldError(ValueError):
    pass


def is_prime(p):
    """Trial-division primality check, adequate for p < 2^31."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_factors(n):
    """Sorted prime factors of a nonzero integer, by trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); polynomials are lists, ascending degree

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _padd(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return _ptrim(out)


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pmod(f, m, p):
    """Remainder of f modulo any nonzero polynomial m."""
    f = _ptrim(list(f))
    m = _ptrim(list(m))
    if not m:
        raise ZeroDivisionError("polynomial modulus is zero")
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    while f and len(f) - 1 >= dm:
        q = (f[-1] * inv) % p
        shift = len(f) - 1 - dm
        for i, c in enumerate(m):
            f[shift + i] = (f[shift + i] - q * c) % p
        _ptrim(f)
    return f


def _ppowmod(f, e, m, p):
    result = [1]
    base = _pmod(f, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pgcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        f, g = g, _pmod(f, g, p)
    if f:
        inv = pow(f[-1], p - 2, p)
        f = [(c * inv) % p for c in f]
    return f


def _is_irreducible(m, p):
    """Degree-n test: gcd(X^(p^k) - X, m) = 1 for 0 < k < n, X^(p^n) = X."""
    n = len(m) - 1
    if n < 1 or m[-1] != 1:
        return False
    x = [0, 1]
    power = list(x)
    for k in range(1, n):
        power = _ppowmod(power, p, m, p)
        diff = _padd(power, [0, p - 1], p)
        g = _pgcd(diff, m, p)
        if len(g) != 1:
            return False
    power = _ppowmod(power, p, m, p)
    return power == _pmod(x, m, p)


class FieldElement(Element):
    """An element of a FiniteField, a tuple of n coefficients (ascending)."""

    __slots__ = ("field", "coeffs")
    parent = property(attrgetter("field"))
    _scalars = (int,)

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)
        if len(self.coeffs) != field.n:
            raise FieldError("expected %d coefficients, got %d"
                             % (field.n, len(self.coeffs)))

    def _lift(self, s):
        return self.field.from_int(s)

    def _key(self):
        return self.coeffs

    def _scalar(self):
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        K = self.field
        prod = _pmod(_pmul(list(self.coeffs), list(other.coeffs), K.p), K._modulus, K.p)
        return K._from_poly(prod)

    def __pow__(self, e):
        K = self.field
        if e < 0:
            return self.inv() ** (-e)
        out = _ppowmod(list(self.coeffs), e, K._modulus, K.p)
        return K._from_poly(out)

    def inv(self):
        """Multiplicative inverse via a^(q-2); raises on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in %r" % self.field)
        return self ** (self.field.order - 2)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return "<%s in GF(%d^%d)>" % (self.literal(), self.field.p, self.field.n)

    def literal(self):
        """Comma-separated ascending coefficients, e.g. "0,1" for X."""
        return ",".join(str(c) for c in self.coeffs)


class FiniteField:
    """GF(p^n) = GF(p)[X] / (modulus)."""

    def __init__(self, p, n, modulus=None):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise FieldError("characteristic must be an int in [2, 2^31)")
        if not is_prime(p):
            raise FieldError("%d is not prime" % p)
        if not isinstance(n, int) or n < 1:
            raise FieldError("degree must be a positive int")
        self.p = p
        self.n = n
        self.order = p ** n
        if modulus is None:
            modulus = _smallest_irreducible(p, n)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree %d" % n)
            if not _is_irreducible(modulus, p):
                raise FieldError("modulus is reducible over GF(%d)" % p)
        self._modulus = list(modulus)
        self._mod_key = tuple(modulus)

    # -- construction -------------------------------------------------------

    def element(self, coeffs):
        return FieldElement(self, coeffs)

    def from_int(self, a):
        return FieldElement(self, [a] + [0] * (self.n - 1))

    def _from_poly(self, poly):
        return FieldElement(self, list(poly) + [0] * (self.n - len(poly)))

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def gen(self):
        """The class of X; generates the field over GF(p) when n > 1."""
        if self.n == 1:
            return self.one()
        return self.element([0, 1] + [0] * (self.n - 2))

    @property
    def modulus(self):
        return tuple(self._modulus)

    # -- enumeration --------------------------------------------------------

    def elements(self):
        """All p^n elements in lexicographic coefficient order."""
        for coeffs in itertools.product(range(self.p), repeat=self.n):
            yield FieldElement(self, coeffs)

    def element_index(self, a):
        idx = 0
        for c in a.coeffs:
            idx = idx * self.p + c
        return idx

    def element_at(self, idx):
        coeffs = []
        for _ in range(self.n):
            coeffs.append(idx % self.p)
            idx //= self.p
        return FieldElement(self, list(reversed(coeffs)))

    def random_element(self, rng):
        return self.element_at(rng.randrange(self.order))

    def random_nonzero(self, rng):
        return self.element_at(rng.randrange(1, self.order))

    # -- automorphisms ------------------------------------------------------

    def automorphisms(self):
        return [FrobeniusAut(self, k) for k in range(self.n)]

    # -- norms and squares --------------------------------------------------

    def norm(self, a):
        """Norm down to GF(p): the product of the full Frobenius orbit."""
        out = self.one()
        for k in range(self.n):
            out = out * (a ** (self.p ** k))
        return out

    def norm_over(self, a, tau):
        """Norm to the fixed field of tau: the product over Gal generated
        by the Frobenius power tau."""
        if tau.field != self:
            raise FieldError("automorphism of a different field")
        g = gcd(tau.k, self.n)
        steps = self.n // g
        out = self.one()
        cur = a
        for _ in range(steps):
            out = out * cur
            cur = tau(cur)
        return out

    def is_square(self, a):
        """Squareness in GF(q): a^((q-1)/2) = 1 for odd q; always true for q even."""
        if a.is_zero():
            raise FieldError("squareness of zero is not defined here")
        if self.order % 2 == 0:
            return True
        return a ** ((self.order - 1) // 2) == self.one()

    def sqrt(self, a):
        """Some square root by exhaustive scan (fields here stay below 10^4
        elements, where a scan is the easiest thing to audit), or None.
        The returned root is the one with lexicographically smaller
        coefficient tuple among the two."""
        if self.order > 10**4:
            raise FieldError("square-root scan capped at order 10^4")
        for r in self.elements():
            if r * r == a:
                return r
        return None

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and other.p == self.p
                and other.n == self.n and other._mod_key == self._mod_key)

    def __hash__(self):
        return hash((self.p, self.n, self._mod_key))

    def __repr__(self):
        return "GF(%d^%d; %s)" % (self.p, self.n, ",".join(map(str, self._modulus)))


class FrobeniusAut:
    """The automorphism a -> a^(p^k) of a FiniteField, stored by exponent."""

    __slots__ = ("field", "k")

    def __init__(self, field, k):
        self.field = field
        self.k = k % field.n

    def __call__(self, a):
        if a.field != self.field:
            raise FieldError("element of a different field")
        return a ** (self.field.p ** self.k)

    def compose(self, other):
        """self after other; exponents add mod n."""
        if other.field != self.field:
            raise FieldError("automorphisms of different fields")
        return FrobeniusAut(self.field, self.k + other.k)

    def inverse(self):
        return FrobeniusAut(self.field, -self.k)

    def is_identity(self):
        return self.k == 0

    def order(self):
        return self.field.n // gcd(self.k, self.field.n)

    @property
    def label(self):
        return "frobenius^%d" % self.k

    def __eq__(self, other):
        return (isinstance(other, FrobeniusAut)
                and other.field == self.field and other.k == self.k)

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.field._mod_key, "frob", self.k))

    def __repr__(self):
        return "Frobenius(%d) on GF(%d^%d)" % (self.k, self.field.p, self.field.n)

    def fixed_field(self):
        """The subfield fixed by this map.

        Returns (GF(p^g), basis) where g = gcd(k, n), the second item a
        GF(p)-basis of the fixed subspace inside the parent; the kernel of
        (tau - id) is computed by exact linear algebra over GF(p).
        """
        K = self.field
        g = gcd(self.k, K.n)
        sub = FiniteField(K.p, g)
        # column j: the coordinates of tau(e_j) - e_j
        columns = []
        for j in range(K.n):
            image = self(K.element([0] * j + [1] + [0] * (K.n - 1 - j)))
            columns.append([a - (1 if i == j else 0)
                            for i, a in enumerate(image.coeffs)])
        rows = list(zip(*columns))
        basis = [K.element(vec) for vec in kernel_basis(rows, K.n, FpOps(K.p))]
        return sub, basis


def _x_is_primitive(m, p):
    """True when X generates the multiplicative group of GF(p)[X]/(m)."""
    order = p ** (len(m) - 1) - 1
    return all(_ppowmod([0, 1], order // r, m, p) != [1]
               for r in prime_factors(order))


@lru_cache(maxsize=None)
def _smallest_irreducible(p, n):
    """Lexicographically smallest monic irreducible of degree n over GF(p)
    whose root X is primitive, comparing ascending coefficient tuples.
    Primitivity pins the meaning of element literals like "0,1": the
    adjoined generator is a non-square in the default field."""
    for tail in itertools.product(range(p), repeat=n):
        m = list(tail) + [1]
        if _is_irreducible(m, p) and (n == 1 or _x_is_primitive(m, p)):
            return m
    raise FieldError("no irreducible polynomial found (impossible)")


def make_field(p, n, modulus=None):
    """Construct GF(p^n), validating primality and the modulus."""
    return FiniteField(p, n, modulus)
