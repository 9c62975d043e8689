"""Finite fields GF(p^n), by index tables up to TABLE_BOUND elements.

Elements are residue classes of GF(p)[X] modulo a monic irreducible
polynomial of degree n, written as coefficient tuples in ascending degree
(so "1,0,1" is 1 + X^2).  An element's index is its tuple read as a base-p
numeral, first coefficient most significant: index order is tuple order.

Up to TABLE_BOUND = 10^4 elements, arithmetic is lookup in O(q) index
tables: discrete logs to a primitive element g, antilogs and Zech logs
Z(k) = log(1 + g^k) (K. Huber, IEEE Trans. Inform. Theory 36 (1990)
946-950), so g^i + g^j = g^(i + Z(j-i)) and a -> a^(p^k) multiplies the
log by p^k.  The polynomial helpers build them on a field's first use, an
lru_cache shares them between equal fields, and each field interns one
FieldElement per value.  Above the bound, elements are multiplied as
polynomials reduced by the modulus.  FiniteField.sqrt is the one square
root of GF(q), residue roots of Q_p and of quaternions over GF(p)
included: a table read up to the bound, Tonelli-Shanks above it.  Only
primitive(), which the census reads, still needs the tables.

When no modulus is supplied the field uses the
lexicographically smallest monic irreducible of that degree, comparing
coefficient tuples low degree first; this makes field objects canonical,
so two calls to make_field(3, 2) are interchangeable.

Automorphisms are Frobenius powers a -> a^(p^k) and are represented by
the exponent k alone.  Composition adds exponents mod n.

p = 2 is allowed here (the doubling of GF(4) is a useful degenerate case)
even though most of the analysis layer requires odd characteristic.
"""

import itertools
from functools import lru_cache
from math import gcd
from operator import attrgetter

from .linalg import Element
from .reports import certify


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


# an explicit modulus is tested once per process, keyed on its tuple
_is_irreducible_once = lru_cache(maxsize=None)(_is_irreducible)
TABLE_BOUND = 10**4


@lru_cache(maxsize=None)
def _index_tables(p, n, modulus):
    """(coeffs, neg, log, exp, zech) of GF(p)[X]/(modulus), q = p^n:
    coeffs[i] is the tuple of index i and neg[i] the index of its negative;
    log[i] is the log of index i to g (None for 0), exp[k] the index of g^k
    for k < 2(q - 1), doubled so a sum of two logs needs no reduction, and
    zech[k] = log(1 + g^k), None where 1 + g^k = 0."""
    q = p ** n
    coeffs = list(itertools.product(range(p), repeat=n))
    index = {c: i for i, c in enumerate(coeffs)}
    g = next(list(c) for c in coeffs[1:] if _is_primitive(list(c), modulus, p))
    log, exp, power = [None] * q, [0] * (q - 1), [1]
    for k in range(q - 1):
        exp[k] = i = index[tuple(power) + (0,) * (n - len(power))]
        log[i] = k
        power = _pmod(_pmul(power, g, p), modulus, p)
    w = p ** (n - 1)  # the weight of the constant coefficient in an index
    zech = [log[i + w if coeffs[i][0] < p - 1 else i - (p - 1) * w] for i in exp]
    neg = [index[tuple(-c % p for c in t)] for t in coeffs]
    return coeffs, neg, log, exp + exp, zech


class FieldElement(Element):
    """An element of a FiniteField: its n ascending coefficients and its
    index.  Up to TABLE_BOUND elements, one interned element per value,
    whose arithmetic reads the field's index tables."""

    __slots__ = ("field", "coeffs", "index")
    parent = property(attrgetter("field"))
    _scalars = (int,)

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)
        if len(self.coeffs) != field.n:
            raise FieldError("expected %d coefficients, got %d"
                             % (field.n, len(self.coeffs)))
        self.index = sum(c * field.p ** k for k, c in enumerate(reversed(self.coeffs)))

    def _lift(self, s):
        return self.field.from_int(s)

    def _key(self):
        return self.coeffs

    def _scalar(self):
        return None if any(self.coeffs[1:]) else self.coeffs[0]

    def __add__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        K = self.field
        log = K._log or K._tables()
        if log is None:
            return FieldElement(K, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        i, j = self.index, other.index
        if not (i and j):
            return self if j == 0 else other
        z = K._zech[log[j] - log[i]]
        return K._elems[0 if z is None else K._exp[log[i] + z]]

    def __neg__(self):
        K = self.field
        if (K._log or K._tables()) is None:
            return FieldElement(K, [-a for a in self.coeffs])
        return K._elems[K._neg[self.index]]

    def __mul__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        K = self.field
        log = K._log or K._tables()
        if log is None:
            prod = _pmod(_pmul(list(self.coeffs), list(other.coeffs), K.p), K._modulus, K.p)
            return K._from_poly(prod)
        i, j = self.index, other.index
        return K._elems[K._exp[log[i] + log[j]] if i and j else 0]

    def dot(self, b, c, e):
        """self*b + c*e: the two products' logs and one Zech sum on the
        index tables, the operators above them."""
        K = self.field
        if not (b.__class__ is c.__class__ is e.__class__ is FieldElement
                and b.field is K and c.field is K and e.field is K):
            b, c, e = self._coerced(b, c, e)
        log = K._log or K._tables()
        if log is None:
            return self * b + c * e
        exp, i, j, k, l = K._exp, self.index, b.index, c.index, e.index
        s = exp[log[i] + log[j]] if i and j else 0
        t = exp[log[k] + log[l]] if k and l else 0
        if not (s and t):
            return K._elems[s or t]
        z = K._zech[log[t] - log[s]]
        return K._elems[0 if z is None else exp[log[s] + z]]

    def __pow__(self, e):
        K = self.field
        if e < 0:
            return self.inv() ** (-e)
        log = K._log or K._tables()
        if log is None:
            return K._from_poly(_ppowmod(list(self.coeffs), e, K._modulus, K.p))
        if not self.index:
            return K._elems[0 if e else K._exp[0]]
        return K._elems[K._exp[log[self.index] * e % (K.order - 1)]]

    def inv(self):
        """Multiplicative inverse via a^(q-2); raises on zero."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in %r" % self.field)
        return self ** (self.field.order - 2)

    def is_zero(self):
        return not self.index

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
            if not _is_irreducible_once(tuple(modulus), p):
                raise FieldError("modulus is reducible over GF(%d)" % p)
        self._modulus = list(modulus)
        self._mod_key = tuple(modulus)
        self._log = None

    def _tables(self):
        """The log table (None above TABLE_BOUND), bound on first use."""
        if self._log is None and self.order <= TABLE_BOUND:
            coeffs, self._neg, log, self._exp, self._zech = _index_tables(
                self.p, self.n, self._mod_key)
            self._elems = [FieldElement.__new__(FieldElement) for _ in coeffs]
            for i, (a, c) in enumerate(zip(self._elems, coeffs)):
                a.field, a.coeffs, a.index = self, c, i
            self._log = log
        return self._log

    # -- construction -------------------------------------------------------

    def element(self, coeffs):
        a = FieldElement(self, coeffs)
        return a if self._tables() is None else self._elems[a.index]

    def from_int(self, a):
        return self.element([a] + [0] * (self.n - 1))

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

    def primitive(self):
        """The base of the log tables: the first primitive element."""
        if self._tables() is None:
            raise FieldError("no index tables for GF(%d^%d): they stop at "
                             "p^n <= %d" % (self.p, self.n, TABLE_BOUND))
        return self._elems[self._exp[1]]

    @property
    def modulus(self):
        return tuple(self._modulus)

    # -- enumeration --------------------------------------------------------

    def elements(self):
        """All p^n elements in lexicographic coefficient order."""
        if self._tables() is None:
            return map(self.element_at, range(self.order))
        return iter(self._elems)

    def element_index(self, a):
        return a.index

    def element_at(self, idx):
        if not 0 <= idx < self.order:
            raise FieldError("index %d outside range(%d)" % (idx, self.order))
        if self._tables() is None:
            p = self.p
            return FieldElement(self, [idx // p ** k % p for k in reversed(range(self.n))])
        return self._elems[idx]

    def random_element(self, rng):
        return self.element_at(rng.randrange(self.order))

    # -- automorphisms ------------------------------------------------------

    def automorphisms(self):
        return [FrobeniusAut(self, k) for k in range(self.n)]

    # -- norms and squares --------------------------------------------------

    def norm(self, a):
        """Norm down to GF(p): the product of the full Frobenius orbit,
        a^(1 + p + ... + p^(n-1))."""
        return a ** ((self.order - 1) // (self.p - 1))

    def is_square(self, a):
        """Squareness in GF(q), as sqrt decides it: always for q even."""
        if a.is_zero():
            raise FieldError("squareness of zero is not defined here")
        return self.sqrt(a) is not None

    def sqrt(self, a):
        """The square root of a, or None when a is not a square.  Of the
        two roots +-r it returns the one with the smaller index, the first
        that a scan in element order meets.  Up to TABLE_BOUND it is read
        off the log tables; above, _tonelli_shanks finds it."""
        if self._tables() is None:
            return self._tonelli_shanks(a)
        log, m = self._log[a.index], self.order - 1
        if log is None:
            return self._elems[0]
        if log % 2 and self.p != 2:
            return None
        # (m + 1) / 2 halves an even log, and is 1 / 2 mod m when m is odd
        r = self._exp[log * (m + 1) // 2 % m]
        return self._elems[min(r, self._neg[r])]

    def _tonelli_shanks(self, a):
        """sqrt without tables (H. Cohen, A Course in Computational
        Algebraic Number Theory, Alg. 1.5.1): a^(q/2) for even q; for odd
        q - 1 = 2^e s, the root a^((s+1)/2) is corrected by powers of z^s,
        z the first non-square in index order, until its error a^s dies.
        The root is certified by squaring back."""
        q, one = self.order, self.one()
        if a.is_zero() or q % 2 == 0:
            r = a ** (q // 2)
        else:
            e, s = 0, q - 1
            while s % 2 == 0:
                e, s = e + 1, s // 2
            z = next(z for z in map(self.element_at, range(1, q))
                     if z ** ((q - 1) // 2) != one)
            y, r, b = z ** s, a ** ((s + 1) // 2), a ** s
            while b != one:
                k, b2 = 0, b
                while b2 != one:
                    k, b2 = k + 1, b2 * b2
                if k == e:  # b has order 2^e: a is not a square
                    return None
                t = y ** (1 << (e - k - 1))
                e, y = k, t * t
                r, b = r * t, b * y
            r = min(r, -r, key=attrgetter("index"))
        certify(r * r == a, "the Tonelli-Shanks root squares back")
        return r

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
        if a.field is not self.field and a.field != self.field:
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


def _is_primitive(f, m, p):
    """True when f generates the multiplicative group of GF(p)[X]/(m)."""
    order = p ** (len(m) - 1) - 1
    return all(_ppowmod(f, order // r, m, p) != [1]
               for r in prime_factors(order))


@lru_cache(maxsize=None)
def _smallest_irreducible(p, n):
    """Lexicographically smallest monic irreducible of degree n over GF(p)
    whose root X is primitive, comparing ascending coefficient tuples.
    Primitivity pins the meaning of element literals like "0,1": the
    adjoined generator is a non-square in the default field.  For n > 1
    a primitive X has a norm (-1)^n m(0) that generates GF(p)^*, so only
    the constant terms m(0) that give one are searched."""
    heads = (c for c in range(p) if n == 1
             or c and _is_primitive([(-1) ** n * c % p], [0, 1], p))
    for head in heads:
        for tail in itertools.product(range(p), repeat=n - 1):
            m = [head, *tail, 1]
            if _is_irreducible(m, p) and (n == 1 or _is_primitive([0, 1], m, p)):
                return m
    raise FieldError("no irreducible polynomial found (impossible)")


def make_field(p, n, modulus=None):
    """Construct GF(p^n), validating primality and the modulus."""
    return FiniteField(p, n, modulus)
