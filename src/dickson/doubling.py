"""Doubled algebras D = B + B with twisted multiplication.

Given a coefficient algebra B over a base field F, an automorphism sigma
of B, and an invertible constant c, the doubled product on pairs comes in
three shapes distinguished by where c sits:

    left / commutative   (u,v)(x,y) = (ux + c*sigma(vy), uy + vx)
    middle               (u,v)(x,y) = (ux + sigma(v)*c*sigma(y), uy + vx)
    right                (u,v)(x,y) = (ux + sigma(vy)*c, uy + vx)

Over a commutative B all three coincide; "commutative" is accepted as a
variant tag there and is the same code path as "left".  (1,0) is always a
two-sided unit and (0,1)^2 = (c,0).  mul has the coefficient adapter
form both halves of the product (doubled).  Over GF(q), Q_p(alpha) and
quaternions each half is one fused a.dot(b, c, e) = a*b + c*e,
normalized once: uy + vx is u.dot(y, v, x), and the first half
u.dot(x, ...) with the variant's term.  Over Q(sqrt a), the rational twin
of a Q_p doubling included, QuadCoefficients forms both halves from the
integer keys of u, v, x, y and c, one normalization each and no element
for vy or sigma(vy): every variant is the left one there, and sigma
keeps or negates the sqrt(a) part of vy.

Coefficient elements carry their own arithmetic (+, -, *, dot, ==, inv(),
is_zero(), literal()) and their coordinates (coords()), and every
automorphism carries its own action (tau(x), compose, inverse,
is_identity, order, label).  Each coefficient algebra is wrapped by a
small adapter for what neither can know: which automorphisms the kind
has, its square roots (is_square, and b_candidates: every b for one tau
of the (tau, b) searches, found in one call; over GF(q), and over the
GF(p) of finite quaternions, both read FiniteField.sqrt), plus
enumeration when finite.  Everything downstream (nuclei, zero-divisor
scans, automorphism machinery) works through the elements, the
automorphisms and that one surface.

Nuclei, the commuting elements and the center are kernels of exact
F-linear systems.  With sigma not the identity, compute_nuclei proves one
F-linear map of B per nucleus; the two quaternion cases where that fails
and sigma the identity take the associator systems over every basis pair
(_nuclei_from_associators), the tests' reference for the others.  Both
take the commuter in closed form.  The associators and mul_by_constants,
the second product used for cross-checks, are read off one structure
tensor kept per doubling: its entries over one common denominator, ints
over GF(p) (where it is 1) and Q, summed from int 0.  A doubling over
Q_p(sqrt d) has its nuclei and construct's checks computed on its
rational twin (rational_twin), the doubling over Q(sqrt d) with the same
sigma, variant and c: every number such a question brings in is rational,
and ranks and kernels do not change under field extension.  p-adic
arithmetic is left where a p-adic root enters: the b values of the
automorphism and isomorphism searches, division and its not-division
preimages.  The exhaustive zero-divisor search over finite fields, the
tests' reference for analysis.division_decide, is a rank test over GF(p)
(_first_singular_left_factor).
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .fields import FiniteField, FrobeniusAut, randbelow
from .linalg import (FpOps, QOps, _packed_pivots, kernel_basis,
                     packed_layout, rref)
from .padics import (DEFAULT_PRECISION, PadicQuadExt, ext_sqrt,
                     rational_coords)
from .quadratic import (QuadElement, QuadField, _quad, is_norm_from_quadfield,
                        quad_is_square, rational_is_square, rational_sqrt)
from .quaternions import (InnerAut, QuaternionAlgebra, _quaternion,
                          quat_is_square)
from .reports import NucleusReport, certify

VARIANTS = ("commutative", "left", "middle", "right")


# ---------------------------------------------------------------------------
# coefficient adapters


class NamedAut:
    """An automorphism named by a word: "id" on every kind but the finite
    fields, and "conjugate", x -> x.conjugate(), on a quadratic extension.
    Like FrobeniusAut and InnerAut it carries its own action, composition,
    inverse, order and label."""

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def __call__(self, x):
        return x if self is IDENTITY else x.conjugate()

    def compose(self, other):
        """self after other."""
        return IDENTITY if self is other else CONJUGATE

    def inverse(self):
        return self

    def is_identity(self):
        return self is IDENTITY

    def order(self):
        return 1 if self is IDENTITY else 2

    def __repr__(self):
        return self.label


IDENTITY, CONJUGATE = NamedAut("id"), NamedAut("conjugate")


class _Coefficients:
    """The adapter surface, with the defaults of the commutative kinds;
    QuatCoefficients overrides what differs for quaternions.  Dimension,
    basis, coordinates and sort order come from x.coords(), the
    coordinates of x over the base field; a kind adds the facts that are
    not linear algebra: its automorphisms, those of the (tau, b) searches
    and enumeration when finite."""

    commutative = True
    # True when automorphisms() lists only the conjugations a caller
    # supplied, so a search over it is not exhaustive
    witness_relative = False
    # the raw algebra class the kind wraps
    algebra = None

    def __init__(self, K):
        if not isinstance(K, self.algebra):
            raise TypeError("expected a %s" % self.algebra.__name__)
        self.K = K

    def zero(self):
        return self.K.zero()

    def one(self):
        return self.K.one()

    @cached_property
    def dim(self):
        return len(self.one().coords())

    @cached_property
    def basis(self):
        """The coordinate basis of B over F, made once per adapter; a
        tuple, so no reader can change it."""
        n = self.dim
        return tuple(self.from_coords([0] * j + [1] + [0] * (n - 1 - j))
                     for j in range(n))

    def coords(self, x):
        return x.coords()

    def sort_key(self, x):
        return tuple(x.coords())

    def scaled_coords(self, x):
        """(ints, den): the coordinates of x times den, as ints.  Here the
        coordinates themselves and 1; a kind that keys on ints over one
        denominator returns that key."""
        return x.coords(), 1

    def from_scaled_coords(self, vec, den):
        """The element with coordinates vec / den (den is 1 here)."""
        return self.from_coords(vec)

    def is_invertible(self, x):
        return not x.is_zero()

    def doubled(self, D, u, v, x, y):
        """The halves of the product (u,v)(x,y) in D by its variant's
        formula, each one u.dot (module docstring)."""
        sig, c = D.sigma, D.c
        if D.variant == "middle":
            first = u.dot(x, sig(v) * c, sig(y))
        elif D.variant == "right":
            first = u.dot(x, sig(v * y), c)
        else:
            first = u.dot(x, c, sig(v * y))
        return first, u.dot(y, v, x)

    def b_candidates(self, t, sigma):
        """Both b with sigma(b)^2 = t, as [b0, -b0], or [] when there are
        none.  For t = tau(c1)/c2 these are the b for which
        (u,v) -> (tau(u), tau(v) b) can take one doubling onto another."""
        ok, r = self.is_square(t)
        if not ok:
            return []
        b = sigma.inverse()(r)
        return [b, -b]


class FieldCoefficients(_Coefficients):
    """GF(p^n) over F = GF(p)."""

    kind = "field"
    algebra = FiniteField

    def base_ops(self):
        return FpOps(self.K.p)

    def from_coords(self, vec):
        return self.K.element(list(vec))

    def automorphism(self, desc):
        """desc itself, once it is checked to be a Frobenius power of K."""
        if not isinstance(desc, FrobeniusAut) or desc.field != self.K:
            raise ValueError("sigma must be a Frobenius power of the same field")
        return desc

    def automorphisms(self, taus=None):
        """All of Aut(GF(p^n)); the search over it is exhaustive."""
        return self.K.automorphisms()

    def b_candidates(self, t, sigma):
        """As for every kind, but in sort_key order."""
        return sorted(super().b_candidates(t, sigma), key=self.sort_key)

    def is_square(self, x):
        r = self.K.sqrt(x)
        return r is not None, r

    def is_finite(self):
        return True

    def size(self):
        return self.K.order

    def elements(self):
        return self.K.elements()

    def element_index(self, x):
        return self.K.element_index(x)

    def element_at(self, i):
        return self.K.element_at(i)

    def random_element(self, rng):
        return self.K.random_element(rng)

    def describe(self):
        K = self.K
        if K.n == 1:
            return "gf(%d,1)" % K.p
        return "gf(%d,%d;%s)" % (K.p, K.n, ",".join(str(m) for m in K.modulus))

    def tables(self):
        """The product and the sum of K as q x q lists of element indices,
        for _field_grid."""
        elems = list(self.K.elements())
        return ([[(x * y).index for y in elems] for x in elems],
                [[(x + y).index for y in elems] for x in elems])


class _QuadraticCoefficients(_Coefficients):
    """A quadratic extension x + y*alpha of the base, with basis 1, alpha
    and conjugation as its one non-trivial automorphism."""

    def from_coords(self, vec):
        return self.K.element(vec[0], vec[1])

    def automorphism(self, desc):
        """IDENTITY or CONJUGATE, given as itself or by its label."""
        for aut in (IDENTITY, CONJUGATE):
            if desc is aut or desc == aut.label:
                return aut
        raise ValueError('sigma must be "id" or "conjugate"')

    def automorphisms(self, taus=None):
        """Both automorphisms; the search over them is exhaustive."""
        return [IDENTITY, CONJUGATE]

    def is_finite(self):
        return False


class QuadCoefficients(_QuadraticCoefficients):
    """Q(sqrt(a)) over F = Q.  As the rational twin of a Q_p extension
    (rational_twin), it keeps that extension as `padic` and draws its
    random elements as the extension does."""

    kind = "quad"
    algebra = QuadField

    def __init__(self, K, padic=None):
        super().__init__(K)
        self.padic = padic

    def base_ops(self):
        return QOps()

    def scaled_coords(self, x):
        X, Y, d = x._k
        return [X, Y], d

    def from_scaled_coords(self, vec, den):
        return _quad(self.K, vec[0], vec[1], den)

    def doubled(self, D, u, v, x, y):
        """The halves of (u,v)(x,y) from the keys of u, v, x, y and c, one
        _quad each and no element for v*y.  K is commutative, so every
        variant is ux + c*sigma(vy), and sigma only negates the sqrt(a)
        part of vy or keeps it.  Operands that are not elements of K, or
        a c that is not, take the dot formula, which coerces or refuses
        them."""
        K, c = self.K, D.c
        if not (u.__class__ is v.__class__ is x.__class__ is y.__class__
                is c.__class__ is QuadElement and u.field is K
                and v.field is K and x.field is K and y.field is K
                and c.field is K):
            return super().doubled(D, u, v, x, y)
        a = K.a
        (x1, y1, d1), (x2, y2, d2) = u._k, v._k
        (x3, y3, d3), (x4, y4, d4) = x._k, y._k
        c0, c1, dc = c._k
        # v*y = (P + Q sqrt(a)) / (d2 d4), then sigma and c
        P, Q = x2 * x4 + a * y2 * y4, x2 * y4 + y2 * x4
        if not D.sigma_is_id:
            Q = -Q
        s, t = d1 * d3, dc * d2 * d4
        first = _quad(K, (x1 * x3 + a * y1 * y3) * t
                      + (c0 * P + a * c1 * Q) * s,
                      (x1 * y3 + y1 * x3) * t + (c0 * Q + c1 * P) * s, s * t)
        s, t = d1 * d4, d2 * d3
        second = _quad(K, (x1 * x4 + a * y1 * y4) * t
                       + (x2 * x3 + a * y2 * y3) * s,
                       (x1 * y4 + y1 * x4) * t + (x2 * y3 + y2 * x3) * s,
                       s * t)
        return first, second

    def is_square(self, x):
        return quad_is_square(x)

    def describe(self):
        return "quad(%d)" % self.K.a

    def random_element(self, rng):
        if self.padic is None:
            # what rng.randrange(-9, 10), rng.randrange(1, 4), twice, draw
            bits = rng.getrandbits
            x, dx, y, dy = (randbelow(bits, 19) - 9, randbelow(bits, 3) + 1,
                            randbelow(bits, 19) - 9, randbelow(bits, 3) + 1)
            return _quad(self.K, x * dy, y * dx, dx * dy)
        # the extension's draw, (x + y*alpha) * p**shift, from the ints
        x, y, shift = self.padic.draw(rng)
        p = self.padic.ctx.p
        if shift < 0:
            return _quad(self.K, x, y, p)
        return _quad(self.K, x * p ** shift, y * p ** shift, 1)


class PadicCoefficients(_QuadraticCoefficients):
    """Q_p(alpha) over F = Q_p, bounded precision.  construct and the
    nuclei run on the rational twin of a doubling (rational_twin); the
    p-adic arithmetic serves the searches that take p-adic roots."""

    kind = "padic"
    algebra = PadicQuadExt

    def sort_key(self, x):
        """p-adic numbers do not order; their (valuation, unit) pairs do."""
        return (x.x.val, x.x.unit, x.y.val, x.y.unit)

    def is_square(self, x):
        r = ext_sqrt(x)
        return r is not None, r

    def describe(self):
        ctx = self.K.ctx
        if ctx.N == DEFAULT_PRECISION:
            return "qp(%d;%s)" % (ctx.p, self.K.kind)
        return "qp(%d;%s;%d)" % (ctx.p, self.K.kind, ctx.N)

    def random_element(self, rng):
        return self.K.random_element(rng)


class QuatCoefficients(_Coefficients):
    """A quaternion algebra over Q or GF(p)."""

    kind = "quat"
    algebra = QuaternionAlgebra
    commutative = False
    witness_relative = True

    def __init__(self, B):
        if not isinstance(B, QuaternionAlgebra):
            raise TypeError("expected a QuaternionAlgebra")
        self.B = B

    @cached_property
    def F(self):
        """GF(p) for B over GF(p), where b_candidates takes its roots."""
        return FiniteField(self.B.p, 1)

    def base_ops(self):
        return self.B.ops

    def zero(self):
        return self.B.zero()

    def one(self):
        return self.B.one()

    def from_coords(self, vec):
        return self.B.element(*vec)

    def scaled_coords(self, x):
        return list(x._k[:4]), x._k[4]

    def from_scaled_coords(self, vec, den):
        return _quaternion(self.B, *vec, den)

    def is_invertible(self, x):
        return not self.B.ops.is_zero(x.norm())

    def automorphism(self, desc):
        """IDENTITY for "id", else desc once it is checked to be a
        conjugation of B."""
        if desc is IDENTITY or desc == "id":
            return IDENTITY
        if not isinstance(desc, InnerAut):
            raise ValueError('sigma must be an InnerAut or "id"')
        if desc.alg != self.B:
            raise ValueError("witness from a different algebra")
        return desc

    def automorphisms(self, taus=None):
        """Witness-relative: the supplied conjugations ("id" included) as
        distinct InnerAuts, the identity always among them and first when
        it was not supplied."""
        if taus is None:
            raise ValueError("quaternion coefficients need witness "
                             "conjugations for the subgroup computation")
        ident = InnerAut(self.B.one())
        out = []
        for t in map(self.automorphism, taus):
            t = ident if t is IDENTITY else t
            if t not in out:
                out.append(t)
        if ident not in out:
            out.insert(0, ident)
        return out

    def b_candidates(self, t, sigma):
        """Both central b with b^2 = t, as [b0, -b0], or [] (sigma fixes
        central elements): b0 is the root of the central t taken inside
        the base field, over GF(p) the smaller residue."""
        if not t.is_central():
            return []
        if self.B.p is None:
            r = rational_sqrt(t.x)
        else:
            r = self.F.sqrt(self.F.from_int(t.x))
            r = None if r is None else r.coeffs[0]
        if r is None:
            return []
        b = self.B.element(r, 0, 0, 0)
        return [b, -b]

    def is_square(self, x):
        return quat_is_square(x)

    def describe(self):
        if self.B.p is not None:
            return "quat(%s,%s;%d)" % (self.B.a, self.B.b, self.B.p)
        return "quat(%s,%s)" % (self.B.a, self.B.b)

    def is_finite(self):
        return self.B.p is not None

    def size(self):
        return self.B.p ** 4

    def elements(self):
        return self.B.elements()

    def random_element(self, rng):
        return self.B.random_element(rng)


def coefficients_for(obj):
    """Wrap a raw algebra in its adapter (idempotent on adapters)."""
    if isinstance(obj, _Coefficients):
        return obj
    for kind in (FieldCoefficients, QuadCoefficients, PadicCoefficients,
                 QuatCoefficients):
        if isinstance(obj, kind.algebra):
            return kind(obj)
    raise TypeError("no coefficient adapter for %r" % (obj,))


# ---------------------------------------------------------------------------
# the doubled algebra


class DicksonElement:
    __slots__ = ("alg", "u", "v")

    def __init__(self, alg, u, v):
        self.alg = alg
        self.u = u
        self.v = v

    def __add__(self, other):
        return DicksonElement(self.alg, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return DicksonElement(self.alg, self.u - other.u, self.v - other.v)

    def __neg__(self):
        return DicksonElement(self.alg, -self.u, -self.v)

    def __mul__(self, other):
        return self.alg.mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, DicksonElement):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero()

    def literal(self):
        return [self.u.literal(), self.v.literal()]

    def __repr__(self):
        return "(%s ; %s)" % tuple(self.literal())


class DicksonAlgebra:
    """B + B with the chosen twisted product."""

    def __init__(self, coeff, sigma, c, variant="commutative", allow_identity=False):
        self.coeff = coefficients_for(coeff)
        if variant not in VARIANTS:
            raise ValueError("variant must be one of %s" % (VARIANTS,))
        if variant == "commutative" and not self.coeff.commutative:
            raise ValueError("commutative variant needs a commutative "
                             "coefficient algebra; use left/middle/right")
        sigma = self.coeff.automorphism(sigma)
        if sigma.is_identity() and not allow_identity:
            raise ValueError("sigma is the identity; pass allow_identity=True "
                             "to construct the degenerate doubling anyway")
        if not self.coeff.is_invertible(c):
            raise ValueError("c must be invertible")
        self.sigma = sigma
        self.c = c
        self.variant = variant
        self.sigma_is_id = sigma.is_identity()
        # the basis products as elements, their structure tensor and its
        # sparse rows, the nuclei and a Q_p doubling's rational twin
        self._memo = {}

    # -- elements -----------------------------------------------------------

    def element(self, u, v):
        return DicksonElement(self, u, v)

    def zero(self):
        return self.element(self.coeff.zero(), self.coeff.zero())

    def unit(self):
        return self.element(self.coeff.one(), self.coeff.zero())

    def adjoined(self):
        """(0, 1); its square is (c, 0) in every variant."""
        return self.element(self.coeff.zero(), self.coeff.one())

    @property
    def dim(self):
        return 2 * self.coeff.dim

    def basis(self):
        out = [self.element(b, self.coeff.zero()) for b in self.coeff.basis]
        out += [self.element(self.coeff.zero(), b) for b in self.coeff.basis]
        return out

    def coords(self, x):
        return self.coeff.coords(x.u) + self.coeff.coords(x.v)

    def from_coords(self, vec):
        m = self.coeff.dim
        return self.element(self.coeff.from_coords(vec[:m]),
                            self.coeff.from_coords(vec[m:]))

    # -- product ------------------------------------------------------------

    def mul(self, lhs, rhs):
        """The variant's formula, both halves formed by the coefficient
        adapter: from the keys over Q(sqrt a), one u.dot each over the
        other kinds (module docstring)."""
        first, second = self.coeff.doubled(self, lhs.u, lhs.v, rhs.u, rhs.v)
        return DicksonElement(self, first, second)

    def associator(self, x, y, z):
        return self.mul(self.mul(x, y), z) - self.mul(x, self.mul(y, z))

    # -- enumeration ---------------------------------------------------------

    def is_finite(self):
        return self.coeff.is_finite()

    def size(self):
        return self.coeff.size() ** 2

    def elements(self):
        for u in self.coeff.elements():
            for v in self.coeff.elements():
                yield self.element(u, v)

    def element_index(self, x):
        q = self.coeff.size()
        return self.coeff.element_index(x.u) * q + self.coeff.element_index(x.v)

    def element_at(self, t):
        q = self.coeff.size()
        return self.element(self.coeff.element_at(t // q), self.coeff.element_at(t % q))

    def random_element(self, rng):
        return self.element(self.coeff.random_element(rng),
                            self.coeff.random_element(rng))

    def describe(self):
        return {
            "coefficient": self.coeff.describe(),
            "kind": self.coeff.kind,
            "sigma": self.sigma.label,
            "c": self.c.literal(),
            "variant": self.variant,
            "dimension_over_base": self.dim,
        }


def rational_twin(D):
    """D itself, or for a doubling over Q_p(sqrt d) the doubling over
    Q(sqrt d) with the same sigma, variant and c, kept on D.

    Every number a Q_p question brings in is rational: d is p, u or u p
    with u a prime below p, so d is squarefree; c is the rational pair its
    literal names (padics.rational_coords); and the random elements of
    construct are ints times p**shift.  So the structure tensor, the
    identity trials and the nucleus systems of D are those of its twin
    with the same coordinates, and the twin eliminates them exactly: rank
    and kernels do not change under the extension from Q to Q_p.  Its
    coefficients draw random elements as D's do, from the same rng calls."""
    if D.coeff.kind != "padic":
        return D
    if "twin" not in D._memo:
        ext = D.coeff.K
        A = QuadCoefficients(QuadField(ext.d_int), padic=ext)
        D._memo["twin"] = DicksonAlgebra(
            A, D.sigma, A.K.element(*rational_coords(D.c)), D.variant,
            allow_identity=True)
    return D._memo["twin"]


# ---------------------------------------------------------------------------
# structure constants: an independent product path used for cross-checks


def basis_products(D):
    """(basis, products): the basis of D and products[i][j] = e_i e_j as
    elements of D, each made once by the defining formula and kept on D,
    so callers must not change them.  Its one reader is
    structure_constants, which reads them as ints over one denominator."""
    if "products" not in D._memo:
        basis = D.basis()
        D._memo["products"] = basis, [[D.mul(x, y) for y in basis]
                                      for x in basis]
    return D._memo["products"]


def structure_constants(D):
    """(P, den), the F-tensor of basis products over one denominator: P[i][j]
    is den times the coordinate row of e_i e_j of basis_products, read as
    ints over one denominator each (_scaled) and brought to den, their
    least common multiple.  Over GF(p) the entries are residues and den
    is 1, over Q ints, and over Q_p PadicNumbers with den = 1; no Fraction
    is made.  Contracting against it is a second way to multiply.  It is
    kept on D, so callers must not change it."""
    if "constants" not in D._memo:
        _, products = basis_products(D)
        scaled = [[_scaled(D, z) for z in row] for row in products]
        den = lcm(*(d for row in scaled for _, d in row))
        D._memo["constants"] = [[v if d == den else [t * (den // d) for t in v]
                                 for v, d in row] for row in scaled], den
    return D._memo["constants"]


def _scaled(D, x):
    """(ints, den): the coordinates of x times den, as ints, from the
    adapter's scaled_coords of its two halves."""
    A = D.coeff
    u, du = A.scaled_coords(x.u)
    v, dv = A.scaled_coords(x.v)
    if du == dv:
        return u + v, du
    den = lcm(du, dv)
    return [t * (den // du) for t in u] + [t * (den // dv) for t in v], den


def mul_by_constants(D, x, y):
    """x * y as the sum of x_i y_j (e_i e_j) over the tensor (P, den) of
    structure_constants(D).  The coordinates of x and of y come as ints
    over one denominator each (_scaled): over Q the element's own key, over
    GF(p) its residues.  The sums, from int 0, over the product of the
    three denominators make the product by from_scaled_coords, which
    divides out the gcd over Q and reduces mod p over GF(p); no Fraction is
    made.  Only the nonzero entries of the tensor add a term, kept on D as
    (k, entry) lists per row, and each coordinate sums its terms in the
    order of (i, j)."""
    P, den = structure_constants(D)
    if "sparse" not in D._memo:
        D._memo["sparse"] = [[[(k, u) for k, u in enumerate(row) if u]
                              for row in Pa] for Pa in P]
    xs, dx = _scaled(D, x)
    ys, dy = _scaled(D, y)
    acc = [0] * D.dim
    for a, Sa in zip(xs, D._memo["sparse"]):
        if a:
            for b, row in zip(ys, Sa):
                if b:
                    s = a * b
                    for k, u in row:
                        acc[k] = acc[k] + s * u
    A, m = D.coeff, D.coeff.dim
    den *= dx * dy
    return D.element(A.from_scaled_coords(acc[:m], den),
                     A.from_scaled_coords(acc[m:], den))


# ---------------------------------------------------------------------------
# nuclei


def _associators(P, dim, ops):
    """assoc[a][b][c], the coordinate row of (e_a e_b) e_c - e_a (e_b e_c),
    from the int tensor P of structure_constants: reduced mod p over
    GF(p), unreduced over Q.  For each pair (a, b), (e_a e_b) e_c for
    every c is one combination of the flattened tables P[m]; for each
    (b, c), e_a (e_b e_c) for every a is one of the flattened P[.][m].
    Each combination sums its terms in the order of m, skipping zero
    scalars, from a row of int zeros."""
    idx = range(dim)
    p = ops.p if isinstance(ops, FpOps) else None

    def comb(scalars, mats):
        acc = [0] * (dim * dim)
        for s, mat in zip(scalars, mats):
            if s:
                acc = [x + s * y for x, y in zip(acc, mat)]
        return acc

    # by_left[m]: e_m e_c in slot c; by_right[m]: e_a e_m in slot a
    by_left = [[t for row in P[m] for t in row] for m in idx]
    by_right = [[t for a in idx for t in P[a][m]] for m in idx]
    cols = [slice(c * dim, (c + 1) * dim) for c in idx]
    left = [[comb(P[a][b], by_left) for b in idx] for a in idx]
    right = [[comb(P[b][c], by_right) for c in idx] for b in idx]
    return [[[[(x - y) % p if p else x - y for x, y in
               zip(left[a][b][cols[c]], right[b][c][cols[a]])]
              for c in idx] for b in idx] for a in idx]


def _reduced_rows(column, keys, dim, ops):
    """The reduced rows of sum_i w_i column(i, *key) = 0 over all keys:
    each key's nonzero coordinate rows, in coordinate order, eliminated."""
    rows = [list(row) for key in keys
            for row in zip(*(column(i, *key) for i in range(dim))) if any(row)]
    pivots = rref(rows, ops)
    return rows[:len(pivots)]


def _commuter_conditions(T, ops):
    """The commuter's system (see compute_nuclei): no rows over a
    commutative B; over quaternions unit rows on the pure coordinates of
    both halves, and on b's scalar in the middle variant, c not in F."""
    if T.coeff.commutative:
        return []
    scalar = T.variant == "middle" and not T.c.is_central()
    return [[ops.one if k == j else ops.zero for k in range(8)]
            for j in range(1, 8) if j != 4 or scalar]


def _nuclei_from_associators(D):
    """The six subspaces of compute_nuclei, each as the kernel of an exact
    linear system ranging the other associator slots over a basis; the
    route for the doublings no theorem of compute_nuclei covers, and the
    tests' reference for the others.

    The associator [e_a, e_b, e_c] of every basis triple is contracted once
    from the structure-constant tensor (_associators), so the doubled
    product is only evaluated on basis pairs.  The left, middle and right
    systems are its three slot views, with the unknown w = sum w_i e_i in
    the first, second or third slot.  Over GF(p) the tensor's entries are
    residues, and over Q they are den times the constants, since scaling
    a system does not change its kernel.  The commuting elements are
    compute_nuclei's.  The report is not kept on D."""
    dim = D.dim
    T = rational_twin(D)
    ops = T.coeff.base_ops()
    P, _ = structure_constants(T)
    assoc = _associators(P, dim, ops)
    pairs = [(j, k) for j in range(dim) for k in range(dim)]
    left = _reduced_rows(lambda i, j, k: assoc[i][j][k], pairs, dim, ops)
    middle = _reduced_rows(lambda i, j, k: assoc[j][i][k], pairs, dim, ops)
    right = _reduced_rows(lambda i, j, k: assoc[j][k][i], pairs, dim, ops)
    comm = _commuter_conditions(T, ops)

    def kernel(rows):
        return [D.from_coords(vec) for vec in kernel_basis(rows, dim, ops)]

    return NucleusReport(kernel(left), kernel(middle), kernel(right),
                         kernel(left + middle + right), kernel(comm),
                         kernel(left + middle + right + comm))


def _nucleus_conditions(D):
    """(left, middle, right): for each nucleus, the coordinate rows over
    the base field of the F-linear map f of B with that nucleus
    {(a, 0) : f(a) = 0} (see compute_nuclei), zero rows dropped; None
    when no statement proved there covers D."""
    if D.sigma_is_id:
        return None
    A, s, c = D.coeff, D.sigma, D.c
    basis = A.basis

    def rows(f):
        # f(sum a_i e_i) = sum a_i f(e_i): row r holds coordinate r of each
        # f(e_i)
        return [list(r) for r in zip(*(A.coords(f(e)) for e in basis))
                if any(r)]

    fixed = rows(lambda a: s(a) - a)
    if D.variant == "middle":
        return fixed, rows(lambda a: s(a) * c - c * s(a)), fixed
    if D.variant == "right":
        twisted = rows(lambda a: s(a) * c - c * a)
        return (fixed, [], twisted) if twisted else None
    twisted = rows(lambda a: c * s(a) - a * c)
    return (twisted, [], fixed) if twisted else None


def compute_nuclei(D):
    """Left/middle/right nuclei, their intersection, the commuting elements
    and the center, each as the kernel basis of an exact F-linear system.

    With c invertible and sigma not the identity, each nucleus is
    {(a, 0) : f(a) = 0} for one F-linear map f of B, given by the variant:

        variant              left nucleus      middle            right
        commutative / left   c s(a) - a c      0 (all of B)      s(a) - a
        middle               s(a) - a          s(a) c - c s(a)   s(a) - a
        right                s(a) - a          0 (all of B)      s(a) c - c a

    with s = sigma, except where f_L(a) = c s(a) - a c (left variant) or
    f_R(a) = s(a) c - c a (right variant) is the zero map.  On a
    commutative B every entry has the kernel Fix(sigma) but the middle
    ones, B: the left and right nuclei of Dickson's commutative
    semifields are Fix(sigma) and the middle one is K (D. E. Knuth,
    J. Algebra 2 (1965) 182-217).  The proof below covers every
    coefficient kind here; the doubling of a central simple algebra is
    that of arXiv 1902.11016.

    Proof.  Write X = (a, b), Y = (x, y), Z = (z, w).  As B is
    associative, the associator [X, Y, Z] expands, per variant, to
        left    (c s(b) s(y) (z - s(z)) + f_L(a) s(y) s(w),
                 c s(b) s(y) w - b c s(y) s(w))
        middle  (s(b) c s(y) (z - s(z)) + (s(a) - a) s(y) c s(w)
                   + s(b) (s(x) c - c s(x)) s(w),
                 s(b) c s(y) w - b s(y) c s(w))
        right   (s(b) s(y) (c z - s(z) c) + (s(a) - a) s(y) s(w) c,
                 s(b) s(y) c w - b s(y) s(w) c).
    Membership: with b = 0 (resp. y = 0, w = 0) all that is left is the
    one term with a (resp. x, z), if any, and it vanishes for every other
    pair exactly when the table's f does (take the free factors 1 to see
    necessity; c is invertible).  Containment rests on one lemma: the
    image of each map a -> s(a) - a, c s(a) - a c, c a - s(a) c that is not
    zero contains a unit of B.  Then, taking
        left nucleus    Y = (0, 1), Z = (z, 0): s(b) c (z - s(z)) = 0 in
                        the middle variant, c s(b) (z - s(z)) and
                        s(b) (c z - s(z) c) in the others, so b = 0;
        middle nucleus  X = (0, 1), Z = (z, 0): c s(y) (z - s(z)) = 0
                        (left, middle), and X = (u, 0), Z = (0, 1):
                        (s(u) - u) s(y) c = 0 (right), so y = 0;
        right nucleus   X = (u, 0), Y = (0, 1): f_L(u) s(w) = 0 (left),
                        (s(u) - u) c s(w) = 0 (middle),
                        (s(u) - u) s(w) c = 0 (right), so w = 0.
    The lemma: over a field B every nonzero element is a unit, and the
    three maps are s - id or c (s - id) up to sign, nonzero as sigma is
    not the identity.
    Over a quaternion algebra, s(x) = m^-1 x m and the images are
    m^-1 [m, B], [c m^-1, B] m and m^-1 [m c, B].  For g not central,
    [g, B] is a plane of pure quaternions (the centralizer of g is F[g]),
    and the norm form, nondegenerate on the pure quaternions since the
    characteristic is not 2, has no totally isotropic plane, so the image
    holds an element of nonzero norm.  []

    The two exceptions are quaternion only: f_L = 0 when c is in F m and
    f_R = 0 when c m is in F, and then the right (left) nucleus holds
    elements (0, b) with b in F[m].  These doublings and those with sigma
    the identity (allow_identity) take the general route,
    _nuclei_from_associators.

    The commuting elements are all of D over a commutative B, and F + F
    over quaternions, or F + 0 in the middle variant with c not in F
    (R. D. Schafer, An Introduction to Nonassociative Algebras, 1966,
    ch. II).  Proof: XY - YX = ([a, x] + k, [a, y] + [b, x]), where k is
    c s([b, y]), s(b) c s(y) - s(y) c s(b) or s([b, y]) c by variant; all
    of it is 0 over a commutative B.  Over quaternions y = 0 forces a, b
    into F, and then k = 0 but in the middle variant, where k = b [c, s(y)].
    Neither sigma nor c's invertibility enters, so both routes use it.  []

    A nucleus is solved as f's rows over the first half alone, its
    kernel vectors padded with zeros: that is the kernel of the 2n-column
    system of f's rows with n zero columns appended, stacked with the n
    rows that force the second half to 0.  The intersection stacks the
    three maps, and the center adds the commuter's unit rows
    (_commuter_conditions) restricted to the first half.  A kernel basis
    depends only on the kernel (its rref is unique), so both routes print
    the same bases.  Over Q_p every system is that of the rational twin
    (rational_twin), solved exactly over Q, and the kernel vectors become
    elements of D at its precision.  The report is kept on D, so callers
    must not change it.
    """
    if "nuclei" in D._memo:
        return D._memo["nuclei"]
    T = rational_twin(D)
    conditions = _nucleus_conditions(T)
    if conditions is None:
        D._memo["nuclei"] = _nuclei_from_associators(D)
        return D._memo["nuclei"]
    ops = T.coeff.base_ops()
    n = T.coeff.dim
    pad = [ops.zero] * n

    def kernel(rows):
        return [D.from_coords(vec + pad) for vec in kernel_basis(rows, n, ops)]

    left, middle, right = conditions
    comm = _commuter_conditions(T, ops)
    nucleus = left + middle + right
    D._memo["nuclei"] = NucleusReport(
        kernel(left), kernel(middle), kernel(right), kernel(nucleus),
        [D.from_coords(vec) for vec in kernel_basis(comm, D.dim, ops)],
        kernel(nucleus + [row[:n] for row in comm]))
    return D._memo["nuclei"]


# ---------------------------------------------------------------------------
# zero divisors


def _field_grid(D):
    """The product table of a doubling over a finite field, built from the
    field's index tables rather than D.mul: grid[i][j] is the index of
    e_i * e_j, where (u, v) has index u*q + v.  Only the brute-force
    automorphism oracle of the tests reads it; it stays here because
    perfbench/trace_layers.py wraps it by name."""
    A = D.coeff
    K = A.K
    q = K.order
    mul, add = A.tables()
    sig = [K.element_index(D.sigma(x)) for x in K.elements()]
    c = K.element_index(D.c)

    def twist(v, y):
        if D.variant == "middle":
            return mul[mul[sig[v]][c]][sig[y]]
        svy = sig[mul[v][y]]
        return mul[svy][c] if D.variant == "right" else mul[c][svy]

    tw = [[twist(v, y) for y in range(q)] for v in range(q)]
    return [[add[mu[x]][tv[y]] * q + add[mu[y]][mv[x]]
             for x in range(q) for y in range(q)]
            for mu in mul for mv, tv in zip(mul, tw)]


def annihilating(D, pair):
    """The pair itself, once its product is checked to be zero."""
    certify(D.mul(*pair).is_zero(), "the witness pair annihilates")
    return pair


def _quat_is_split(B):
    """Exact splitness of a quaternion algebra: always over GF(p), and over
    Q by the norm test for b against Q(sqrt(a))."""
    if B.p is not None:
        return True
    a, b = Fraction(B.a), Fraction(B.b)
    if rational_is_square(a) or rational_is_square(b):
        return True
    return is_norm_from_quadfield(b, QuadField(a))


def _norm_zero_pair(D):
    """(z, 0), (conj z, 0) for a nonzero quaternion coefficient z of norm
    zero, checked to annihilate; None when the bounded search over Q finds
    no such z."""
    A = D.coeff
    found = A.B.find_zero_divisor()
    if found is None:
        return None
    z, w = found
    return annihilating(D, (D.element(z, A.zero()), D.element(w, A.zero())))


def _critical_pair(D, r, s, t):
    """The theorem pair of the triple (r, s, t) in D itself, once c is
    certified to be its critical value."""
    certify(critical_value(D, r, s, t) == D.c,
            "c is the critical value of the triple")
    pair, _ = theorem_zero_divisor_witness(D, r, s, t)
    return pair


def _first_singular_left_factor(D):
    """The index-first nonzero x of D whose left multiplication L_x is
    singular over GF(p), as (coordinates of x, rows of L_x mod p); None
    when every L_x is invertible, that is, when D is division.

    L_x[r][j] = sum_i x_i * P[i][j][r] mod p, from the structure
    constants (P, 1), P[i][j] = coords(e_i e_j).  Since L_{lx} = l * L_x,
    only the x whose first nonzero coordinate is 1 are tested,
    (q^2 - 1)/(p - 1) of them.  D's index order is the lexicographic order
    of the coordinates, and that x is the smallest member of its class
    {l x}, so walking x in that order finds the index-first singular one.

    Each L_x is one lane-packed int (linalg.PackedLayout): entry (r, j)
    is the lane at bit (r * m + j) * W for m = 2n.  Packing is linear, so
    the walk keeps its partial sums of l * T_i, l in range(p), as ints,
    one addition per step; a sum has lanes at most m (p - 1)^2, the top
    the layout's lane width w is chosen for, and rref's column step
    (linalg._packed_pivots) keeps every lane below 2^w while it
    eliminates.  L_x is singular when it finds fewer than m pivots.
    """
    p, m = D.coeff.K.p, D.dim
    P, _ = structure_constants(D)
    g = packed_layout(p, m, m, m * (p - 1) ** 2)
    # scaled[i][l]: l * T_i packed, where T_i[r][j] is the coordinate r of
    # e_i e_j
    packed = [g.pack([[P[i][j][r] for j in range(m)] for r in range(m)])
              for i in range(m)]
    scaled = [[l * t for l in range(p)] for t in packed]

    def first(k, acc, x):
        """The first singular x extending the prefix x (coordinates before
        k), whose partial sum of scaled T_i is acc."""
        if k == m:
            if len(_packed_pivots(acc, g)[1]) < m:
                return x, g.unpack(acc)
            return None
        for l in range(p):
            found = first(k + 1, acc + scaled[k][l], x + (l,))
            if found:
                return found
        return None

    for lead in reversed(range(m)):
        found = first(lead + 1, scaled[lead][1], (0,) * lead + (1,))
        if found:
            return found
    return None


def zero_divisor_search(D):
    """The exhaustive rank test for zero divisors of a doubling of GF(p^n).

    Deterministic, and refused above 10^6 left factors.  The first
    left factor x with a singular left multiplication over GF(p) (see
    _first_singular_left_factor) and the smallest nonzero y in its kernel
    form the lexicographically first annihilating pair; no singular x is
    the proof that none exists.  Other coefficient kinds are refused:
    division_decide decides them by the division theorem's criteria.

    Returns ("witness", pair) or ("none", None).
    """
    A = D.coeff
    if A.kind != "field":
        raise ValueError("the exhaustive zero-divisor search needs GF(p^n) "
                         "coefficients, not %s" % A.describe())
    n_left = D.size()
    if n_left > 10**6:
        raise ValueError("exhaustive search needs %d left factors, over "
                         "the cap of 10^6" % n_left)
    found = _first_singular_left_factor(D)
    if found is None:
        return "none", None
    x, rows = found
    ops = FpOps(A.K.p)
    # the last row of the kernel's rref has the latest leading position
    # and leading entry 1: the smallest nonzero y with x*y = 0
    kernel = kernel_basis(rows, D.dim, ops)
    rref(kernel, ops)
    pair = (D.from_coords(x), D.from_coords(kernel[-1]))
    return "witness", annihilating(D, pair)


def critical_constants(D):
    """The set of c-values for which the defining theorem hands out zero
    divisors, enumerated exhaustively (finite commutative coefficients) on
    logs to the field's primitive element g, where sigma(g^l) = g^(l p^k).
    The logs of r^2, of s / sigma(s) and of 1 / (t sigma(t)) are the
    subgroups of Z/m (m = |K*|, f = p^k) spanned by 2, 1 - f and -1 - f;
    their sum is the multiples of gcd(m, 2, f - 1), since f - 1 and f + 1
    differ by 2."""
    A = D.coeff
    if A.kind != "field":
        raise ValueError("critical-set enumeration needs a finite field")
    K, m, f = A.K, A.K.order - 1, A.K.p ** D.sigma.k
    g = K.primitive()  # refused above fields.TABLE_BOUND, before any work
    return frozenset(g ** e for e in range(0, m, gcd(m, 2, f - 1)))


def critical_value(D, r, s, t):
    """The critical constant built from an invertible triple, matching the
    variant of D."""
    A = D.coeff
    for name, val in (("r", r), ("s", s), ("t", t)):
        if not A.is_invertible(val):
            raise ValueError("%s is not invertible" % name)
    sig = D.sigma
    ti, si = t.inv(), s.inv()
    if D.variant == "commutative":
        return r * r * s * sig(s.inv()) * ti * sig(ti)
    if D.variant == "left":
        return r * ti * r * s * sig(si * ti)
    if D.variant == "middle":
        return sig(t).inv() * r * ti * r * s * sig(si)
    return sig(si * ti) * r * ti * r * s


def theorem_zero_divisor_witness(D, r, s, t):
    """The pair of elements the defining theorem says annihilate when c
    sits at the critical value for (r, s, t).

    When D.c already equals that critical value the pair lives in D
    itself; otherwise the doubling is rebuilt with the right c (reachable
    from the pair via its .alg).  Returns (pair, product); the product is
    checked to be exactly zero.
    """
    c_crit = critical_value(D, r, s, t)
    if D.c == c_crit:
        Dc = D
    else:
        Dc = DicksonAlgebra(D.coeff, D.sigma, c_crit, D.variant,
                            allow_identity=True)
    if D.variant == "commutative":
        x = Dc.element(r, t)
        y = Dc.element(-(r * s * t.inv()), s)
    else:
        x = Dc.element(r, t)
        y = Dc.element(-(t.inv() * r * s), s)
    prod = Dc.mul(x, y)
    certify(prod.is_zero(), "the theorem pair annihilates")
    return (x, y), prod

