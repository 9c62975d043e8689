"""Doubled algebras D = B + B with twisted multiplication.

Given a coefficient algebra B over a base field F, an automorphism sigma
of B, and an invertible constant c, the doubled product on pairs comes in
three shapes distinguished by where c sits:

    left / commutative   (u,v)(x,y) = (ux + c*sigma(vy), uy + vx)
    middle               (u,v)(x,y) = (ux + sigma(v)*c*sigma(y), uy + vx)
    right                (u,v)(x,y) = (ux + sigma(vy)*c, uy + vx)

Over a commutative B all three coincide; "commutative" is accepted as a
variant tag there and is the same code path as "left".  (1,0) is always a
two-sided unit and (0,1)^2 = (c,0).

Coefficient elements carry their own arithmetic (+, -, *, ==, inv(),
is_zero(), literal()) and canonical coordinates (_key()), and every
automorphism carries its own action (tau(x), compose, inverse,
is_identity, order, label).  Each coefficient algebra is wrapped by a
small adapter for what neither can know: which automorphisms the kind
has, the per-kind facts of the (tau, b) searches, plus enumeration when
finite.  Everything downstream (nuclei, zero-divisor scans, automorphism
machinery) works through the elements, the automorphisms and that one
surface.

Nuclei, the commuting elements and the center are computed as kernels of
exact F-linear systems, never assumed from theory.  Their associators
and mul_by_constants, the second product used for cross-checks, are read
off one structure tensor, kept per doubling and contracted the same way
over every base field: on ints over GF(p), on ints over one common
denominator over Q, and on PadicNumbers over Q_p.  The exhaustive
zero-divisor search over finite fields is a rank test over GF(p): the
doubled product is GF(p)-bilinear, so x has a right annihilator exactly
when the matrix of left multiplication by x is singular.  Each such
2n x 2n matrix is one lane-packed int, entry (r, j) in the lane at bit
(r * 2n + j) * W (linalg.PackedLayout), summed along the walk over x as
an int; its lanes start at most 2n (p - 1)^2 and stay at most
max(2n (p - 1)^2, (2p - 1)(p - 1)) during elimination, the bound the
lane width is derived from.  The search caps itself at 10^6 left factors
and honors DICKSON_MAX_EXHAUSTIVE.
"""

import os
from fractions import Fraction
from functools import cached_property

from .fields import FiniteField, FrobeniusAut
from .linalg import (FpOps, QOps, _integer_scaled, kernel_basis,
                     packed_layout, packed_singular, rref)
from .padics import (DEFAULT_PRECISION, PadicOps, PadicQuadExt, _mod_sqrt,
                     ext_is_square, ext_sqrt)
from .quadratic import (QuadField, is_norm_from_quadfield, quad_is_square,
                        rational_is_square, rational_sqrt)
from .quaternions import InnerAut, QuaternionAlgebra, quat_is_square
from .reports import NucleusReport, certify

VARIANTS = ("commutative", "left", "middle", "right")


def search_cap():
    """Budget of the exhaustive division search, in left factors;
    DICKSON_MAX_EXHAUSTIVE overrides it."""
    v = os.environ.get("DICKSON_MAX_EXHAUSTIVE")
    if not v:
        return 10**6
    if not v.strip().isdecimal():
        raise ValueError("DICKSON_MAX_EXHAUSTIVE must be a nonnegative "
                         "integer, not %r" % v)
    return int(v)


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
    basis, coordinates and sort order come from the canonical key
    x._key(), the coordinates of x over the base field; a kind adds the
    facts that are not linear algebra: its automorphisms, those of the
    (tau, b) searches and enumeration when finite."""

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
        return len(self.one()._key())

    def basis(self):
        n = self.dim
        return [self.from_coords([0] * j + [1] + [0] * (n - 1 - j))
                for j in range(n)]

    def coords(self, x):
        return list(x._key())

    def sort_key(self, x):
        return x._key()

    def is_invertible(self, x):
        return not x.is_zero()

    def square_root(self, t):
        """Some r with r^2 = t, or None."""
        ok, r = self.is_square(t)
        return r if ok else None

    def b_candidates(self, t, sigma):
        """Both b with sigma(b)^2 = t, as [b0, -b0], or [] when there are
        none.  For t = tau(c1)/c2 these are the b for which
        (u,v) -> (tau(u), tau(v) b) can take one doubling onto another."""
        r = self.square_root(t)
        if r is None:
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
        if x.is_zero():
            return True, self.K.zero()
        if not self.K.is_square(x):
            return False, None
        return True, self.K.sqrt(x)

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
    """Q(sqrt(a)) over F = Q."""

    kind = "quad"
    algebra = QuadField

    def base_ops(self):
        return QOps()

    def is_square(self, x):
        return quad_is_square(x)

    def describe(self):
        return "quad(%d)" % self.K.a

    def random_element(self, rng):
        return self.K.element(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
                              Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)))


class PadicCoefficients(_QuadraticCoefficients):
    """Q_p(alpha) over F = Q_p, bounded precision."""

    kind = "padic"
    algebra = PadicQuadExt

    def base_ops(self):
        return PadicOps(self.K.ctx)

    def sort_key(self, x):
        """p-adic numbers do not order; their (valuation, unit) pairs do."""
        return (x.x.val, x.x.unit, x.y.val, x.y.unit)

    def is_square(self, x):
        if x.is_zero():
            return True, self.K.zero()
        if not ext_is_square(x):
            return False, None
        return True, ext_sqrt(x)

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

    def base_ops(self):
        return self.B.ops

    def zero(self):
        return self.B.zero()

    def one(self):
        return self.B.one()

    def from_coords(self, vec):
        return self.B.element(*vec)

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

    def square_root(self, t):
        """A central square root of the central element t taken inside the
        base field (over GF(p) the smaller residue), or None."""
        if not t.is_central():
            return None
        p = self.B.p
        if p is None:
            r = rational_sqrt(t.x)
        else:
            r = _mod_sqrt(t.x, p)
            r = min(r, p - r) if r else None
        return None if r is None else self.B.element(r, 0, 0, 0)

    def b_candidates(self, t, sigma):
        """Both central b with b^2 = t, as [b0, -b0], or [] (sigma fixes
        central elements)."""
        b = self.square_root(t)
        return [] if b is None else [b, -b]

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
        if c.is_zero():
            raise ValueError("c must be nonzero")
        self.sigma = sigma
        self.c = c
        self.variant = variant
        self.sigma_is_id = sigma.is_identity()
        self._memo = {}  # the constants, their integer form, the nuclei

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
        out = [self.element(b, self.coeff.zero()) for b in self.coeff.basis()]
        out += [self.element(self.coeff.zero(), b) for b in self.coeff.basis()]
        return out

    def coords(self, x):
        return self.coeff.coords(x.u) + self.coeff.coords(x.v)

    def from_coords(self, vec):
        m = self.coeff.dim
        return self.element(self.coeff.from_coords(vec[:m]),
                            self.coeff.from_coords(vec[m:]))

    # -- product ------------------------------------------------------------

    def mul(self, lhs, rhs):
        u, v, x, y = lhs.u, lhs.v, rhs.u, rhs.v
        sig = self.sigma
        second = u * y + v * x
        if self.variant in ("commutative", "left"):
            extra = self.c * sig(v * y)
        elif self.variant == "middle":
            extra = sig(v) * self.c * sig(y)
        else:
            extra = sig(v * y) * self.c
        return DicksonElement(self, u * x + extra, second)

    def associator(self, x, y, z):
        return self.mul(self.mul(x, y), z) - self.mul(x, self.mul(y, z))

    def commutator(self, x, y):
        return self.mul(x, y) - self.mul(y, x)

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


# ---------------------------------------------------------------------------
# structure constants: an independent product path used for cross-checks


def structure_constants(D):
    """The F-tensor of basis products, built from the defining formula once;
    contracting against it is a second way to multiply.  It is kept on D,
    so callers must not change it."""
    if "constants" not in D._memo:
        basis = D.basis()
        D._memo["constants"] = [[D.coords(D.mul(x, y)) for y in basis] for x in basis]
    return D._memo["constants"]


def _integer_constants(D):
    """The structure constants over one denominator, as (P, den, zero):
    P[i][j] is den times the coordinate row of e_i e_j, and zero is the
    zero of P's entries.  Over Q the entries are ints and den is one common
    multiple of the table's denominators; over GF(p) and Q_p, P is the
    table itself, of ints or PadicNumbers, with den = 1.  It is kept on D
    beside the constants, so callers must not change it."""
    if "integer" not in D._memo:
        n, ops, P = D.dim, D.coeff.base_ops(), structure_constants(D)
        den, zero = 1, ops.zero
        if isinstance(ops, QOps):
            flat, den = _integer_scaled([t for m in P for row in m for t in row], ops)
            rows = [flat[k:k + n] for k in range(0, n ** 3, n)]
            P, zero = [rows[i * n:(i + 1) * n] for i in range(n)], 0
        D._memo["integer"] = P, den, zero
    return D._memo["integer"]


def mul_by_constants(D, table, x, y):
    """x * y as the sum of x_i y_j (e_i e_j) over the structure constants
    table = structure_constants(D), contracted on their integer form
    (_integer_constants).  Over Q the coordinates of x and of y are scaled
    to ints over one denominator each, and one Fraction is built per
    coordinate of the product; over GF(p) from_coords reduces the int sums
    mod p, and over Q_p they are sums of PadicNumbers."""
    if table is not D._memo.get("constants"):
        raise ValueError("table must be structure_constants(D)")
    ops = D.coeff.base_ops()
    P, den, zero = _integer_constants(D)
    xs, dx = _integer_scaled(D.coords(x), ops)
    ys, dy = _integer_scaled(D.coords(y), ops)
    acc = [zero] * D.dim
    for a, Pa in zip(xs, P):
        if a:
            for b, row in zip(ys, Pa):
                if b:
                    s = a * b
                    acc = [t + s * u for t, u in zip(acc, row)]
    den *= dx * dy
    return D.from_coords(acc if den == 1 else [Fraction(t, den) for t in acc])


# ---------------------------------------------------------------------------
# nuclei


def _associators(P, dim, ops, zero):
    """assoc[a][b][c], the coordinate row of (e_a e_b) e_c - e_a (e_b e_c),
    and comm[a][b], that of e_a e_b - e_b e_a, from the tensor P of
    _integer_constants, whose entries have the given zero: ints reduced mod
    p over GF(p), unreduced ints over Q and PadicNumbers over Q_p.  For
    each pair (a, b), (e_a e_b) e_c for every c is one combination of the
    flattened tables P[m]; for each (b, c), e_a (e_b e_c) for every a is
    one of the flattened P[.][m].  Each combination sums its terms in the
    order of m, skipping zero scalars, from a row of zeros."""
    idx = range(dim)
    p = ops.p if isinstance(ops, FpOps) else None

    def sub(u, v):
        if p is None:
            return [x - y for x, y in zip(u, v)]
        return [(x - y) % p for x, y in zip(u, v)]

    def comb(scalars, mats):
        acc = [zero] * (dim * dim)
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
    assoc = [[[sub(left[a][b][cols[c]], right[b][c][cols[a]]) for c in idx]
              for b in idx] for a in idx]
    comm = [[sub(P[a][b], P[b][a]) for b in idx] for a in idx]
    return assoc, comm


def compute_nuclei(D):
    """Left/middle/right nuclei, their intersection, the commuting elements
    and the center, each as the kernel of an exact linear system ranging
    the other associator slots over a basis.

    The associator [e_a, e_b, e_c] of every basis triple is contracted once
    from the structure-constant tensor, so the doubled product is only
    evaluated on basis pairs.  The left, middle and right systems are its
    three slot views, with the unknown w = sum w_i e_i in the first, second
    or third slot; the commuting system reads [e_i, e_j] off the tensor.
    Rows come key by key in a fixed order, since over Q_p the pivot choice
    of rref depends on it; the kernels themselves are canonical in the row
    space.  One routine (_associators) contracts the tensor over every base
    field: on ints over GF(p), on ints over Q once the tensor is scaled by
    one common denominator (_integer_constants), since scaling a system
    does not change its kernel, and on PadicNumbers over Q_p.  The report
    is kept on D, so callers must not change it.
    """
    if "nuclei" in D._memo:
        return D._memo["nuclei"]
    dim = D.dim
    ops = D.coeff.base_ops()
    P, _, zero = _integer_constants(D)
    assoc, commutator = _associators(P, dim, ops, zero)
    idx = range(dim)

    def reduced(column, keys):
        """The reduced rows of sum_i w_i column(i, *key) = 0 over all keys:
        each key's nonzero coordinate rows, in coordinate order."""
        rows = [list(row) for key in keys
                for row in zip(*(column(i, *key) for i in idx)) if any(row)]
        pivots = rref(rows, ops)
        return rows[:len(pivots)]

    def kernel(rows):
        return [D.from_coords(vec) for vec in kernel_basis(rows, dim, ops)]

    pairs = [(j, k) for j in idx for k in idx]
    left = reduced(lambda i, j, k: assoc[i][j][k], pairs)
    middle = reduced(lambda i, j, k: assoc[j][i][k], pairs)
    right = reduced(lambda i, j, k: assoc[j][k][i], pairs)
    comm = reduced(lambda i, j: commutator[i][j], [(j,) for j in idx])
    D._memo["nuclei"] = NucleusReport(kernel(left), kernel(middle), kernel(right),
                                      kernel(left + middle + right), kernel(comm),
                                      kernel(left + middle + right + comm))
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

    L_x[r][j] = sum_i x_i * table[i][j][r] mod p, from the structure
    constants table[i][j] = coords(e_i e_j).  Since L_{lx} = l * L_x, only
    the x whose first nonzero coordinate is 1 are tested, (q^2 - 1)/(p - 1)
    of them.  D's index order is the lexicographic order of the
    coordinates, and that x is the smallest member of its class {l x}, so
    walking x in that order finds the index-first singular one.

    Each L_x is one lane-packed int (linalg.PackedLayout): entry (r, j)
    is the lane at bit (r * m + j) * W for m = 2n.  Packing is linear, so
    the walk keeps its partial sums of l * T_i, l in range(p), as ints,
    one addition per step; a sum has lanes at most m (p - 1)^2, the top
    the layout's lane width w is chosen for, and linalg.packed_singular
    keeps every lane below 2^w while it eliminates.
    """
    p, m = D.coeff.K.p, D.dim
    table = structure_constants(D)
    g = packed_layout(p, m, m, m * (p - 1) ** 2)
    # scaled[i][l]: l * T_i packed, where T_i[r][j] is the coordinate r of
    # e_i e_j
    packed = [g.pack([[table[i][j][r] for j in range(m)] for r in range(m)])
              for i in range(m)]
    scaled = [[l * t for l in range(p)] for t in packed]

    def first(k, acc, x):
        """The first singular x extending the prefix x (coordinates before
        k), whose partial sum of scaled T_i is acc."""
        if k == m:
            return (x, g.unpack(acc)) if packed_singular(acc, g) else None
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

    Deterministic, and refused above the cap on left factors.  The first
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
    if n_left > search_cap():
        raise ValueError("exhaustive search needs %d left factors, over "
                         "the cap; set DICKSON_MAX_EXHAUSTIVE to override"
                         % n_left)
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
    logs to the field's primitive element g, where sigma(g^l) = g^(l p^k)."""
    A = D.coeff
    if A.kind != "field":
        raise ValueError("critical-set enumeration needs a finite field")
    K, m, f = A.K, A.K.order - 1, A.K.p ** D.sigma.k
    g = K.primitive()  # refused above fields.TABLE_BOUND, before any work
    logs = {0}
    # the logs of r^2, of s / sigma(s) and of 1 / (t sigma(t))
    for step in (2, 1 - f, -1 - f):
        part = {l * step % m for l in range(m)}
        logs = {(a + b) % m for a in logs for b in part}
    return frozenset(g ** e for e in logs)


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

