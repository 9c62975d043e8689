"""Test oracles: brute-force and by-definition checks of the paper's claims.

None of this is reached by the command line.  The tests compare the
program's answers against these functions, so they live beside the tests
and not in the package:

  * oracle_automorphisms finds every automorphism of a doubling over a
    finite field from its multiplication table alone, with no use of the
    (tau, b) theory that enumerate_automorphisms rests on;
  * subalgebra_check, doubled_subfield_check and aut_bounds_check check
    the paper's propositions on doubled subfields, subalgebra closure and
    the bounds on |Aut| directly;
  * critical_constants_sumset writes out the critical c-values as the
    sumset that critical_constants replaces by its closed form;
  * smallest_irreducible_exhaustive is the default-modulus search that
    tries every monic tail in order, without the norm condition that
    fields._smallest_irreducible prunes with;
  * the quaternion_* and quadratic_* functions are the Fraction formulas
    of the element operators, which now work on integer numerators;
  * doubled_product is the doubled product by its defining formulas on
    those, the reference for DicksonAlgebra.mul and its fused dot, and
    fraction_random_* draw construct's trials from Fractions;
  * quadratic_doubling_nucleus_dims gives the nucleus dimensions of a
    doubling of Q(sqrt d) as sympy nullspaces of associator systems
    built from its own product on Fraction pairs;
  * _commuter_rows is the commutator system read off the structure
    tensor, the reference for compute_nuclei's closed commuter;
  * rref_loop is plain Gauss-Jordan elimination through the scalar ops,
    the reference for linalg's packed GF(p) and integer Q routes, and the
    one elimination that takes PadicOps;
  * padic_sqrt Hensel-lifts a square root in Q_p, which no command needs;
  * inner_auts_equal compares two conjugations by their witnesses scaled
    to a leading 1 in Fractions, the reference for InnerAut's int key;
  * the rest are small helpers: fixed subfields and subalgebras, norms to
    a fixed field, p-adic square classes and random invertible elements.
"""

import itertools
from fractions import Fraction
from math import gcd

from dickson.analysis import apply_automorphism, enumerate_automorphisms
from dickson.doubling import _field_grid, _reduced_rows, structure_constants
from dickson.fields import (FieldError, _is_irreducible, _is_primitive,
                            make_field)
from dickson.linalg import FpOps, kernel_basis, rank, solve
from dickson.padics import PadicExtElement, PadicNumber, padic_is_square
from dickson.quaternions import Quaternion
from dickson.reports import certify


def rref_loop(rows, ops):
    """Gauss-Jordan elimination through the scalar ops, in place, with the
    pivots linalg.rref returns.  The pivot row is the first with a nonzero
    entry in the column, or over Q_p, whose entries carry a valuation
    .val, the first of lowest valuation; so it depends on the row order."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        nonzero = [i for i in range(r, len(rows))
                   if not ops.is_zero(rows[i][col])]
        if not nonzero:
            continue
        best = min(nonzero, key=lambda i: getattr(rows[i][col], "val", 0))
        rows[r], rows[best] = rows[best], rows[r]
        inv = ops.inv(rows[r][col])
        rows[r] = [ops.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not ops.is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def _commuter_rows(T, ops):
    """The reduced system of the commuting elements of T: sum_i w_i
    [e_i, e_j] = 0 for every j, the commutators read off the tensor of
    structure_constants."""
    P, _ = structure_constants(T)
    p = ops.p if isinstance(ops, FpOps) else None
    idx = range(T.dim)
    comm = [[[(x - y) % p if p else x - y for x, y in zip(P[a][b], P[b][a])]
             for b in idx] for a in idx]
    return _reduced_rows(lambda i, j: comm[i][j], [(j,) for j in idx],
                         T.dim, ops)


def in_span(vectors, target, ops):
    """Is target a linear combination of the given vectors?"""
    if not vectors:
        return all(ops.is_zero(t) for t in target)
    return solve(list(zip(*vectors)), list(target), ops) is not None


# ---------------------------------------------------------------------------
# subalgebras


def subalgebra_check(D, vectors):
    """Is the span of the given elements closed under the product?

    Returns (closed, failures) where failures lists the index pairs whose
    product escapes the span.
    """
    ops = D.coeff.base_ops()
    vecs = [D.coords(v) for v in vectors]
    failures = []
    for i, x in enumerate(vectors):
        for j, y in enumerate(vectors):
            prod = D.mul(x, y)
            if not in_span(vecs, D.coords(prod), ops):
                failures.append((i, j))
    return not failures, failures


def doubled_subfield_check(D, k_basis):
    """For a commutative sigma-stable subalgebra K of the coefficients with
    c in K, the pairs K + K form a subalgebra whose induced product is the
    plain commutative doubling of K.  Each piece is verified directly.
    """
    A = D.coeff
    ops = A.base_ops()
    kvecs = [A.coords(b) for b in k_basis]

    def in_k(x):
        return in_span(kvecs, A.coords(x), ops)

    k_closed = all(in_k(x * y) for x in k_basis for y in k_basis)
    k_commutative = all(x * y == y * x for x in k_basis for y in k_basis)
    sigma_stable = all(in_k(D.sigma(b)) for b in k_basis)
    c_in_k = in_k(D.c)

    doubled = ([D.element(b, A.zero()) for b in k_basis]
               + [D.element(A.zero(), b) for b in k_basis])
    closed, _ = subalgebra_check(D, doubled)

    induced_matches = True
    for x in doubled:
        for y in doubled:
            got = D.mul(x, y)
            want_first = x.u * y.u + D.c * D.sigma(x.v * y.v)
            want_second = x.u * y.v + x.v * y.u
            if not (got.u == want_first and got.v == want_second):
                induced_matches = False
    return {
        "k_closed": k_closed,
        "k_commutative": k_commutative,
        "sigma_stable": sigma_stable,
        "c_in_k": c_in_k,
        "doubled_closed": closed,
        "induced_is_commutative_doubling": induced_matches,
    }


# ---------------------------------------------------------------------------
# automorphisms


def automorphism_images(D, desc):
    """Canonical fingerprint: element indices of the basis images
    (finite coefficients only)."""
    return tuple(D.element_index(apply_automorphism(D, desc, e))
                 for e in D.basis())


def oracle_automorphisms(D):
    """Every unital multiplicative bijection of the doubled-pair shape,
    found from the multiplication table alone.

    A candidate is a pair (A_img, B_img) of elements: the would-be images
    of (g, 0) and (0, 1), with g the coefficient generator.  A_img must
    satisfy the generator's minimal polynomial (so mapping g to it extends
    to the coefficient copy), B_img must square to the image of (c, 0),
    and the induced linear map must be multiplicative on all basis pairs
    and bijective.  Returns the sorted list of basis-image fingerprints.
    The work grows with the square of the doubling's size, so it is meant
    for doublings of GF(q) with q up to about 25.
    """
    A = D.coeff
    if A.kind != "field":
        raise ValueError("the brute-force oracle works over finite fields")
    K = A.K
    p, n, q = K.p, K.n, K.order
    size = q * q
    dmul = _field_grid(D)
    _, add = A.tables()

    def dadd(s, t):
        (su, sv), (tu, tv) = divmod(s, q), divmod(t, q)
        return add[su][tu] * q + add[sv][tv]

    coords = [tuple(K.element_at(t // q).coeffs)
              + tuple(K.element_at(t % q).coeffs) for t in range(size)]
    dim = 2 * n
    unit_d = K.element_index(K.one()) * q
    scal_d = [K.element_index(K.element([s] + [0] * (n - 1))) * q
              for s in range(p)]

    def combine(cofs, images):
        acc = 0
        for r, cr in enumerate(cofs):
            if cr:
                acc = dadd(acc, dmul[scal_d[cr]][images[r]])
        return acc

    units = [K.element_index(K.element([0] * j + [1] + [0] * (n - 1 - j)))
             for j in range(n)]
    basis_d = [u * q for u in units] + units

    ops = FpOps(p)
    found = []
    for a_img in range(size):
        pows = [unit_d]
        for _ in range(n):
            pows.append(dmul[pows[-1]][a_img])
        if combine(K.modulus, pows) != 0:
            continue
        c_img = combine(D.c.coeffs, pows)
        for b_img in range(size):
            if dmul[b_img][b_img] != c_img:
                continue
            images = pows[:n] + [dmul[b_img][pw] for pw in pows[:n]]
            if not all(dmul[images[rs]][images[rt]]
                       == combine(coords[dmul[basis_d[rs]][basis_d[rt]]],
                                  images)
                       for rs in range(dim) for rt in range(dim)):
                continue
            rows = list(zip(*(coords[im] for im in images)))
            if rank(rows, ops) != dim:
                continue
            found.append(tuple(images))
    return sorted(found)


def aut_bounds_check(D, taus=None):
    """2 |C(sigma) and isotropy(c)| <= |Aut| <= 2 |C(sigma)|, the order
    counted from the verified elements and the bounds read off the
    subgroups the enumeration was built from."""
    rep = enumerate_automorphisms(D, taus)
    sub = rep.subgroups
    iso_and_c = [t for t in sub.isotropy if t in sub.c_sigma]
    lower = 2 * len(iso_and_c)
    upper = 2 * len(sub.c_sigma)
    return {"lower": lower, "order": rep.order, "upper": upper,
            "within": lower <= rep.order <= upper}


# ---------------------------------------------------------------------------
# finite fields


def fixed_field(tau):
    """The subfield fixed by the Frobenius power tau: a -> a^(p^k).

    Returns (GF(p^g), basis) where g = gcd(k, n), the second item a
    GF(p)-basis of the fixed subspace inside the parent; the kernel of
    (tau - id) is computed by exact linear algebra over GF(p).
    """
    K = tau.field
    sub = make_field(K.p, gcd(tau.k, K.n))
    # column j: the coordinates of tau(e_j) - e_j
    columns = []
    for j in range(K.n):
        image = tau(K.element([0] * j + [1] + [0] * (K.n - 1 - j)))
        columns.append([a - (1 if i == j else 0)
                        for i, a in enumerate(image.coeffs)])
    rows = list(zip(*columns))
    basis = [K.element(vec) for vec in kernel_basis(rows, K.n, FpOps(K.p))]
    return sub, basis


def norm_over(K, a, tau):
    """Norm of a to the fixed field of tau: the product over the Galois
    group generated by the Frobenius power tau."""
    if tau.field != K:
        raise FieldError("automorphism of a different field")
    steps = K.n // gcd(tau.k, K.n)
    return a ** sum(K.p ** (tau.k * j) for j in range(steps))


def random_nonzero(K, rng):
    return K.element_at(rng.randrange(1, K.order))


def critical_constants_sumset(D):
    """The critical c-values of a doubling over GF(q) with sigma the
    Frobenius power k, as the sumset in Z/(q - 1) of the logs of r^2, of
    s / sigma(s) and of 1 / (t sigma(t)): the subgroups spanned by 2,
    1 - f and -1 - f for f = p^k, each written out and added pairwise."""
    K = D.coeff.K
    m, f = K.order - 1, K.p ** D.sigma.k
    logs = {0}
    for step in (2, 1 - f, -1 - f):
        part = {l * step % m for l in range(m)}
        logs = {(a + b) % m for a in logs for b in part}
    g = K.primitive()
    return frozenset(g ** e for e in logs)


def smallest_irreducible_exhaustive(p, n):
    """The default modulus by the search that tries every monic tail in
    ascending order: the first irreducible of degree n whose root X is
    primitive (any irreducible for n = 1)."""
    for tail in itertools.product(range(p), repeat=n):
        m = list(tail) + [1]
        if _is_irreducible(m, p) and (n == 1 or _is_primitive([0, 1], m, p)):
            return m
    raise FieldError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# quaternions

# The Fraction formulas of the element operators: coordinate lists built
# one coordinate at a time through the algebra's scalar ops (Fractions
# over Q, residues over GF(p)) and, for Q(sqrt a), Fraction arithmetic.


def quaternion_sum(q1, q2):
    o = q1.alg.ops
    return [o.add(s, t) for s, t in zip(q1.coords(), q2.coords())]


def quaternion_difference(q1, q2):
    o = q1.alg.ops
    return [o.sub(s, t) for s, t in zip(q1.coords(), q2.coords())]


def quaternion_product(q1, q2):
    """The 16-product formula."""
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


def quaternion_conjugate(q):
    o = q.alg.ops
    x, y, z, w = q.coords()
    return [x, o.neg(y), o.neg(z), o.neg(w)]


def quaternion_norm(q):
    """x^2 - a y^2 - b z^2 + ab w^2."""
    o = q.alg.ops
    a, b = q.alg.a, q.alg.b
    x, y, z, w = q.coords()
    return o.add(o.sub(o.mul(x, x), o.mul(a, o.mul(y, y))),
                 o.sub(o.mul(o.mul(a, b), o.mul(w, w)),
                       o.mul(b, o.mul(z, z))))


def quaternion_inverse(q):
    """conj/N; raises ZeroDivisionError on a norm-zero q."""
    o = q.alg.ops
    n = quaternion_norm(q)
    if o.is_zero(n):
        raise ZeroDivisionError("norm-zero quaternion")
    ninv = o.inv(n)
    return [o.mul(ninv, t) for t in quaternion_conjugate(q)]


def quadratic_sum(u, v):
    return [u.x + v.x, u.y + v.y]


def quadratic_difference(u, v):
    return [u.x - v.x, u.y - v.y]


def quadratic_product(u, v):
    a = u.field.a
    return [u.x * v.x + a * u.y * v.y, u.x * v.y + u.y * v.x]


def quadratic_conjugate(u):
    return [u.x, -u.y]


def quadratic_inverse(u):
    """(x - y sqrt a) / (x^2 - a y^2); raises ZeroDivisionError on 0."""
    n = u.x * u.x - u.field.a * u.y * u.y
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return [u.x / n, -u.y / n]


# ---------------------------------------------------------------------------
# the doubled product and the random trials, by definition


def doubled_product(D, lhs, rhs):
    """The halves of lhs * rhs by the doubling module's three formulas:
    (ux + c sigma(vy), uy + vx), (ux + sigma(v) c sigma(y), uy + vx) and
    (ux + sigma(vy) c, uy + vx).  Coefficient products and sums are the
    Fraction formulas above over Q(sqrt a) and quaternions, the element
    operators over GF(q) and Q_p(alpha); dot is never called."""
    P = lhs.u.parent
    if D.coeff.kind == "quat":
        def mul(a, b):
            return P.element(*quaternion_product(a, b))

        def add(a, b):
            return P.element(*quaternion_sum(a, b))
    elif D.coeff.kind == "quad":
        def mul(a, b):
            return P.element(*quadratic_product(a, b))

        def add(a, b):
            return P.element(*quadratic_sum(a, b))
    else:
        def mul(a, b):
            return a * b

        def add(a, b):
            return a + b
    u, v, x, y = lhs.u, lhs.v, rhs.u, rhs.v
    s, c = D.sigma, D.c
    if D.variant == "middle":
        extra = mul(mul(s(v), c), s(y))
    elif D.variant == "right":
        extra = mul(s(mul(v, y)), c)
    else:
        extra = mul(c, s(mul(v, y)))
    return add(mul(u, x), extra), add(mul(u, y), mul(v, x))


def fraction_random_quad(K, rng):
    """A random element of Q(sqrt a) as construct drew it from Fractions:
    x/dx + (y/dy) sqrt(a), x, y in [-9, 9] and dx, dy in [1, 3]."""
    return K.element(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
                     Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)))


def fraction_random_quaternion(B, rng):
    """A random quaternion over Q as drawn from Fractions: four n/d, n in
    [-9, 9] and d in [1, 3]."""
    return B.element(*(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                       for _ in range(4)))


def quadratic_doubling_nucleus_dims(d, c, conjugate):
    """The dimensions compute_nuclei reports for the doubling of Q(sqrt d)
    by c = (c0, c1), sigma the conjugation or the identity, each the
    dimension of a sympy nullspace over QQ.  Elements are pairs of
    coefficient pairs (x, y) = x + y sqrt(d) of Fractions; the product is
    (u,v)(x,y) = (ux + c sigma(vy), uy + vx), the one every variant gives
    over a commutative B, and each associator or commutator of basis
    elements is multiplied out from it, with no structure tensor."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def mul(a, b):
        return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def add(a, b, sign=1):
        return (a[0] + sign * b[0], a[1] + sign * b[1])

    def dmul(X, Y):
        vy = mul(X[1], Y[1])
        if conjugate:
            vy = (vy[0], -vy[1])
        return (add(mul(X[0], Y[0]), mul(c, vy)),
                add(mul(X[0], Y[1]), mul(X[1], Y[0])))

    def coords(X):
        return [X[0][0], X[0][1], X[1][0], X[1][1]]

    zero, one, root = (Fraction(0), Fraction(0)), (1, 0), (0, 1)
    E = [(one, zero), (root, zero), (zero, one), (zero, root)]
    m = len(E)
    idx = range(m)

    def assoc(x, y, z):
        a, b = dmul(dmul(x, y), z), dmul(x, dmul(y, z))
        return [s - t for s, t in zip(coords(a), coords(b))]

    def rows(vector):
        # one row per (key, coordinate): sum_i w_i vector(i, key)[r] = 0
        out = []
        for key in itertools.product(idx, repeat=2):
            cols = [vector(i, *key) for i in idx]
            out += [[col[r] for col in cols] for r in idx]
        return out

    left = rows(lambda i, j, k: assoc(E[i], E[j], E[k]))
    middle = rows(lambda i, j, k: assoc(E[j], E[i], E[k]))
    right = rows(lambda i, j, k: assoc(E[j], E[k], E[i]))
    comm = rows(lambda i, j, k: [s - t for s, t in
                                 zip(coords(dmul(E[i], E[j])),
                                     coords(dmul(E[j], E[i])))])

    def null_dim(system):
        M = DomainMatrix([[QQ(t.numerator, t.denominator) for t in map(
            Fraction, row)] for row in system], (len(system), m), QQ)
        return M.nullspace().shape[0]

    return {"left": null_dim(left), "middle": null_dim(middle),
            "right": null_dim(right),
            "nucleus": null_dim(left + middle + right),
            "commuter": null_dim(comm),
            "center": null_dim(left + middle + right + comm)}


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


def random_invertible(B, rng):
    while True:
        q = B.random_element(rng)
        if not B.ops.is_zero(q.norm()):
            return q


def canonical_witness(aut):
    """The witness of an InnerAut scaled through the scalar ops so that its
    first nonzero coordinate is 1: witnesses equal up to a central factor
    give the same tuple."""
    o = aut.alg.ops
    coords = aut.witness.coords()
    f = o.inv(next(t for t in coords if not o.is_zero(t)))
    return tuple(o.mul(f, t) for t in coords)


def inner_auts_equal(s, t):
    """Equality of two InnerAuts by the Fraction rule: the same algebra and
    the same canonical_witness."""
    return s.alg == t.alg and canonical_witness(s) == canonical_witness(t)


# ---------------------------------------------------------------------------
# p-adic square classes


# the class modulo squares, by (odd valuation, square unit residue)
_SQUARE_CLASSES = {(False, True): "1", (False, False): "u",
                   (True, True): "pi", (True, False): "upi"}


def square_class(z):
    """The class of z modulo squares: one of "1", "u", "pi", "upi".
    Accepts a PadicNumber or a quadratic-extension element."""
    if isinstance(z, PadicExtElement):
        return ext_square_class(z)
    if z.is_zero():
        raise ValueError("zero has no square class")
    unit_sq = pow(z.residue(), (z.ctx.p - 1) // 2, z.ctx.p) == 1
    return _SQUARE_CLASSES[(z.val % 2 == 1, unit_sq)]


def ext_square_class(z):
    """Class of z modulo squares of the extension: "1", "u", "pi", "upi"."""
    if z.is_zero():
        raise ValueError("zero has no square class")
    unit_sq = z.ext.residue_field().is_square(z.unit_part().residue())
    return _SQUARE_CLASSES[(z.val_pi() % 2 == 1, unit_sq)]


def padic_sqrt(z):
    """The canonical square root in Q_p (smaller unit residue), or None;
    the residue root it lifts is GF(p)'s FiniteField.sqrt."""
    if z.is_zero():
        return z.ctx.zero()
    if not padic_is_square(z):
        return None
    p, prec = z.ctx.p, z.prec
    F = make_field(p, 1)
    x = F.sqrt(F.from_int(z.unit)).coeffs[0]
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        mod = p ** k
        x = (x + z.unit * pow(x, -1, mod)) * pow(2, -1, mod) % mod
    x %= p ** prec
    x = min(x, (-x) % p ** prec)
    root = PadicNumber(z.ctx, z.val // 2, x, prec)
    certify(root * root == z, "the Hensel-lifted root squares back")
    return root
