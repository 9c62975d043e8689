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
  * the rest are small helpers: fixed subfields and subalgebras, norms to
    a fixed field, p-adic square classes and random invertible elements.
"""

from math import gcd

from dickson.analysis import apply_automorphism, enumerate_automorphisms
from dickson.doubling import _field_grid
from dickson.fields import FieldError, make_field
from dickson.linalg import FpOps, kernel_basis, rank, solve
from dickson.padics import PadicExtElement
from dickson.quaternions import Quaternion


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


# ---------------------------------------------------------------------------
# quaternions


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
