"""Metamorphic relations: the same algebra asked two ways must answer alike.

Base change.  For a quadratic extension Q_p(sqrt d) of Q_p whose radicand
d is an integer, Q(sqrt d) tensored with Q_p is Q_p(sqrt d), and a doubling
over Q(sqrt d) with c = x + y sqrt(d) becomes the doubling over Q_p(sqrt d)
with the same coordinates.  Its nuclei are kernels of one rational linear
system, read over Q or over Q_p, so their dimensions must agree.  Over Q
the system is eliminated exactly; over Q_p it goes through the p-adic
arithmetic at a bounded precision N, so the relation checks that route.

Field presentation.  GF(p^n) under two moduli is one field, and a
doubling's invariants do not see how its elements are written.  Over
every unit c and every sigma != id, the multiset of (sigma exponent,
division verdict, nucleus dimensions, automorphism group order) must not
depend on the modulus.
"""

import random
from collections import Counter

import pytest

from dickson.analysis import division_decide, enumerate_automorphisms
from dickson.doubling import DicksonAlgebra, compute_nuclei
from dickson.fields import FrobeniusAut, make_field
from dickson.parsing import algebra_from_document

# (rational twin, p, kind of Q_p extension): alpha^2 of the extension is
# the radicand
TWINS = [("quad(5)", 5, "sqrt_p"), ("quad(2)", 5, "sqrt_u"),
         ("quad(10)", 5, "sqrt_up"), ("quad(3)", 3, "sqrt_p"),
         ("quad(7)", 7, "sqrt_p"), ("quad(3)", 7, "sqrt_u")]


def _doubling(coeff, sigma, c):
    return algebra_from_document({"coeff": coeff, "sigma": sigma, "c": c,
                                  "allow_identity": True})


@pytest.mark.parametrize("rational, p, kind", TWINS)
@pytest.mark.parametrize("sigma", ["conjugate", "id"])
def test_base_change_keeps_nucleus_dimensions(rational, p, kind, sigma):
    rng = random.Random("%s %d %s %s" % (rational, p, kind, sigma))
    for _ in range(3):
        x, y = 0, 0
        while not (x or y):
            x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
        c = "%s,%s" % (x, rng.choice([y, "%d/%d" % (y, rng.randrange(1, 4))]))
        D = _doubling(rational, sigma, c)
        want = compute_nuclei(D).dims
        for N in (8, 16):
            E = _doubling("qp(%d;%s;%d)" % (p, kind, N), sigma, c)
            assert E.coeff.K.d_int == D.coeff.K.a
            assert compute_nuclei(E).dims == want, (c, N)


# monic irreducible moduli, constant coefficient first
MODULI = {
    (3, 2): [(1, 0, 1), (2, 1, 1), (2, 2, 1)],
    (5, 2): [(2, 0, 1), (2, 1, 1)],
    (3, 3): [(1, 2, 0, 1), (2, 2, 0, 1)],
}


def _invariants(K):
    """The multiset of (k, verdict, nucleus dimensions, |Aut|) over the
    doublings of K by every unit c and every sigma = frobenius^k != id."""
    found = Counter()
    for k in range(1, K.n):
        for c in K.elements():
            if c.is_zero():
                continue
            D = DicksonAlgebra(K, FrobeniusAut(K, k), c)
            dims = tuple(sorted(compute_nuclei(D).dims.items()))
            found[k, division_decide(D).status, dims,
                  enumerate_automorphisms(D).order] += 1
    return found


@pytest.mark.parametrize("p, n", sorted(MODULI))
def test_field_presentation_keeps_doubling_invariants(p, n):
    first, *others = [_invariants(make_field(p, n, m)) for m in MODULI[p, n]]
    assert sum(first.values()) == (n - 1) * (p ** n - 1)
    for found in others:
        assert found == first
