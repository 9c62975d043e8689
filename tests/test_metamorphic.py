"""Metamorphic relations: the same algebra asked two ways must answer alike.

Base change.  For a quadratic extension Q_p(sqrt d) of Q_p whose radicand
d is an integer, Q(sqrt d) tensored with Q_p is Q_p(sqrt d), and a doubling
over Q(sqrt d) with c = x + y sqrt(d) becomes the doubling over Q_p(sqrt d)
with the same coordinates.  Its nuclei are kernels of one rational linear
system, read over Q or over Q_p, so their dimensions must agree.  Over Q
the system is eliminated exactly; over Q_p it goes through the p-adic
arithmetic at a bounded precision N, so the relation checks that route.
"""

import random

import pytest

from dickson.doubling import compute_nuclei
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
