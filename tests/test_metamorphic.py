"""Metamorphic relations: the same algebra asked two ways must answer alike.

Base change.  For a quadratic extension Q_p(sqrt d) of Q_p whose radicand
d is an integer, Q(sqrt d) tensored with Q_p is Q_p(sqrt d), and a doubling
over Q(sqrt d) with c = x + y sqrt(d) becomes the doubling over Q_p(sqrt d)
with the same coordinates.  Its nuclei are kernels of one rational linear
system, read over Q or over Q_p, so their dimensions must agree.  The
program solves both on the rational system (doubling.rational_twin), so
the dimensions are checked against sympy nullspaces of associator systems
that tests/oracles.py multiplies out with its own product, at the
precisions N = 4, 8 and 16.  construct on the two doublings of a twin
pair must likewise pass on both or on neither.

Field presentation.  GF(p^n) under two moduli is one field, and a
doubling's invariants do not see how its elements are written.  Over
every unit c and every sigma != id, the multiset of (sigma exponent,
division verdict, nucleus dimensions, automorphism group order) must not
depend on the modulus.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from oracles import quadratic_doubling_nucleus_dims

from dickson.analysis import division_decide, enumerate_automorphisms
from dickson.cli import main
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


def _constants(rng):
    """Three literals x,y with small integer x and integer or fractional y,
    not both 0."""
    out = []
    for _ in range(3):
        x, y = 0, 0
        while not (x or y):
            x, y = rng.randrange(-9, 10), rng.randrange(-9, 10)
        out.append("%s,%s" % (x, rng.choice(
            [y, "%d/%d" % (y, rng.randrange(1, 4))])))
    return out


@pytest.mark.parametrize("rational, p, kind", TWINS)
@pytest.mark.parametrize("sigma", ["conjugate", "id"])
def test_base_change_keeps_nucleus_dimensions(rational, p, kind, sigma):
    rng = random.Random("%s %d %s %s" % (rational, p, kind, sigma))
    for c in _constants(rng):
        D = _doubling(rational, sigma, c)
        d = D.coeff.K.a
        want = quadratic_doubling_nucleus_dims(
            d, [Fraction(t) for t in c.split(",")], sigma == "conjugate")
        assert compute_nuclei(D).dims == want, c
        for N in (4, 8, 16):
            E = _doubling("qp(%d;%s;%d)" % (p, kind, N), sigma, c)
            assert E.coeff.K.d_int == d
            assert compute_nuclei(E).dims == want, (c, N)


# the precision question: "30:1,-30:1" is 5^30 + 5^-30 sqrt(2) over
# Q_5(sqrt 2), and its rational twin writes the integers out
FAULT = ("qp(5;sqrt_u;4)", "30:1,-30:1",
         "quad(2)", "%d,1/%d" % (5 ** 30, 5 ** 30))


@pytest.mark.parametrize("padic, c, rational, rational_c",
                         [("qp(%d;%s;%d)" % (p, kind, N), c, rational, c)
                          for (rational, p, kind), N, c in zip(
                              TWINS, (4, 8, 16, 4, 8, 16),
                              ("1,1", "2,-1/3", "-3,2", "1/2,5", "7,0",
                               "0,-2"))] + [FAULT])
def test_construct_on_twins_passes_on_both_or_neither(capsys, padic, c,
                                                      rational, rational_c):
    passed = []
    for coeff, literal in ((padic, c), (rational, rational_c)):
        assert main(["construct", "--coeff=" + coeff, "--sigma=conjugate",
                     "--c=" + literal, "--format=json"]) == 0
        passed.append(json.loads(capsys.readouterr().out)
                      ["result"]["all_passed"])
    assert passed[0] == passed[1]
    assert passed[0] is True


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
