"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Run under pytest as usual, or directly

    python3 tests/test_acceptance.py

to see the per-criterion lines (pytest shows them with -s).  Every check
is exact; the budgets below are wall-clock ceilings, not targets.
"""

import functools
import random
import sys
import time
from fractions import Fraction
from math import gcd

from dickson.analysis import (census, division_decide,
                              enumerate_automorphisms, group_structure,
                              subgroups, wene_inner_check)
from dickson.doubling import (DicksonAlgebra, compute_nuclei,
                              critical_constants, theorem_zero_divisor_witness,
                              zero_divisor_search)
from dickson.fields import FrobeniusAut, make_field
from dickson.padics import PadicContext, PadicQuadExt
from dickson.quadratic import QuadField
from dickson.quaternions import InnerAut, QuaternionAlgebra
from oracles import (automorphism_images, oracle_automorphisms,
                     random_nonzero, square_class)

_CRITERIA = []


def criterion(num, name, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                print("criterion %2d/10  %-34s FAIL  (%.1fs)"
                      % (num, name, time.monotonic() - t0))
                raise
            dt = time.monotonic() - t0
            if dt >= budget:
                print("criterion %2d/10  %-34s FAIL  (%.1fs over the %ds "
                      "budget)" % (num, name, dt, budget))
                raise AssertionError("%s exceeded its %ds budget: %.1fs"
                                     % (name, budget, dt))
            print("criterion %2d/10  %-34s PASS  (%.1fs, budget %ds)"
                  % (num, name, dt, budget))
        _CRITERIA.append(wrapper)
        return wrapper
    return deco


def _nonsquares(K):
    return [c for c in K.elements() if not c.is_zero() and not K.is_square(c)]


def _quat_setup():
    B = QuaternionAlgebra(2, 3)
    return B, InnerAut(B.element(0, 1, 0, 0))


@criterion(1, "finite-division-equivalence", 30)
def test_criterion_01_finite_division_equivalence():
    # exhaustive scan, critical-value membership and the square test must
    # coincide for every nonzero c over GF(9) and GF(25)
    for p, n in ((3, 2), (5, 2)):
        K = make_field(p, n)
        phi = FrobeniusAut(K, 1)
        crit = critical_constants(DicksonAlgebra(K, phi, K.one()))
        for c in K.elements():
            if c.is_zero():
                continue
            D = DicksonAlgebra(K, phi, c)
            status, pair = zero_divisor_search(D)
            has_zero_divisor = status == "witness"
            assert (c in crit) == has_zero_divisor
            assert K.is_square(c) == has_zero_divisor
            if has_zero_divisor:
                x, y = pair
                assert D.mul(x, y).is_zero()
                assert not x.is_zero() and not y.is_zero()


@criterion(2, "converse-witness-construction", 10)
def test_criterion_02_converse_witnesses():
    rng = random.Random(20260814)
    K = make_field(5, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.one())
    for _ in range(1000):
        r = random_nonzero(K, rng)
        s = random_nonzero(K, rng)
        t = random_nonzero(K, rng)
        pair, product = theorem_zero_divisor_witness(D, r, s, t)
        assert product == pair[0].alg.zero()
        assert not pair[0].is_zero() and not pair[1].is_zero()

    B, sigma = _quat_setup()

    def rand_invertible():
        while True:
            q = B.element(*[Fraction(rng.randint(-3, 3)) for _ in range(4)])
            if q.norm() != 0:
                return q

    for variant in ("left", "middle", "right"):
        Dq = DicksonAlgebra(B, sigma, B.element(0, 1, 0, 0), variant)
        for _ in range(200):
            r, s, t = (rand_invertible() for _ in range(3))
            pair, product = theorem_zero_divisor_witness(Dq, r, s, t)
            assert product == pair[0].alg.zero()
            assert not pair[0].is_zero() and not pair[1].is_zero()


@criterion(3, "nuclei-shapes", 10)
def test_criterion_03_nuclei():
    # finite coefficients: Fix(sigma) / K / Fix(sigma)
    for p, n in ((3, 2), (3, 3)):
        K = make_field(p, n)
        for k in range(1, n):
            sig = FrobeniusAut(K, k)
            g = gcd(k, n)
            for c in _nonsquares(K):
                rep = compute_nuclei(DicksonAlgebra(K, sig, c))
                assert rep.dims["left"] == g
                assert rep.dims["middle"] == n
                assert rep.dims["right"] == g
                for z in rep.left + rep.right:
                    assert z.v.is_zero() and sig(z.u) == z.u
                for z in rep.middle:
                    assert z.v.is_zero()

    # quaternion coefficients: the middle nucleus detects the variant
    B, sigma = _quat_setup()
    cs = [B.element(0, 1, 0, 0), B.element(0, 0, 1, 0),
          B.element(1, 0, 0, 1)]
    for c in cs:
        Dl = DicksonAlgebra(B, sigma, c, "left")
        Dm = DicksonAlgebra(B, sigma, c, "middle")
        nl, nm = compute_nuclei(Dl), compute_nuclei(Dm)
        assert nl.dims["middle"] == 4
        assert nm.dims["middle"] < 4
        for D, rep in ((Dl, nl), (Dm, nm)):
            basis = D.basis()
            for w in rep.left:
                assert all(D.associator(w, x, y).is_zero()
                           for x in basis for y in basis)
            for w in rep.middle:
                assert all(D.associator(x, w, y).is_zero()
                           for x in basis for y in basis)
            for w in rep.right:
                assert all(D.associator(x, y, w).is_zero()
                           for x in basis for y in basis)
            for w in rep.nucleus:
                assert all(D.associator(w, x, y).is_zero()
                           and D.associator(x, w, y).is_zero()
                           and D.associator(x, y, w).is_zero()
                           for x in basis for y in basis)


@criterion(4, "automorphism-count-and-oracle", 60)
def test_criterion_04_automorphism_counts():
    K9 = make_field(3, 2)
    for c in _nonsquares(K9):
        D = DicksonAlgebra(K9, FrobeniusAut(K9, 1), c)
        rep = enumerate_automorphisms(D)
        assert rep.order == 4
        assert sorted(automorphism_images(D, d) for d in rep.elements) \
            == oracle_automorphisms(D)

    K27 = make_field(3, 3)
    for k in (1, 2):
        for c in _nonsquares(K27):
            rep = enumerate_automorphisms(
                DicksonAlgebra(K27, FrobeniusAut(K27, k), c))
            assert rep.order == 6

    K25 = make_field(5, 2)
    for c in _nonsquares(K25):
        D = DicksonAlgebra(K25, FrobeniusAut(K25, 1), c)
        rep = enumerate_automorphisms(D)
        assert sorted(automorphism_images(D, d) for d in rep.elements) \
            == oracle_automorphisms(D)


@criterion(5, "group-structure-labeling", 10)
def test_criterion_05_group_structure():
    for p, n, ks in ((3, 2, (1,)), (3, 3, (1, 2)), (5, 2, (1,))):
        K = make_field(p, n)
        for k in ks:
            sig = FrobeniusAut(K, k)
            for c in _nonsquares(K):
                D = DicksonAlgebra(K, sig, c)
                rep = group_structure(D, enumerate_automorphisms(D))
                prods = rep.labeling["orbit_products_all"]
                assert len(prods) == rep.order
                assert all(s in ("+1", "-1") for s in prods)
                inter = subgroups(D).intersection
                if len(inter) % 2 == 1:
                    assert rep.structure == "yes"
                    assert "Z/%d x Z/2" % len(inter) in rep.structure_detail


@criterion(6, "finite-census", 300)
def test_criterion_06_census():
    rep = census(3, 2)
    assert rep.classes_excluding_id == 1
    assert rep.classes_including_id == 2
    rep = census(3, 3)
    assert rep.classes_excluding_id == 2
    assert rep.classes_including_id == 3


@criterion(7, "rational-examples", 1)
def test_criterion_07_rational_examples():
    Q = QuadField(2)
    assert division_decide(
        DicksonAlgebra(Q, "conjugate", Q.root())).status == "proved-division"
    for variant in ("commutative", "left", "middle", "right"):
        v = division_decide(
            DicksonAlgebra(Q, "conjugate", Q.element(2, 0), variant))
        assert v.status == "proved-not-division"
        x, y = v.witness
        assert DicksonAlgebra(Q, "conjugate", Q.element(2, 0),
                              variant).mul(x, y).is_zero()

    B, sigma = _quat_setup()
    c = B.element(0, 1, 1, 0)
    assert c.norm() == -5
    for variant in ("left", "middle", "right"):
        assert division_decide(DicksonAlgebra(B, sigma, c, variant)).status \
            == "proved-division"
    csq = B.element(2, 0, 0, 0)
    for variant in ("left", "middle", "right"):
        D = DicksonAlgebra(B, sigma, csq, variant)
        v = division_decide(D)
        assert v.status == "proved-not-division"
        x, y = v.witness
        assert D.mul(x, y).is_zero()


@criterion(8, "p-adic-instances", 5)
def test_criterion_08_padic():
    ctx = PadicContext(5)
    assert ctx.N == 32
    K = PadicQuadExt(ctx, "sqrt_p")
    assert division_decide(
        DicksonAlgebra(K, "conjugate", K.root())).status == "proved-division"

    labels = {square_class(ctx.from_fraction(v))
              for v in (1, 2, 5, 10)}
    assert labels == {"1", "u", "pi", "upi"}

    rng = random.Random(20260814)
    for kind in ("sqrt_p", "sqrt_u", "sqrt_up"):
        Kk = PadicQuadExt(ctx, kind)
        for _ in range(100):
            c = Kk.random_element(rng)
            D = DicksonAlgebra(Kk, "conjugate", c)
            sub = subgroups(D)
            assert [sub.labels[t] for t in sub.j_group] == ["id", "conjugate"]
            rep = enumerate_automorphisms(D)
            assert rep.order == 4 == 2 * len(sub.c_sigma)


@criterion(9, "inner-sigma-pair", 1)
def test_criterion_09_wene():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    fixed = wene_inner_check(DicksonAlgebra(K, phi, K.from_int(2)))
    assert fixed.sigma_fixes_c
    assert fixed.grouped_map_is_sigma_pair
    assert fixed.in_automorphism_group
    moved = wene_inner_check(DicksonAlgebra(K, phi, K.gen()))
    assert not moved.sigma_fixes_c
    assert not moved.grouped_map_is_sigma_pair
    assert fixed.consistent and moved.consistent


@criterion(10, "char-2-zero-divisors", 1)
def test_criterion_10_char2():
    K = make_field(2, 2)
    phi = FrobeniusAut(K, 1)
    for c in K.elements():
        if c.is_zero():
            continue
        D = DicksonAlgebra(K, phi, c)
        v = division_decide(D)
        assert v.status == "proved-not-division"
        x, y = v.witness
        assert D.mul(x, y).is_zero()


if __name__ == "__main__":
    failed = 0
    for check in _CRITERIA:
        try:
            check()
        except BaseException as exc:
            failed += 1
            print("  %s" % exc)
    sys.exit(1 if failed else 0)
