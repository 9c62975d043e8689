import math
import random
from fractions import Fraction

import pytest

from dickson import doubling, linalg
from dickson.analysis import division_decide
from dickson.doubling import (DicksonAlgebra, compute_nuclei,
                              critical_constants, critical_value,
                              mul_by_constants, structure_constants,
                              theorem_zero_divisor_witness,
                              zero_divisor_search, _field_grid)
from dickson.fields import FrobeniusAut, make_field
from dickson.linalg import FpOps, QOps, kernel_basis
from dickson.padics import PadicOps
from dickson.parsing import algebra_from_document
from dickson.quadratic import QuadField
from dickson.quaternions import InnerAut, QuaternionAlgebra
from dickson.reports import DIVISION, NOT_DIVISION
from oracles import (critical_constants_sumset, doubled_subfield_check,
                     fixed_field, in_span, random_invertible, random_nonzero,
                     rref_loop, subalgebra_check)


# ---------------------------------------------------------------------------
# construction validation

def test_identity_sigma_needs_override():
    K = make_field(3, 2)
    with pytest.raises(ValueError):
        DicksonAlgebra(K, FrobeniusAut(K, 0), K.gen())
    D = DicksonAlgebra(K, FrobeniusAut(K, 0), K.gen(), allow_identity=True)
    assert D.sigma_is_id


def test_zero_c_rejected():
    K = make_field(3, 2)
    with pytest.raises(ValueError):
        DicksonAlgebra(K, FrobeniusAut(K, 1), K.zero())


def test_commutative_tag_needs_commutative_coefficients():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    with pytest.raises(ValueError):
        DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0), "commutative")
    D = DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0), "left")
    assert D.dim == 8


def test_unknown_variant_rejected():
    K = make_field(3, 2)
    with pytest.raises(ValueError):
        DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen(), "twisted")


# ---------------------------------------------------------------------------
# product laws

def test_adapters_keep_only_the_facts_of_their_kind():
    # automorphisms act, compose and print themselves; dimension, basis
    # and coordinates come from the element key on the base class, which
    # p-adic coefficients leave only for their own sort order
    interpreting = {"check_auto", "apply_auto", "auto_inverse", "auto_compose",
                    "auto_is_identity", "auto_label", "auto_order", "norm"}
    base = doubling._Coefficients
    adapters = [cls for cls in vars(doubling).values()
                if isinstance(cls, type) and issubclass(cls, base)]
    assert len(adapters) == 6
    for cls in adapters:
        own = set(vars(cls))
        assert not own & interpreting
        assert ({"dim", "basis", "coords"} <= own) == (cls is base)
        assert ("sort_key" in own) == (cls in (base, doubling.PadicCoefficients))
    assert not hasattr(DicksonAlgebra, "sigma_apply")


@pytest.mark.parametrize("doc", [
    {"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,1"},
    {"coeff": "quad(2)", "sigma": "conjugate", "c": "1,1"},
    {"coeff": "qp(5;sqrt_p)", "sigma": "conjugate", "c": "2"},
    {"coeff": "quat(2,3)", "sigma": "conjugation:0,1,0,0", "c": "0,1,1,0"},
    {"coeff": "quat(1,2;5)", "sigma": "id", "c": "2,0,0,0",
     "allow_identity": True},
])
def test_every_automorphism_carries_its_action(doc):
    D = algebra_from_document(doc)
    A = D.coeff
    auts = [D.sigma] + A.automorphisms(["id", D.sigma])
    if A.kind != "field":
        auts.append(A.automorphism("id"))
    for t in auts:
        assert callable(t) and isinstance(t.label, str)
        assert t.compose(t.inverse()).is_identity()
        for e in A.basis():
            assert t.inverse()(t(e)) == e
            assert t.compose(t)(e) == t(t(e))


def test_unit_and_adjoined_square():
    for variant in ("left", "middle", "right"):
        B = QuaternionAlgebra(2, 3)
        sigma = InnerAut(B.element(0, 1, 0, 0))
        D = DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0), variant)
        one = D.unit()
        lam = D.adjoined()
        assert D.mul(lam, lam) == D.element(D.c, D.coeff.zero())
        rng = random.Random(3)
        for _ in range(25):
            x = D.random_element(rng)
            assert D.mul(one, x) == x
            assert D.mul(x, one) == x


def test_distributivity_sampled_everywhere():
    algebras = []
    K = make_field(3, 2)
    algebras.append(DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen()))
    Q = QuadField(2)
    algebras.append(DicksonAlgebra(Q, "conjugate", Q.root()))
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    for variant in ("left", "middle", "right"):
        algebras.append(DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0),
                                       variant))
    rng = random.Random(9)
    for D in algebras:
        for _ in range(30):
            x, y, z = (D.random_element(rng) for _ in range(3))
            assert D.mul(x + y, z) == D.mul(x, z) + D.mul(y, z)
            assert D.mul(z, x + y) == D.mul(z, x) + D.mul(z, y)


def test_variants_coincide_over_commutative_coefficients():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    c = K.gen()
    Ds = [DicksonAlgebra(K, phi, c, v)
          for v in ("commutative", "left", "middle", "right")]
    for x in Ds[0].elements():
        for y in Ds[0].elements():
            ref = Ds[0].mul(x, y)
            for D in Ds[1:]:
                got = D.mul(D.element(x.u, x.v), D.element(y.u, y.v))
                assert got.u == ref.u and got.v == ref.v


def test_variants_differ_over_quaternions():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    c = B.element(0, 0, 1, 0)
    Dl = DicksonAlgebra(B, sigma, c, "left")
    Dm = DicksonAlgebra(B, sigma, c, "middle")
    Dr = DicksonAlgebra(B, sigma, c, "right")
    rng = random.Random(15)
    def pairs():
        for _ in range(200):
            x = Dl.random_element(rng)
            y = Dl.random_element(rng)
            yield x, y
    seen_lm = seen_lr = False
    for x, y in pairs():
        pl = Dl.mul(x, y)
        pm = Dm.mul(Dm.element(x.u, x.v), Dm.element(y.u, y.v))
        pr = Dr.mul(Dr.element(x.u, x.v), Dr.element(y.u, y.v))
        if not (pl.u == pm.u and pl.v == pm.v):
            seen_lm = True
        if not (pl.u == pr.u and pl.v == pr.v):
            seen_lr = True
    assert seen_lm and seen_lr


def test_commutative_doubling_is_commutative_but_not_associative():
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    D = DicksonAlgebra(K, phi, K.gen())
    elems = list(D.elements())
    for x in elems:
        for y in elems:
            assert D.mul(x, y) == D.mul(y, x)
    # [(0,1), (0,1), (k,0)] is nonzero whenever k moves under sigma
    lam = D.adjoined()
    k = K.gen()
    assert phi(k) != k
    emb = D.element(k, K.zero())
    assert not D.associator(lam, lam, emb).is_zero()
    fixed = D.element(K.from_int(2), K.zero())
    assert D.associator(lam, lam, fixed).is_zero()


# ---------------------------------------------------------------------------
# second product paths: structure constants and the index grid

def test_structure_constant_contraction_agrees():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    for x in D.elements():
        for y in D.elements():
            assert mul_by_constants(D, x, y) == D.mul(x, y)


@pytest.mark.parametrize("doc", [
    {"coeff": "quat(2,3)", "sigma": "conjugation:0,1,0,0", "c": "0,0,1,0",
     "variant": "middle"},
    {"coeff": "quad(2)", "sigma": "conjugate", "c": "3/2,-1/3"},
    {"coeff": "qp(5;sqrt_u;16)", "sigma": "conjugate", "c": "2,3"},
    {"coeff": "qp(3;sqrt_p;8)", "sigma": "conjugate", "c": "1/3,2"},
    {"coeff": "quat(2,3;5)", "sigma": "conjugation:1,1,0,0",
     "c": "1,2,4,3", "variant": "right"},
], ids=lambda doc: doc["coeff"])
def test_structure_constant_contraction_agrees_on_random_pairs(doc):
    D = algebra_from_document(doc)
    rng = random.Random(33)
    for _ in range(40):
        x, y = D.random_element(rng), D.random_element(rng)
        assert mul_by_constants(D, x, y) == D.mul(x, y)


@pytest.mark.parametrize("doc", [
    {"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,1"},
    {"coeff": "qp(5;sqrt_u;16)", "sigma": "conjugate", "c": "2,3"},
    {"coeff": "quat(2,3;5)", "sigma": "conjugation:1,1,0,0",
     "c": "1,2,4,3", "variant": "right"},
], ids=lambda doc: doc["coeff"])
def test_structure_constants_have_denominator_one_outside_q(doc):
    D = algebra_from_document(doc)
    P, den = structure_constants(D)
    _, products = doubling.basis_products(D)
    assert den == 1
    assert P == [[D.coords(z) for z in row] for row in products]


@pytest.mark.parametrize("doc", [
    {"coeff": "quad(2)", "sigma": "conjugate", "c": "3/2,-1/3"},
    {"coeff": "quat(1/2,-3/5)", "sigma": "conjugation:1,1/3,0,2",
     "c": "1/2,2,-1/3,3/4", "variant": "middle"},
], ids=lambda doc: doc["coeff"])
def test_structure_constants_over_q_are_ints_over_one_denominator(doc):
    D = algebra_from_document(doc)
    P, den = structure_constants(D)
    _, products = doubling.basis_products(D)
    coords = [t for row in products for z in row for t in D.coords(z)]
    assert den > 1 and den == math.lcm(*(t.denominator for t in coords))
    for P_i, products_i in zip(P, products):
        for row, z in zip(P_i, products_i):
            assert all(type(t) is int for t in row)
            assert [Fraction(t, den) for t in row] == D.coords(z)


def test_rational_constants_product_makes_no_scalar_op_calls(monkeypatch):
    docs = [{"coeff": "quad(2)", "sigma": "conjugate", "c": "3/2,-1/3"},
            {"coeff": "quat(1/2,-3/5)", "sigma": "conjugation:1,1/3,0,2",
             "c": "1/2,2,-1/3,3/4", "variant": "middle"}]
    algebras = [algebra_from_document(doc) for doc in docs]
    rng = random.Random(35)
    cases = [(D, D.random_element(rng), D.random_element(rng))
             for D in algebras]
    products = [D.mul(x, y) for D, x, y in cases]

    def refuse(*args):
        raise AssertionError("a QOps scalar call")
    for name in ("add", "sub", "neg", "mul", "inv", "is_zero"):
        monkeypatch.setattr(QOps, name, refuse)
    for (D, x, y), want in zip(cases, products):
        assert mul_by_constants(D, x, y) == want


def _refuse_fractions(monkeypatch):
    from dickson import quadratic, quaternions

    def refuse(*args):
        raise AssertionError("a Fraction was made")
    for module in (doubling, linalg, quadratic, quaternions):
        monkeypatch.setattr(module, "Fraction", refuse)


def test_rational_constants_product_makes_no_fraction(monkeypatch):
    """Over Q the contraction reads each element's integer key and builds
    the product from ints: no module it runs through makes a Fraction."""
    docs = [{"coeff": "quad(2)", "sigma": "conjugate", "c": "3/2,-1/3"},
            {"coeff": "quat(1/2,-3/5)", "sigma": "conjugation:1,1/3,0,2",
             "c": "1/2,2,-1/3,3/4", "variant": "right"}]
    rng = random.Random(36)
    cases = []
    for doc in docs:
        D = algebra_from_document(doc)
        x, y = D.random_element(rng), D.random_element(rng)
        mul_by_constants(D, x, y)    # the tensor and its sparse rows
        cases.append((D, x, y, D.mul(x, y)))
    _refuse_fractions(monkeypatch)
    for D, x, y, want in cases:
        assert mul_by_constants(D, x, y) == want


def test_rational_structure_constants_make_no_fraction(monkeypatch):
    """The tensor over Q is read off the basis products' integer keys."""
    docs = [{"coeff": "quad(2)", "sigma": "conjugate", "c": "3/2,-1/3"},
            {"coeff": "quat(1/2,-3/5)", "sigma": "conjugation:1,1/3,0,2",
             "c": "1/2,2,-1/3,3/4", "variant": "middle"}]
    algebras = [algebra_from_document(doc) for doc in docs]
    for D in algebras:
        doubling.basis_products(D)
    _refuse_fractions(monkeypatch)
    for D in algebras:
        P, den = structure_constants(D)
        assert den > 1 and type(P[0][0][0]) is int


def test_padic_constants_product_reads_no_base_ops(monkeypatch):
    D = algebra_from_document({"coeff": "qp(5;sqrt_u;16)",
                               "sigma": "conjugate", "c": "2,3"})
    rng = random.Random(37)
    cases = [(x, y, D.mul(x, y)) for x, y in
             ((D.random_element(rng), D.random_element(rng))
              for _ in range(20))]
    cases.append((D.zero(), D.unit(), D.zero()))

    def refuse(self):
        raise AssertionError("base_ops was read")
    # Q_p coefficients have no base_ops left to replace: a refusing one
    # is added for the test
    monkeypatch.setattr(doubling.PadicCoefficients, "base_ops", refuse,
                        raising=False)
    for x, y, want in cases:
        assert mul_by_constants(D, x, y) == want


def test_product_grid_reproduces_products_exactly():
    """The oracle's index table must agree with the direct product on
    every ordered pair, for every variant tag."""
    K = make_field(3, 2)
    phi = FrobeniusAut(K, 1)
    for variant in ("commutative", "middle", "right"):
        D = DicksonAlgebra(K, phi, K.gen(), variant)
        grid = _field_grid(D)
        for i, x in enumerate(D.elements()):
            for j, y in enumerate(D.elements()):
                assert grid[i][j] == D.element_index(D.mul(x, y))


# ---------------------------------------------------------------------------
# zero-divisor search

def test_search_finds_nothing_for_nonsquare_c():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    status, pair = zero_divisor_search(D)
    assert status == "none" and pair is None


def test_search_witness_for_square_c_is_lex_first_and_real():
    K = make_field(3, 2)
    c = K.gen() * K.gen()
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), c)
    status, pair = zero_divisor_search(D)
    assert status == "witness"
    x, y = pair
    assert not x.is_zero() and not y.is_zero()
    assert D.mul(x, y).is_zero()
    # nothing earlier in the element order annihilates
    idx = D.element_index(x)
    for i in range(idx):
        a = D.element_at(i)
        if a.is_zero():
            continue
        for b in D.elements():
            if not b.is_zero():
                assert not D.mul(a, b).is_zero()


@pytest.mark.parametrize("p, n, sample", [
    (2, 2, None), (2, 3, None), (3, 2, None), (5, 2, 3), (3, 3, 3)])
def test_rank_test_returns_the_grid_first_pair(p, n, sample):
    """The witness of the rank test is the first hit of the full pair grid
    in row-major order, and "none" comes exactly when the grid has no
    hit: every unit c (a seeded sample of them over GF(25) and GF(27)),
    every sigma including the identity, and the three variants."""
    K = make_field(p, n)
    units = [c for c in K.elements() if not c.is_zero()]
    if sample:
        units = random.Random(p ** n).sample(units, sample)
    for k in range(n):
        for c in units:
            for variant in ("left", "middle", "right"):
                D = DicksonAlgebra(K, FrobeniusAut(K, k), c, variant,
                                   allow_identity=True)
                grid = _field_grid(D)
                hit = next(((i, j) for i, row in enumerate(grid) if i
                            for j, z in enumerate(row) if j and z == 0),
                           None)
                status, pair = zero_divisor_search(D)
                if hit is None:
                    assert (status, pair) == ("none", None)
                    continue
                assert status == "witness"
                assert (D.element_index(pair[0]),
                        D.element_index(pair[1])) == hit


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3)])
def test_rank_test_finds_the_first_singular_left_multiplication(p, n,
                                                                 monkeypatch):
    """Against the definition, for every sigma (the identity included) and
    every unit c: walking every nonzero x in index order, the first whose
    full matrix L_x of left multiplication (columns the coordinates of
    x e_j, from D.mul) has rank below 2n by linalg.rank, through the list
    elimination, is the x the rank test returns, with rows L_x mod p; and
    it returns None exactly when there is no such x."""
    monkeypatch.setattr(linalg, "rref", rref_loop)
    K = make_field(p, n)
    ops = FpOps(p)
    for k in range(n):
        for c in K.elements():
            if c.is_zero():
                continue
            D = DicksonAlgebra(K, FrobeniusAut(K, k), c, allow_identity=True)
            m = D.dim
            basis = D.basis()
            # by_basis[i][r * m + j]: the coordinate r of e_i e_j
            by_basis = [[t for row in zip(*(D.coords(D.mul(a, b))
                                            for b in basis)) for t in row]
                        for a in basis]
            want = None
            for t in range(1, D.size()):
                x = D.coords(D.element_at(t))
                flat = [0] * (m * m)
                for xi, e in zip(x, by_basis):
                    flat = [u + xi * v for u, v in zip(flat, e)]
                L = [[v % p for v in flat[r * m:(r + 1) * m]] for r in range(m)]
                if linalg.rank(L, ops) < m:
                    want = (tuple(x), L)
                    break
            got = doubling._first_singular_left_factor(D)
            assert (got if got is None else (tuple(got[0]), got[1])) == want


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_rank_test_lanes_hold_every_partial_sum(p, n, monkeypatch):
    """The layout the rank test packs L_x with has room for the largest
    lane any sum of l * T_i (l in range(p)) can reach, for every c."""
    layouts = []

    def spy(*args):
        layouts.append(linalg.packed_layout(*args))
        return layouts[-1]

    monkeypatch.setattr(doubling, "packed_layout", spy)
    K = make_field(p, n)
    for c in K.elements():
        if c.is_zero():
            continue
        D = DicksonAlgebra(K, FrobeniusAut(K, 1), c)
        doubling._first_singular_left_factor(D)
        P, _ = structure_constants(D)
        m = D.dim
        largest = max(sum((p - 1) * P[i][j][r] for i in range(m))
                      for j in range(m) for r in range(m))
        assert largest <= layouts[-1].lane


def test_element_at_refuses_indices_outside_the_doubling():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    assert D.element_index(D.element_at(80)) == 80
    for bad in (81, 90, -1):
        with pytest.raises(ValueError):
            D.element_at(bad)


def test_search_cap_counts_left_factors():
    # GF(31^2) doubled has 923,521 left factors, under the cap of 10^6,
    # though its ordered pairs are far over it
    K = make_field(31, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    assert D.size() == 923521
    assert zero_divisor_search(D) == ("none", None)


def test_search_cap_refuses_large_exhaustive(monkeypatch):
    # GF(1009) doubled has 1,018,081 left factors: refused before any walk
    def walk(D):
        raise AssertionError("the search walked over the cap")

    monkeypatch.setattr(doubling, "_first_singular_left_factor", walk)
    K = make_field(1009, 1)
    D = DicksonAlgebra(K, FrobeniusAut(K, 0), K.gen(), allow_identity=True)
    with pytest.raises(ValueError, match="1018081 left factors, over the "
                       r"cap of 10\^6"):
        zero_divisor_search(D)


def test_search_infinite_square_c_constructive():
    Q = QuadField(2)
    D = DicksonAlgebra(Q, "conjugate", Q.element(2, 0))
    verdict = division_decide(D)
    assert verdict.status == NOT_DIVISION
    assert D.mul(*verdict.witness).is_zero()


def test_search_infinite_inconclusive_without_square_root():
    Q = QuadField(2)
    D = DicksonAlgebra(Q, "conjugate", Q.root())
    verdict = division_decide(D)
    assert verdict.status == DIVISION and verdict.witness is None
    # the exhaustive search is for GF(p^n) coefficients only
    with pytest.raises(ValueError, match="needs GF"):
        zero_divisor_search(D)


def test_search_over_split_rational_quaternions_finds_the_norm_zero_pair():
    # c = j has no square root, but (1, 1 | Q) splits, so the pair comes
    # from a norm-zero coefficient
    D = algebra_from_document({"coeff": "quat(1,1)",
                               "sigma": "conjugation:0,1,0,0",
                               "c": "0,0,1,0", "variant": "left"})
    verdict = division_decide(D)
    assert verdict.status == NOT_DIVISION
    x, y = verdict.witness
    assert not x.is_zero() and not y.is_zero()
    assert D.mul(x, y).is_zero()


# ---------------------------------------------------------------------------
# critical values and the constructed witnesses

def test_search_over_every_finite_quaternion_algebra_finds_a_pair():
    # a quaternary norm form over GF(p) is isotropic, so every quat(a,b;p)
    # has a norm-zero pair and the verdict always carries a witness
    for p in (3, 5, 7):
        for a in range(1, p):
            for b in range(1, p):
                B = QuaternionAlgebra(a, b, p=p)
                z, w = B.find_zero_divisor()
                assert not z.is_zero() and not w.is_zero()
                assert (z * w).is_zero()
                D = DicksonAlgebra(B, InnerAut(B.element(0, 1, 0, 0)),
                                   B.one(), "left")
                verdict = division_decide(D)
                assert verdict.status == NOT_DIVISION
                x, y = verdict.witness
                assert not x.is_zero() and not y.is_zero()
                assert D.mul(x, y).is_zero()


def test_critical_set_equals_squares_for_frobenius_gf9():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    crit = critical_constants(D)
    squares = {K.element_index(z * z) for z in K.elements()
               if not z.is_zero()}
    assert {K.element_index(c) for c in crit} == squares


def _prime_powers(bound):
    for p in range(2, bound + 1):
        if all(p % d for d in range(2, p)):
            n = 1
            while p ** n <= bound:
                yield p, n
                n += 1


def test_critical_set_closed_form_matches_the_sumset():
    # every field with at most 125 elements, GF(2^n) included, and every
    # Frobenius power on it
    fields = list(_prime_powers(125))
    assert (2, 6) in fields and (5, 3) in fields and (113, 1) in fields
    for p, n in fields:
        K = make_field(p, n)
        for k in range(n):
            D = DicksonAlgebra(K, FrobeniusAut(K, k), K.one(),
                               allow_identity=True)
            assert critical_constants(D) == critical_constants_sumset(D), \
                (p, n, k)


def test_critical_value_formula_commutative():
    K = make_field(5, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    rng = random.Random(12)
    for _ in range(20):
        r = random_nonzero(K, rng)
        s = random_nonzero(K, rng)
        t = random_nonzero(K, rng)
        phi = FrobeniusAut(K, 1)
        expected = (r * r) * s * phi(s).inv() * t.inv() * phi(t).inv()
        assert critical_value(D, r, s, t) == expected


def test_theorem_witness_annihilates_on_matching_c():
    K = make_field(5, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    rng = random.Random(13)
    for _ in range(50):
        r, s, t = (random_nonzero(K, rng) for _ in range(3))
        pair, product = theorem_zero_divisor_witness(D, r, s, t)
        assert product.is_zero()
        Dc = pair[0].alg
        assert Dc.c == critical_value(D, r, s, t)
        assert not pair[0].is_zero() and not pair[1].is_zero()


def test_theorem_witness_quaternion_variants():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    rng = random.Random(14)
    for variant in ("left", "middle", "right"):
        D = DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0), variant)
        for _ in range(20):
            r = random_invertible(B, rng)
            s = random_invertible(B, rng)
            t = random_invertible(B, rng)
            pair, product = theorem_zero_divisor_witness(D, r, s, t)
            assert product.is_zero()


def test_noninvertible_triple_rejected():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    with pytest.raises(ValueError):
        critical_value(D, K.zero(), K.one(), K.one())


# ---------------------------------------------------------------------------
# nuclei

def test_nuclei_gf9_dimensions_and_membership():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    rep = compute_nuclei(D)
    assert rep.dims == {"left": 1, "middle": 2, "right": 1,
                        "nucleus": 1, "commuter": 4, "center": 1}
    elems = list(D.elements())
    for w in rep.left:
        for x in elems:
            for y in elems:
                assert D.associator(w, x, y).is_zero()
    for w in rep.middle:
        for x in elems:
            for y in elems:
                assert D.associator(x, w, y).is_zero()


def test_nuclei_quaternion_left_variant():
    B = QuaternionAlgebra(2, 3)
    sigma = InnerAut(B.element(0, 1, 0, 0))
    D = DicksonAlgebra(B, sigma, B.element(0, 0, 1, 0), "left")
    rep = compute_nuclei(D)
    assert rep.dims["middle"] == 4
    assert rep.dims["right"] == 2
    rng = random.Random(18)
    for w in rep.middle:
        for _ in range(15):
            x, y = D.random_element(rng), D.random_element(rng)
            assert D.associator(x, w, y).is_zero()


def _nuclei_from_products(D):
    """The six nucleus bases from D.associator and D.commutator on basis
    elements, without the structure tensor: for each pair of fixed basis
    elements, one row per coordinate, one column per basis element in the
    unknown's slot.  Over Q_p the kernels come from the reference
    elimination of oracles.py, since linalg.rref solves no system there."""
    basis = D.basis()
    n = len(basis)
    padic = D.coeff.kind == "padic"
    ops = PadicOps(D.coeff.K.ctx) if padic else D.coeff.base_ops()

    def rows(product):
        return [list(row) for j in range(n) for k in range(n)
                for row in zip(*(D.coords(product(basis[i], basis[j],
                                                  basis[k]))
                                 for i in range(n)))]

    left = rows(lambda w, x, y: D.associator(w, x, y))
    middle = rows(lambda w, x, y: D.associator(x, w, y))
    right = rows(lambda w, x, y: D.associator(x, y, w))
    comm = [list(row) for j in range(n)
            for row in zip(*(D.coords(D.commutator(w, basis[j]))
                             for w in basis))]

    def kernel(system):
        with pytest.MonkeyPatch.context() as mp:
            if padic:
                mp.setattr(linalg, "rref", rref_loop)
            return [D.from_coords(v).literal()
                    for v in kernel_basis(system, n, ops)]

    return {"left": kernel(left), "middle": kernel(middle),
            "right": kernel(right), "nucleus": kernel(left + middle + right),
            "commuter": kernel(comm),
            "center": kernel(left + middle + right + comm)}


@pytest.mark.parametrize("doc", [
    {"coeff": "gf(3,2)", "sigma": "frobenius:1", "c": "0,1"},
    {"coeff": "quad(2)", "sigma": "conjugate", "c": "3,1"},
    {"coeff": "quat(-1,-1)", "sigma": "conjugation:1,1,0,0",
     "c": "1,2,-1,3", "variant": "left"},
    {"coeff": "quat(-1,-1)", "sigma": "conjugation:1,1,0,0",
     "c": "1,2,-1,3", "variant": "middle"},
    {"coeff": "quat(-1,-1)", "sigma": "conjugation:1,1,0,0",
     "c": "1,2,-1,3", "variant": "right"},
    {"coeff": "qp(5;sqrt_u;16)", "sigma": "conjugate", "c": "2,3"},
    {"coeff": "qp(7;sqrt_up;16)", "sigma": "conjugate", "c": "1/7,3"},
    {"coeff": "quat(2,3;5)", "sigma": "conjugation:1,1,0,0",
     "c": "1,2,4,3", "variant": "middle"},
    {"coeff": "quat(1/2,-3/5)", "sigma": "conjugation:1,1/3,0,2",
     "c": "1/2,2,-1/3,3/4", "variant": "middle"},
])
def test_nuclei_match_systems_built_from_products(doc):
    D = algebra_from_document(doc)
    report = compute_nuclei(D)
    direct = _nuclei_from_products(D)
    if D.coeff.kind == "padic":
        # bounded precision: the two routes may pivot differently
        assert report.dims == {k: len(v) for k, v in direct.items()}
    else:
        assert report.literals == direct


def test_constants_and_nuclei_are_computed_once_per_doubling(monkeypatch):
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    report = compute_nuclei(D)
    calls = []
    monkeypatch.setattr(D, "mul", lambda x, y: calls.append(1))
    assert compute_nuclei(D) is report
    assert structure_constants(D) is structure_constants(D)
    assert not calls


def test_nucleus_contains_unit_always():
    Q = QuadField(2)
    D = DicksonAlgebra(Q, "conjugate", Q.root())
    rep = compute_nuclei(D)
    ops = D.coeff.base_ops()
    one = D.coords(D.unit())
    assert in_span([D.coords(v) for v in rep.nucleus], one, ops)


# ---------------------------------------------------------------------------
# subalgebra checks

def test_coefficient_copy_is_a_subalgebra():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    emb = [D.element(b, K.zero()) for b in D.coeff.basis()]
    closed, failures = subalgebra_check(D, emb)
    assert closed and failures == []


def test_random_spans_usually_escape():
    K = make_field(3, 2)
    D = DicksonAlgebra(K, FrobeniusAut(K, 1), K.gen())
    lam = D.adjoined()
    one = D.unit()
    closed, failures = subalgebra_check(D, [one, lam])
    # lambda^2 = (c,0) with c outside GF(3), so the pair cannot close
    assert not closed
    assert failures


def test_doubled_subfield_check_intermediate_field():
    # GF(81) under its degree-4 Frobenius: the intermediate subfield GF(9)
    # is stable (not fixed) and doubles inside D to the plain commutative
    # doubling of GF(9) whenever c lies in it
    K = make_field(3, 4)
    phi = FrobeniusAut(K, 1)
    _, basis = fixed_field(FrobeniusAut(K, 2))
    assert len(basis) == 2
    c = next(b for b in basis if phi(b) != b)
    D = DicksonAlgebra(K, phi, c)
    out = doubled_subfield_check(D, basis)
    assert out == {
        "k_closed": True,
        "k_commutative": True,
        "sigma_stable": True,
        "c_in_k": True,
        "doubled_closed": True,
        "induced_is_commutative_doubling": True,
    }


def test_doubled_subfield_check_flags_c_outside():
    K = make_field(3, 4)
    phi = FrobeniusAut(K, 1)
    _, basis = fixed_field(FrobeniusAut(K, 2))
    outside = next(e for e in K.elements()
                   if not e.is_zero() and FrobeniusAut(K, 2)(e) != e)
    D = DicksonAlgebra(K, phi, outside)
    out = doubled_subfield_check(D, basis)
    assert out["k_closed"] and out["sigma_stable"]
    assert not out["c_in_k"]
