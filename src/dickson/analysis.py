"""Division verdicts, automorphism groups and isomorphism tests for
doubled algebras.

The guiding rule: every positive claim is re-verified on the spot by
direct computation (witness pairs are multiplied out, automorphism
candidates are checked on a full basis) and anything the implemented
criteria cannot settle is reported as "unknown" or "undetermined", never
guessed.

Automorphisms of D = B + B are represented as pairs (tau, b) acting by
(u, v) -> (tau(u), tau(v) * b) where tau is an automorphism of the
coefficient algebra and b a coefficient element.
"""

from dataclasses import replace

from .doubling import (DicksonAlgebra, FieldCoefficients, _critical_pair,
                       _norm_zero_pair, _quat_is_split, compute_nuclei,
                       critical_constants, zero_divisor_search)
from .fields import TABLE_BOUND, FrobeniusAut, make_field
from .linalg import kernel_basis, solve
from .padics import padic_is_square
from .quadratic import (find_norm_preimage, is_norm_from_quadfield,
                        rational_is_square, rational_sqrt)
from .reports import (DIVISION, NOT_DIVISION, UNKNOWN, AutGroupReport,
                      CensusReport, DivisionVerdict, IsoVerdict,
                      SubgroupReport, WeneReport, certify)


def _pair_literal(pair):
    return [pair[0].literal(), pair[1].literal()]


# ---------------------------------------------------------------------------
# division


def _division_finite(D):
    """The exhaustive rank test of zero_divisor_search (every left factor,
    so every ordered pair), cross-checked against the critical-value set
    and, in odd characteristic, against the quadratic character of c; in
    characteristic 2, where every c is a square, the scan must find zero
    divisors.  The checks must agree, and the notes name the ones made.
    The critical set comes first: it needs the index tables, so a field
    above fields.TABLE_BOUND is refused before the walk."""
    K = D.coeff.K
    in_crit = D.c in critical_constants(D)
    status, pair = zero_divisor_search(D)
    certify(in_crit == (status == "witness"),
            "the scan and the critical-value set agree")
    if K.p != 2:
        certify(K.is_square(D.c) == (status == "witness"),
                "the scan and the quadratic character agree")
        agree = "critical-value set and quadratic character agree"
    else:
        certify(status == "witness",
                "the scan finds zero divisors in characteristic 2")
        agree = ("critical-value set agrees; no quadratic-character test "
                 "in characteristic 2")
    if status == "witness":
        return DivisionVerdict(
            NOT_DIVISION, method="exhaustive-scan",
            witness=pair, witness_literal=_pair_literal(pair),
            notes="lexicographically first annihilating pair; " + agree)
    return DivisionVerdict(
        DIVISION, method="exhaustive-scan",
        notes="no annihilating pair among all %d ordered pairs; %s"
              % (D.size() ** 2, agree))


def _norm_preimage_pair(D, nu):
    """Over Q(sqrt a) with c = nu * w, N(w) = 1 and nu a norm: the pair of
    the critical triple (nu, y, t) with w = y / conj(y) (Hilbert 90) and
    N(t) = nu, or None when the bounded preimage search misses."""
    K = D.coeff.K
    t = find_norm_preimage(K, nu)
    if t is None:
        return None
    w = D.c * K.element(1 / nu, 0)
    y = K.root() if w == K.element(-1, 0) else K.one() + w
    return _critical_pair(D, K.element(nu, 0), y, t)


_ID_SQUARE = ("square-root-witness", "sigma is the identity and c is a square")
_ID_FIELD = ("irreducible-quadratic", "sigma is the identity and c is not a "
             "square, so the doubling is the field B(sqrt(c))")

# The method and notes of each outcome of division_decide, per coefficient
# kind; the notes are %-formatted with the facts the deciding step found.
_DIVISION_ANSWERS = {
    "quad": {
        "id-square": _ID_SQUARE,
        "id-nonsquare": _ID_FIELD,
        "norm": ("norm-criterion", "N(c) = %(n)s is not a rational square"),
        "no-norm": ("norm-criterion", "neither square root of N(c) = %(n)s "
                    "is a norm from %(K)r"),
        "not-division": ("norm-criterion",
                         "N(c) = %(s)s^2 and %(nu)s is a norm"),
    },
    "padic": {
        "id-square": _ID_SQUARE,
        "id-nonsquare": _ID_FIELD,
        "norm": ("norm-criterion", "the norm of c down to Q_p is not a "
                 "square, so c misses every critical value (those have "
                 "square norm)"),
        "not-division": ("square-root-witness", ""),
        "nonsquare": ("norm-criterion", "the norm of c is a square but c "
                      "itself is not; the sufficient tests implemented here "
                      "do not decide this case"),
    },
    "quat": {
        "split-finite": ("split-coefficients",
                         "finite quaternion algebras always split"),
        "split": ("split-coefficients", "the coefficient algebra splits "
                  "(Hilbert symbols all +1)"),
        "split-unfound": ("split-coefficients", "the coefficient algebra "
                          "splits (Hilbert symbols), though no small "
                          "norm-zero element was found by the bounded "
                          "search"),
        "id-square": _ID_SQUARE,
        "id-nonsquare": ("square-criterion", "sigma is the identity, so the "
                         "critical values are the squares of the division "
                         "algebra B, and c is not a square"),
        "id-undecided": ("square-criterion", "sigma is the identity and "
                         "squareness of c itself was not decided (central "
                         "case without a certificate)"),
        "norm": ("norm-criterion", "coefficients are a division algebra and "
                 "the reduced norm of c is not a rational square, so c "
                 "misses every critical value (those have square reduced "
                 "norm)"),
        "not-division": ("square-root-witness", ""),
        "nonsquare": ("norm-criterion", "the reduced norm of c is a square "
                      "but c has no square root in the coefficients; not "
                      "decided by the implemented criteria"),
        "undecided": ("norm-criterion", "the reduced norm of c is a square "
                      "and squareness of c itself was not decided (central "
                      "case without a certificate)"),
    },
}


def division_decide(D):
    """Three-valued division verdict with method and witness.

    GF(p^n) coefficients are searched exhaustively.  Every other kind runs
    the division theorem's criteria in one ordered pass; from step 2 on the
    coefficients are a division algebra, so D has zero divisors exactly
    when c is a critical value c(r, s, t):
      1. split quaternion coefficients give a norm-zero pair;
      2. sigma = id: the critical values are the squares of B;
      3. every critical value has a square norm;
      4. over Q(sqrt a), N(c) = s^2 with neither s nor -s a norm proves
         division (the converse holds there too);
      5. a witness is the theorem pair of a critical triple, (sqrt c, 1, 1)
         or over Q(sqrt a) the triple from a norm preimage;
      6. anything else is unknown.
    """
    A = D.coeff
    if A.kind == "field":
        return _division_finite(D)
    answers = _DIVISION_ANSWERS[A.kind]

    def answer(status, outcome, pair=None, **facts):
        method, notes = answers[outcome]
        return DivisionVerdict(
            status, method=method, notes=notes % facts, witness=pair,
            witness_literal=None if pair is None else _pair_literal(pair))

    if A.kind == "quat" and _quat_is_split(A.B):
        pair = _norm_zero_pair(D)
        outcome = ("split-finite" if A.is_finite()
                   else "split-unfound" if pair is None else "split")
        return answer(NOT_DIVISION, outcome, pair)
    if D.sigma_is_id:
        ok, root = A.is_square(D.c)
        if ok:
            return answer(NOT_DIVISION, "id-square",
                          _critical_pair(D, root, A.one(), A.one()))
        if ok is None:
            return answer(UNKNOWN, "id-undecided")
        return answer(DIVISION, "id-nonsquare")
    n = D.c.norm()
    if not (padic_is_square(n) if A.kind == "padic"
            else rational_is_square(n)):
        return answer(DIVISION, "norm", n=n)
    facts = {}
    if A.kind == "quad":
        s = rational_sqrt(n)
        hits = [nu for nu in (s, -s) if is_norm_from_quadfield(nu, A.K)]
        if not hits:
            return answer(DIVISION, "no-norm", n=n, K=A.K)
        facts = {"s": s, "nu": hits[0]}
    ok, root = A.is_square(D.c)
    if ok:
        return answer(NOT_DIVISION, "not-division",
                      _critical_pair(D, root, A.one(), A.one()), **facts)
    if A.kind == "quad":
        return answer(NOT_DIVISION, "not-division",
                      _norm_preimage_pair(D, hits[0]), **facts)
    return answer(UNKNOWN, "nonsquare" if ok is False else "undecided")


# ---------------------------------------------------------------------------
# tau-level helpers (automorphisms of the coefficient algebra)


def _intertwines(D1, D2, tau):
    """tau after sigma1 equals sigma2 after tau, on a basis."""
    return all(tau(D1.sigma(e)) == D2.sigma(tau(e)) for e in D2.coeff.basis())


def _c_ratio(D1, D2, tau):
    """tau(c1) / c2: (u,v) -> (tau(u), tau(v) b) takes D1 onto D2 only when
    b is a root of it (sigma2(b)^2, or b^2 with b central)."""
    return tau(D1.c) * D2.c.inv()


def _j_member(D, tau):
    """tau is in J(c) when tau(c)/c is a square (of the right central kind
    for quaternion coefficients)."""
    return D.coeff.square_root(_c_ratio(D, D, tau)) is not None


def _closure_ok(group):
    members = set(group)
    return all(t1.compose(t2) in members for t1 in group for t2 in group) \
        and all(t.inverse() in members for t in group)


def subgroups(D, taus=None):
    """J(c), C(sigma), their intersection and the isotropy group of c,
    inside Aut_F(B).  For quaternion coefficients the ambient list is
    witness-relative: it is whatever conjugations the caller supplies
    (the identity is always added)."""
    A = D.coeff
    auts = A.automorphisms(taus)
    j = [t for t in auts if _j_member(D, t)]
    csig = [t for t in auts if _intertwines(D, D, t)]
    inter = [t for t in j if t in csig]
    iso = [t for t in auts if t(D.c) == D.c]
    closure = all(_closure_ok(g) for g in (j, csig, inter, iso))
    labels = {t: t.label for t in auts}
    return SubgroupReport(auts, j, csig, inter, iso, labels, closure)


# ---------------------------------------------------------------------------
# automorphisms of the doubling


def apply_automorphism(D, desc, z):
    tau, b = desc
    return D.element(tau(z.u), tau(z.v) * b)


def compose_descriptors(D, d1, d2):
    """d1 after d2."""
    return (d1[0].compose(d2[0]), d1[0](d2[1]) * d1[1])


def _map_failure(D1, D2, desc):
    """Why (u,v) -> (tau(u), tau(v) b) is not an isomorphism D1 -> D2
    (unital, multiplicative on a full basis, bijective), or None."""
    basis = D1.basis()
    if apply_automorphism(D2, desc, D1.unit()) != D2.unit():
        return "candidate does not fix the unit"
    images = [apply_automorphism(D2, desc, e) for e in basis]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            lhs = apply_automorphism(D2, desc, D1.mul(x, y))
            rhs = D2.mul(images[i], images[j])
            if lhs != rhs:
                return ("candidate is not multiplicative on basis pair "
                        "(%d, %d)" % (i, j))
    ops = D2.coeff.base_ops()
    rows = list(zip(*(D2.coords(im) for im in images)))
    if kernel_basis(rows, D2.dim, ops):
        return "candidate is not bijective"
    return None


def verify_automorphism(D, desc):
    """Unital, multiplicative on a full basis, and bijective; raises on
    failure."""
    failure = _map_failure(D, D, desc)
    if failure is not None:
        raise AssertionError(failure)
    return True


def _b_candidates(D1, D2, tau):
    """Every b for which (tau, b) can map D1 onto D2, in the order the
    coefficient kind reports them."""
    return D2.coeff.b_candidates(_c_ratio(D1, D2, tau), D2.sigma)


def enumerate_automorphisms(D, taus=None):
    """All automorphisms of the doubled shape (tau, b), each re-verified.

    Finite field, quadratic and p-adic coefficients: the list is complete
    and has order exactly 2 |J(c) and C(sigma)|.  Quaternion coefficients:
    complete relative to the supplied conjugation witnesses only.  The
    report keeps the SubgroupReport it was built from.
    """
    A = D.coeff
    if A.kind == "field" and A.K.p == 2:
        raise ValueError("automorphism enumeration expects odd characteristic")
    sub = subgroups(D, taus)
    elements = [(tau, b) for tau in sub.intersection
                for b in sorted(_b_candidates(D, D, tau), key=A.sort_key)]
    for desc in elements:
        verify_automorphism(D, desc)
    order = len(elements)
    certify(order == 2 * len(sub.intersection),
            "the order is 2 |J and C|, not %d" % order)
    # descriptors are tuples of hashable parts, so each product is found by
    # lookup; a product outside the list (witness-relative taus) is None
    index = {}
    for k, desc in enumerate(elements):
        index.setdefault(desc, k)
    table = [[index.get(compose_descriptors(D, d1, d2)) for d2 in elements]
             for d1 in elements]
    complete = not A.witness_relative and all(None not in row for row in table)
    labels = [{"tau": t.label, "b": b.literal()} for t, b in elements]
    return AutGroupReport(elements, labels, order, table, "undetermined",
                          "not analyzed", None, complete, sub)


def _table_identity(table):
    n = len(table)
    e = next((e for e in range(n) if all(table[e][j] == j for j in range(n))),
             None)
    certify(e is not None, "the composition table has an identity")
    return e


def _element_orders(table):
    n = len(table)
    e = _table_identity(table)
    orders = []
    for i in range(n):
        cur, k = i, 1
        while cur != e and k < n:
            cur = table[cur][i]
            k += 1
        certify(cur == e, "the powers of each element return to the identity")
        orders.append(k)
    return orders


def _orbit_product(D, tau, b):
    """b * tau(b) * tau^2(b) * ... over the full tau-orbit; always +1 or -1
    when (tau, b) is an automorphism descriptor."""
    acc = D.coeff.one()
    cur = b
    for _ in range(tau.order()):
        acc = acc * cur
        cur = tau(cur)
    return acc


def group_structure(D, report):
    """Decide whether Aut splits as (J and C) x Z/2 along the orbit-product
    labeling, and say so honestly when the labeling does not apply.

    With (gen, b_gen) chosen so that b_gen has orbit product +1, its m-th
    power is (id, 1), and (id, -1) is central; so (j, s) ->
    (gen, b_gen)^j o (id, s) is an isomorphism Z/m x Z/2 -> Aut for every
    report enumerate_automorphisms builds.  The structure is "yes", or
    "undetermined" when the table is incomplete, the tau group is not
    cyclic or an even-order generator has orbit product -1 on both roots;
    a labeling that fails is a program fault and raises.

    Returns a copy of the report with structure, structure_detail and
    labeling filled in.
    """
    A = D.coeff
    if not report.complete:
        return replace(report, structure="undetermined",
                       structure_detail="composition table is incomplete")
    orders = _element_orders(report.table)
    cyclic = max(orders) == report.order
    base_detail = "element orders %s; cyclic=%s" % (sorted(orders), cyclic)

    one = A.one()
    signs = []
    for t, b in report.elements:
        pr = _orbit_product(D, t, b)
        certify(pr == one or pr == -one, "the orbit product is +1 or -1")
        signs.append("+1" if pr == one else "-1")
    base_label = {"orbit_products_all": signs}

    taus = list(dict.fromkeys(t for t, _ in report.elements))
    m = len(taus)
    certify(report.order == 2 * m, "the order is twice the number of tau "
            "values")
    gen = next((t for t in taus if t.order() == m), None)
    if gen is None:
        return replace(report, structure="undetermined",
                       structure_detail=base_detail + "; the tau group is "
                       "not cyclic, the labeling argument does not apply",
                       labeling=base_label)

    roots = [(b, sign) for (t, b), sign in zip(report.elements, signs)
             if t == gen]
    labeling = dict(base_label, generator=gen.label,
                    orbit_products={b.literal(): sign for b, sign in roots})
    plus = [b for b, sign in roots if sign == "+1"]
    certify(m % 2 == 0 or len(plus) == 1, "an odd-order generator has "
            "exactly one root with orbit product +1")
    if not plus:
        return replace(report, structure="undetermined",
                       structure_detail=base_detail + "; even-order "
                       "generator with orbit product -1 on both roots, "
                       "the sign labeling has no consistent base point",
                       labeling=labeling)
    step = (gen, min(plus, key=A.sort_key))

    # the powers (gen, b_gen)^j for j = 1..m; the m-th is (id, 1), power 0
    powers = [step]
    for _ in range(m - 1):
        powers.append(compose_descriptors(D, step, powers[-1]))
    position = {}
    for j, (t, b) in enumerate(powers, 1):
        position[(t, b)] = (j % m, 1)
        position[(t, -b)] = (j % m, -1)
    assignment = [position.get(desc) for desc in report.elements]
    certify(None not in assignment, "every root is plus or minus the "
            "chained base root")
    certify(all(assignment[report.table[i1][i2]] == ((j1 + j2) % m, s1 * s2)
                for i1, (j1, s1) in enumerate(assignment)
                for i2, (j2, s2) in enumerate(assignment)),
            "the orbit-product labeling is a homomorphism")
    labeling["assignments"] = [
        dict(report.labels[i], power=j, sign=s)
        for i, (j, s) in enumerate(assignment)]
    return replace(report, structure="yes",
                   structure_detail=base_detail + "; the orbit-product "
                   "labeling is an isomorphism onto Z/%d x Z/2" % m,
                   labeling=labeling)


# ---------------------------------------------------------------------------
# Wene's grouped inner map


def wene_inner_check(D):
    """Take the left inverse w of the adjoined element (0,1) and test
    whether z -> w * (z * (0,1)) is the coordinatewise sigma map; that
    happens exactly when sigma fixes c, and the two facts are checked
    independently and compared."""
    A = D.coeff
    if A.kind != "field":
        raise ValueError("the grouped inner check is implemented over "
                         "finite fields")
    lam = D.adjoined()
    basis = D.basis()
    ops = A.base_ops()
    rows = list(zip(*(D.coords(D.mul(e, lam)) for e in basis)))
    sol = solve(rows, D.coords(D.unit()), ops)
    certify(sol is not None, "(0,1) has a left inverse, c being invertible")
    w = D.from_coords(sol)

    def grouped(z):
        return D.mul(w, D.mul(z, lam))

    def sigma_pair(z):
        return D.element(D.sigma(z.u), D.sigma(z.v))

    images = [grouped(e) for e in basis]
    matches = all(images[i] == sigma_pair(basis[i]) for i in range(D.dim))
    fixes = D.sigma(D.c) == D.c
    consistent = matches == fixes
    member = None
    if matches:
        desc = (D.sigma, A.one())
        verify_automorphism(D, desc)
        rep = enumerate_automorphisms(D)
        member = desc in rep.elements
    return WeneReport(w.literal(), matches, fixes, consistent, member,
                      [im.literal() for im in images])


# ---------------------------------------------------------------------------
# isomorphism


def verify_isomorphism(D1, D2, tau, b):
    """(u,v) -> (tau(u), tau(v) b) as a map D1 -> D2: unital,
    multiplicative on all basis pairs, bijective."""
    return _map_failure(D1, D2, (tau, b)) is None


def _iso_prelude(D1, D2):
    """The kind-specific part of iso_test: a verdict when the coefficient
    algebras differ or the nucleus dimensions tell D1 and D2 apart, else
    None."""
    A1, A2 = D1.coeff, D2.coeff
    if A1.kind != A2.kind:
        return IsoVerdict("no", "coefficient algebras have different kinds")
    if A1.kind == "field" and A1.K != A2.K:
        if (A1.K.p, A1.K.n) != (A2.K.p, A2.K.n):
            return IsoVerdict("no", "coefficient fields have different "
                                    "orders")
        return IsoVerdict("unknown", "same field order but different "
                          "moduli; identification of the fields is not "
                          "implemented")
    if A1.kind == "quad" and A1.K.a != A2.K.a:
        return IsoVerdict("no", "different quadratic fields")
    if A1.kind == "padic" and (A1.K.ctx.p != A2.K.ctx.p
                               or A1.K.kind != A2.K.kind):
        return IsoVerdict("no", "different p-adic extensions")
    if A1.kind == "padic" and A1.K.ctx.N != A2.K.ctx.N:
        return IsoVerdict("unknown", "the same p-adic extension at precisions "
                          "%d and %d; comparing across precisions is not "
                          "implemented" % (A1.K.ctx.N, A2.K.ctx.N))
    if A1.kind == "quat" and A1.B != A2.B:
        return IsoVerdict("unknown", "different quaternion presentations; "
                          "identifying them is out of scope")
    if A1.kind == "quat" or D1.sigma_is_id != D2.sigma_is_id:
        n1, n2 = compute_nuclei(D1), compute_nuclei(D2)
        if n1.dims != n2.dims:
            return IsoVerdict("no", "nucleus dimensions differ: %s vs %s"
                              % (n1.dims, n2.dims))
    return None


# per kind: the reason given for a match, and the verdict when no (tau, b)
# matches
_ISO_OUTCOMES = {
    "field": ("matched by an automorphism of the coefficient field",
              ("no", "no (tau, b) pair intertwines the two products; the "
                     "search over coefficient automorphisms is exhaustive")),
    "quad": ("matched by a coefficient automorphism",
             ("no", "no (tau, b) pair intertwines the two products")),
    "padic": ("matched by a coefficient automorphism",
              ("no", "no (tau, b) pair intertwines the two products")),
    "quat": ("matched by a supplied conjugation",
             ("unknown", "no supplied conjugation matches; the "
                         "witness-relative search is not exhaustive")),
}


def iso_test(D1, D2, taus=None):
    """Decide isomorphism where the implemented theory decides it.

    Commutative coefficient kinds: the doubled product is the same map for
    every variant tag, and every isomorphism has the shape
    (u,v) -> (tau(u), tau(v) b); the tau search is exhaustive, so both
    "yes" and "no" are proofs.  Quaternion coefficients: the search runs
    over supplied conjugation witnesses only, so a miss is "unknown".
    """
    verdict = _iso_prelude(D1, D2)
    if verdict is not None:
        return verdict
    A = D2.coeff
    matched, missed = _ISO_OUTCOMES[A.kind]
    for tau in A.automorphisms([] if taus is None else taus):
        if not _intertwines(D1, D2, tau):
            continue
        for b in _b_candidates(D1, D2, tau):
            if verify_isomorphism(D1, D2, tau, b):
                return IsoVerdict("yes", matched, {"tau": tau.label,
                                                   "b": b.literal()})
    return IsoVerdict(*missed)


# ---------------------------------------------------------------------------
# census of small finite doublings


def census(p, n, limit=27):
    """All doublings of GF(p^n) with non-square c, every sigma including
    the identity, partitioned into isomorphism classes by the isomorphism
    theorem.

    Every isomorphism has the shape (u,v) -> (tau(u), tau(v) b), so
    D(K, sigma, c) and D(K, sigma, c') are isomorphic when
    c = c' sigma(b)^2; over GF(p^n) the non-squares form one square class,
    so the members that share a sigma form one class.  The report rests on:
      * division: c is not in the critical-value set, computed once per
        sigma, which agrees with the quadratic character; no rank walk;
      * classes: the first non-square of each sigma is the representative,
        and the exhaustive iso_test answers "no" between representatives
        of different sigma (n(n-1)/2 tests);
      * members: each is reached from its representative by (id, b), b
        from _b_candidates, checked by verify_isomorphism.
    An outcome the theorem rules out is a program fault and raises.  Both
    class counts are reported: with and without the degenerate sigma = id
    convention.

    Sized for p^n <= limit and refused above fields.TABLE_BOUND, where the
    field has no index tables; limit=81 and limit=125 answer in well under
    a second."""
    if p == 2:
        raise ValueError("the census is about odd characteristic")
    # p^n, or a power of p already past the bound when n is larger (for a
    # prime p >= 3, p^14 > 10^4): forming 3^(10^7) alone takes seconds
    order = p ** min(n, TABLE_BOUND.bit_length())
    if order > TABLE_BOUND:
        raise ValueError("census needs the index tables of GF(p^n), which "
                         "stop at p^n <= %d; GF(%d^%d) is larger"
                         % (TABLE_BOUND, p, n))
    if order > limit:
        raise ValueError("census is sized for p^n <= %d; pass a larger "
                         "limit explicitly to go bigger" % limit)
    K = make_field(p, n)
    coeff = FieldCoefficients(K)
    identity = FrobeniusAut(K, 0)
    nonsquares = [c for c in K.elements()
                  if not c.is_zero() and not K.is_square(c)]
    entries = []
    classes = []
    reps = []
    for k in range(n):
        sigma = FrobeniusAut(K, k)
        rep = DicksonAlgebra(coeff, sigma, nonsquares[0], "commutative",
                             allow_identity=True)
        for earlier in reps:
            certify(iso_test(earlier, rep).status == "no",
                    "doublings with different sigma are not isomorphic")
        reps.append(rep)
        critical = critical_constants(rep)
        for c in nonsquares:
            # c is a non-square, so by the quadratic character D is
            # division; the critical-value set must agree
            certify(c not in critical, "the critical-value set and the "
                    "quadratic character agree")
            entries.append({"sigma": sigma.label, "c": c.literal(),
                            "division": DIVISION})
            D = DicksonAlgebra(coeff, sigma, c, "commutative",
                               allow_identity=True)
            certify(any(verify_isomorphism(rep, D, identity, b)
                        for b in _b_candidates(rep, D, identity)),
                    "some (id, b) maps the representative onto c = %s"
                    % c.literal())
        members = [c.literal() for c in nonsquares]
        classes.append({"sigma": sigma.label, "representative_c": members[0],
                        "size": len(members), "members": members})
    excluding = sum(1 for rep in reps if not rep.sigma_is_id)
    return CensusReport(p, n, entries, classes, excluding, len(classes))

