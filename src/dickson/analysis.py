"""Division verdicts, automorphism groups and isomorphism tests for
doubled algebras.

The guiding rule: every positive claim is re-verified on the spot by
direct computation (witness pairs are multiplied out, automorphism and
isomorphism candidates are checked against the hypotheses of the
doubling theorem, proved in _map_failure, or shown, on a basis, to be
the composite of two checked ones) and anything the implemented criteria
cannot settle is reported as "unknown" or "undetermined", never guessed.

Automorphisms of D = B + B are represented as pairs (tau, b) acting by
(u, v) -> (tau(u), tau(v) * b) where tau is an automorphism of the
coefficient algebra and b a coefficient element.
"""

from dataclasses import replace

from .doubling import (DicksonAlgebra, FieldCoefficients, _critical_pair,
                       _norm_zero_pair, _quat_is_split, compute_nuclei,
                       critical_constants)
from .fields import TABLE_BOUND, FrobeniusAut, make_field
from .linalg import solve
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
    "field": {
        "id-square": _ID_SQUARE,
        "id-nonsquare": _ID_FIELD,
        "square": ("square-root-witness", "the critical values are the "
                   "squares of GF(q) (every unit when q is even), and c is "
                   "a square"),
        "nonsquare": ("square-criterion", "the critical values are the "
                      "squares of GF(q), and c is not a square (Euler's "
                      "criterion)"),
    },
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

    The division theorem's criteria run in one ordered pass; from step 2 on
    the coefficients are a division algebra, so D has zero divisors exactly
    when c is a critical value c(r, s, t):
      1. split quaternion coefficients give a norm-zero pair;
      2. sigma = id: the critical values are the squares of B.  Over GF(q)
         they are the squares for every sigma = frobenius^k: the g-th
         powers, g = gcd(q - 1, 2, p^k - 1) (critical_constants), which are
         the squares for odd q and every unit for even q.  FiniteField.sqrt
         decides it and gives the root at every q, by Tonelli-Shanks above
         fields.TABLE_BOUND;
      3. every critical value has a square norm;
      4. over Q(sqrt a), N(c) = s^2 with neither s nor -s a norm proves
         division (the converse holds there too);
      5. a witness is the theorem pair of a critical triple, (sqrt c, 1, 1)
         or over Q(sqrt a) the triple from a norm preimage;
      6. anything else is unknown.
    Over GF(q) the exhaustive rank walk, zero_divisor_search, is the
    independent reference for these verdicts; division_decide never runs
    it.
    """
    A = D.coeff
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
    if D.sigma_is_id or A.kind == "field":
        prefix = "id-" if D.sigma_is_id else ""
        ok, root = A.is_square(D.c)
        if ok:
            return answer(NOT_DIVISION, prefix + "square",
                          _critical_pair(D, root, A.one(), A.one()))
        if ok is None:
            return answer(UNKNOWN, "id-undecided")
        return answer(DIVISION, prefix + "nonsquare")
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
    return all(tau(D1.sigma(e)) == D2.sigma(tau(e)) for e in D2.coeff.basis)


def _closure_ok(group):
    members = set(group)
    return all(t1.compose(t2) in members for t1 in group for t2 in group) \
        and all(t.inverse() in members for t in group)


def subgroups(D, taus=None):
    """J(c), C(sigma), their intersection and the isotropy group of c,
    inside Aut_F(B).  For quaternion coefficients the ambient list is
    witness-relative: it is whatever conjugations the caller supplies
    (the identity is always added).  tau is in J(c) when _b_candidates
    finds some b for it; the report keeps those lists as roots."""
    A = D.coeff
    auts = A.automorphisms(taus)
    roots = {t: _b_candidates(D, D, t) for t in auts}
    j = [t for t in auts if roots[t]]
    csig = [t for t in auts if _intertwines(D, D, t)]
    inter = [t for t in j if t in csig]
    iso = [t for t in auts if t(D.c) == D.c]
    closure = all(_closure_ok(g) for g in (j, csig, inter, iso))
    labels = {t: t.label for t in auts}
    return SubgroupReport(auts, j, csig, inter, iso, labels, closure, roots)


# ---------------------------------------------------------------------------
# automorphisms of the doubling


def apply_automorphism(D, desc, z):
    tau, b = desc
    return D.element(tau(z.u), tau(z.v) * b)


def compose_descriptors(D, d1, d2):
    """d1 after d2."""
    return (d1[0].compose(d2[0]), d1[0](d2[1]) * d1[1])


def _map_failure(D1, D2, desc):
    """Why phi: (u,v) -> (tau(u), tau(v) b) is not an isomorphism D1 -> D2,
    or None, decided by the doubling theorem: with tau an automorphism of
    B, phi is an isomorphism exactly when
      (1) b is invertible,
      (2) over quaternions, b is central,
      (3) tau sigma1 = sigma2 tau, checked on a basis of B, and
      (4) tau(c1) = c2 sigma2(b)^2, which over quaternions reads
          tau(c1) = c2 b^2,
    checked in that order.  The tests' reference is the check on every
    basis pair, oracles.map_failure_by_products.

    phi is F-linear, since tau is, and it fixes the unit: tau(1) = 1.  It
    is bijective exactly when b is invertible: tau is a bijection of B,
    and right multiplication by b on the finite-dimensional associative
    algebra B is bijective exactly when b is invertible (a bijection has
    some v with v b = 1, and a one-sided inverse in such an algebra is
    two-sided).  Both sides of (3) are F-linear, so a basis settles it.
    What is left is phi(xy) = phi(x) phi(y), half by half.  Write
    x = (u,v), y = (x',y'), z = vy', and c = c1, d = c2.

    Commutative B (GF(q), Q(sqrt a), Q_p(sqrt d); every variant is the
    left one).  The second halves agree always: tau(uy' + vx') b =
    tau(u) tau(y') b + tau(v) b tau(x').  The first halves agree exactly
    when tau(c) tau sigma1(z) = d sigma2(tau(v) b tau(y') b)
    = d sigma2(b)^2 sigma2 tau(z) for all z.  At z = 1 that is (4).
    Given (4), the two sides differ by the factor tau(c) (invertible, as
    c is) times tau sigma1(z) - sigma2 tau(z), so the rest is (3).

    Quaternion B, every variant.  The second halves agree exactly when
    tau(v) tau(x') b = tau(v) b tau(x') for all v, x'; at v = 1, as tau
    is onto, that says b commutes with B, which is (2).  So an invertible
    non-central b is refused, with no other route to try.  Let b be
    central: it lies in F, so sigma2(b) = b and b commutes with all.
      * left, (ux' + c sigma(z), ...): the first halves agree exactly when
        tau(c) tau sigma1(z) = d b^2 sigma2 tau(z) for all z; at z = 1
        that is (4), and given (4) the rest is (3), cancelling tau(c) on
        the left.
      * right, (ux' + sigma(z) c, ...): exactly when
        tau sigma1(z) tau(c) = sigma2 tau(z) b^2 d for all z; at z = 1
        that is (4) (b^2 d = d b^2), and given (4) the rest is (3),
        cancelling tau(c) on the right.
      * middle, (ux' + sigma(v) c sigma(y'), ...): exactly when
        tau sigma1(v) tau(c) tau sigma1(y') = sigma2 tau(v) b^2 d
        sigma2 tau(y') for all v, y'.  At v = y' = 1 that is (4); at
        y' = 1, given (4), it is (3) cancelling tau(c) on the right; and
        (3) with (4) turn the left side into the right one.
    Over Q_p, (4) is compared as every p-adic equality is, to the
    precision both sides know."""
    tau, b = desc
    A = D2.coeff
    if not A.is_invertible(b):
        return "candidate is not bijective"
    if A.commutative:
        s = D2.sigma(b)
    elif b.is_central():
        s = b
    else:
        return "candidate's b is not central"
    if not _intertwines(D1, D2, tau):
        return "tau does not intertwine the two sigmas"
    if tau(D1.c) != D2.c * (s * s):
        return "tau(c1) is not c2 sigma2(b)^2"
    return None


def verify_automorphism(D, desc):
    """(tau, b) is an automorphism of D by the doubling theorem
    (_map_failure); raises on failure."""
    failure = _map_failure(D, D, desc)
    if failure is not None:
        raise AssertionError(failure)
    return True


def _b_candidates(D1, D2, tau):
    """Every b for which (tau, b) can map D1 onto D2, in the order the
    coefficient kind reports them: the roots of tau(c1) / c2, as
    sigma2(b)^2, or b^2 with b central."""
    return D2.coeff.b_candidates(tau(D1.c) * D2.c.inv(), D2.sigma)


def _table_orders(table):
    """The order of each element as the table reads it: the powers of k,
    followed through table[.][k], return to k after that many steps; 0
    when a power is None or none returns to k within len(table) steps."""
    n = len(table)
    orders = []
    for k in range(n):
        cur, m = table[k][k], 1
        while cur != k and cur is not None and m <= n:
            cur = table[cur][k]
            m += 1
        orders.append(m if cur == k else 0)
    return orders


def _prove_members(D, elements, table):
    """Prove every element an automorphism of D and every row of its
    composition table right.

    Each element k is proved by one of three rules:
      (a) it is the identity descriptor (id, 1), and it fixes every basis
          vector;
      (b) it is table[i][j] for members i and j already proved.  Row i is
          already checked, so apply(d_k) equals apply(d_i) after
          apply(d_j) on every basis vector; both maps are F-linear, so
          they are the same map, a composite of two automorphisms;
      (c) the full check, verify_automorphism, by the doubling theorem.
    Then its row, where table[k][l] is the member whose map is apply(d_k)
    after apply(d_l), or None when no member's is:
      (a) table[k][l] = l;
      (b) table[k][l] = table[i][table[j][l]], since composition of maps
          is associative and rows i and j are already checked;
      (c) apply(d_k) to the basis images of every member l, and look the
          result up among the members' basis images; so too an entry of
          (b) whose table[j][l] is None.
    A failed check in (a) or (b) or of a row is a program fault and
    raises; (c) raises AssertionError as verify_automorphism does.

    The table only schedules the proof: the identity goes first, then
    always an element that (b) reaches.  Only when (b) reaches none does
    (c) take the unproved element of largest table order (_table_orders),
    the lowest index among equals.  So a cyclic group takes one full
    check, of a generator, whose powers follow by (b).  A wrong table
    changes only the order of the work: every element is still proved and
    every row still checked."""
    n = len(elements)
    basis = D.basis()
    one = D.coeff.one()
    images = [tuple(apply_automorphism(D, d, e) for e in basis)
              for d in elements]
    members = {}
    for k, im in enumerate(images):
        members.setdefault(im, k)

    def applied(k, l):
        return members.get(tuple(apply_automorphism(D, elements[k], x)
                                 for x in images[l]))

    done = [False] * n
    proved = []
    # an element index -> the first pair of proved members whose table
    # entry it is; pending holds the ones not yet proved
    reached = {}
    pending = []

    def prove(k, row):
        certify(table[k] == row, "row %d of the composition table is the "
                "composite of its maps" % k)
        done[k] = True
        proved.append(k)
        for i in proved:
            for m, pair in ((table[i][k], (i, k)), (table[k][i], (k, i))):
                if m is not None and not done[m] and m not in reached:
                    reached[m] = pair
                    pending.append(m)

    ident = next((k for k, (tau, b) in enumerate(elements)
                  if tau.is_identity() and b == one), None)
    if ident is not None:
        certify(images[ident] == tuple(basis),
                "the identity descriptor fixes every basis vector")
        prove(ident, list(range(n)))
    orders = _table_orders(table)
    by_order = iter(sorted(range(n), key=orders.__getitem__, reverse=True))
    while len(proved) < n:
        if pending:
            k = pending.pop()
            i, j = reached[k]
            prove(k, [applied(k, l) if m is None else table[i][m]
                      for l, m in enumerate(table[j])])
        else:
            k = next(k for k in by_order if not done[k])
            verify_automorphism(D, elements[k])
            prove(k, [applied(k, l) for l in range(n)])


def enumerate_automorphisms(D, taus=None):
    """All automorphisms of the doubled shape (tau, b), each proved.

    The composition table comes first, read off compose_descriptors; then
    _prove_members proves each element and checks each row of the table:
    the identity on sight, a product of two members already proved from
    their checked rows, anything else by the full verify_automorphism (the
    hypotheses of the doubling theorem, no product formed) and its row by
    applying it.  The table schedules that work, so that the
    full checks fall on a generating set (one generator for a cyclic
    group), but it proves nothing: every row is checked against the maps.
    Building a group's members and table from checked generators is
    standard (D. F. Holt, B. Eick and E. A. O'Brien, Handbook of
    Computational Group Theory, 2005); each shortcut is still a check on
    the spot, not a theorem taken on trust.

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
                for b in sorted(sub.roots[tau], key=A.sort_key)]
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
    _prove_members(D, elements, table)
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
    """(u,v) -> (tau(u), tau(v) b) is an isomorphism D1 -> D2 by the
    doubling theorem (_map_failure): b invertible, and central over
    quaternions, tau sigma1 = sigma2 tau on a basis, and
    tau(c1) = c2 sigma2(b)^2.  No product is formed."""
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
        from _b_candidates, checked by verify_isomorphism on the
        theorem's hypotheses, n + 1 comparisons and no product.
    An outcome the theorem rules out is a program fault and raises.  Both
    class counts are reported: with and without the degenerate sigma = id
    convention.

    Sized for p^n <= limit and refused above fields.TABLE_BOUND, where the
    field has no index tables; limit=81, limit=125 and limit=2187 (p = 3,
    n = 7) answer in well under a second."""
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

