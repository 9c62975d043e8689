"""Checks of the program's answers that do not use the program.

Each check takes a question (from workloads.generate) and the answer the
client recorded, and returns None when the answer is right or a one-line
reason when it is not.  The truth comes from:

* sympy's galoistools for GF(p^n) arithmetic, with the explicit modulus
  of the question: with sigma != id, a doubling of GF(p^n) is division
  exactly when c is a non-square;
* a doubled product written here in a few lines, over GF(p^n) (through
  galoistools), Q(sqrt a) and rational quaternions, for witness pairs,
  construct identities and automorphisms;
* sympy nullspaces of associator systems built from that product, for
  nucleus dimensions over Q(sqrt a), Q_p(sqrt d) (the system has rational
  entries, so its rank is the same over Q and Q_p) and quaternions;
* closed forms: over GF(p^n) with sigma = frobenius^k, |Aut| = 2n, the
  left and right nuclei have dimension gcd(k, n) and the middle one n, and
  the census has n classes with sigma = id and n - 1 without; over a
  quadratic field K, |Aut| is 4 when N(c) is a square in K and 2 otherwise,
  with squares of Q_p decided by the square-class arithmetic in workloads.
"""

from fractions import Fraction
from math import gcd

from sympy import QQ, ZZ
from sympy.polys.galoistools import gf_mul, gf_pow_mod, gf_rem
from sympy.polys.matrices import DomainMatrix

import workloads

DIVISION, NOT_DIVISION = "proved-division", "proved-not-division"


# ---------------------------------------------------------------------------
# coefficient rings: elements are tuples of coordinates


class GFRing:
    """GF(p)[X]/(m); tuples hold ascending coefficients, galoistools
    wants descending lists."""

    def __init__(self, p, modulus, k):
        self.p, self.n, self.k = p, len(modulus) - 1, k
        self.m = [ZZ(t) for t in reversed(modulus)]
        self.zero = (0,) * self.n
        self.one = (1,) + (0,) * (self.n - 1)

    def _down(self, x):
        return [ZZ(t) for t in reversed(x)]

    def _up(self, f):
        f = [int(t) for t in reversed(f)]
        return tuple(f + [0] * (self.n - len(f)))

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        prod = gf_mul(self._down(x), self._down(y), self.p, ZZ)
        return self._up(gf_rem(prod, self.m, self.p, ZZ))

    def power(self, x, e):
        return self._up(gf_pow_mod(self._down(x), e, self.m, self.p, ZZ))

    def sigma(self, x):
        return self.power(x, self.p ** self.k)

    def is_square(self, x):
        return self.power(x, (self.p ** self.n - 1) // 2) == self.one

    def parse(self, text):
        return tuple(int(t) % self.p for t in text.split(","))


class QuadRing:
    """Q(sqrt a) with sigma the conjugation."""

    def __init__(self, a):
        self.a = Fraction(a)
        self.zero, self.one = (Fraction(0),) * 2, (Fraction(1), Fraction(0))
        self.dim = 2

    def add(self, x, y):
        return tuple(s + t for s, t in zip(x, y))

    def mul(self, x, y):
        return (x[0] * y[0] + self.a * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def sigma(self, x):
        return (x[0], -x[1])

    def parse(self, text):
        return tuple(Fraction(t) for t in text.split(","))


class QuatRing:
    """(a, b | Q) with i^2 = a, j^2 = b, k = ij; sigma(q) = w^-1 q w."""

    def __init__(self, a, b, w):
        self.a, self.b = Fraction(a), Fraction(b)
        self.zero = (Fraction(0),) * 4
        self.one = (Fraction(1),) + (Fraction(0),) * 3
        self.dim = 4
        self.w = tuple(Fraction(t) for t in w)
        self.w_inv = self.inverse(self.w)

    def add(self, x, y):
        return tuple(s + t for s, t in zip(x, y))

    def mul(self, p, q):
        a, b = self.a, self.b
        x1, y1, z1, w1 = p
        x2, y2, z2, w2 = q
        return (x1 * x2 + a * y1 * y2 + b * z1 * z2 - a * b * w1 * w2,
                x1 * y2 + y1 * x2 + b * (w1 * z2 - z1 * w2),
                x1 * z2 + z1 * x2 + a * (y1 * w2 - w1 * y2),
                x1 * w2 + w1 * x2 + y1 * z2 - z1 * y2)

    def norm(self, q):
        return workloads.quat_norm(self.a, self.b, q)

    def inverse(self, q):
        n = self.norm(q)
        return (q[0] / n, -q[1] / n, -q[2] / n, -q[3] / n)

    def conj_by(self, m, q):
        return self.mul(self.mul(self.inverse(m), q), m)

    def sigma(self, q):
        return self.mul(self.mul(self.w_inv, q), self.w)

    def parse(self, text):
        return tuple(Fraction(t) for t in text.split(","))


def dmul(R, c, variant, X, Y):
    """The doubled product, as the README defines it."""
    (u, v), (x, y) = X, Y
    if variant in ("commutative", "left"):
        extra = R.mul(c, R.sigma(R.mul(v, y)))
    elif variant == "middle":
        extra = R.mul(R.mul(R.sigma(v), c), R.sigma(y))
    else:
        extra = R.mul(R.sigma(R.mul(v, y)), c)
    return (R.add(R.mul(u, x), extra), R.add(R.mul(u, y), R.mul(v, x)))


def _is_zero_pair(R, X):
    return X[0] == R.zero and X[1] == R.zero


# ---------------------------------------------------------------------------
# nucleus dimensions over Q


def _basis(R):
    units = [tuple(Fraction(int(i == j)) for j in range(R.dim))
             for i in range(R.dim)]
    return [(e, R.zero) for e in units] + [(R.zero, e) for e in units]


def _flat(X):
    return list(X[0]) + list(X[1])


def nucleus_dims(R, c, variant):
    """Dimensions of the six subspaces compute_nuclei reports, each as the
    nullspace of an associator (or commutator) system over Q."""
    E = _basis(R)
    m = len(E)
    T = [[_flat(dmul(R, c, variant, E[i], E[j])) for j in range(m)]
         for i in range(m)]
    # Scaling every structure constant by one common denominator scales
    # each system by a nonzero constant, so integers give the same kernels.
    den = 1
    for t in (t for row in T for vec in row for t in vec):
        den = den * t.denominator // gcd(den, t.denominator)
    T = [[[int(t * den) for t in vec] for vec in row] for row in T]

    def times(vec, k, right):
        # vec * e_k (right) or e_k * vec, in coordinates
        out = [0] * m
        for l, s in enumerate(vec):
            if s:
                row = T[l][k] if right else T[k][l]
                out = [o + s * t for o, t in zip(out, row)]
        return out

    def system(column):
        rows = set()
        for j in range(m):
            for k in range(m):
                cols = [column(i, j, k) for i in range(m)]
                rows.update(_primitive([col[r] for col in cols])
                            for r in range(m))
        return rows

    def sub(x, y):
        return [s - t for s, t in zip(x, y)]

    left = system(lambda i, j, k: sub(times(T[i][j], k, True),
                                      times(T[j][k], i, False)))
    middle = system(lambda i, j, k: sub(times(T[j][i], k, True),
                                        times(T[i][k], j, False)))
    right = system(lambda i, j, k: sub(times(T[j][k], i, True),
                                       times(T[k][i], j, False)))
    comm = {_primitive([T[i][j][r] - T[j][i][r] for i in range(m)])
            for j in range(m) for r in range(m)}

    def null_dim(rows):
        rows = [list(r) for r in rows if any(r)]
        if not rows:
            return m
        M = DomainMatrix([[QQ(t) for t in r] for r in rows],
                         (len(rows), m), QQ)
        return M.nullspace().shape[0]

    return {"left": null_dim(left), "middle": null_dim(middle),
            "right": null_dim(right),
            "nucleus": null_dim(left | middle | right),
            "commuter": null_dim(comm),
            "center": null_dim(left | middle | right | comm)}


def _primitive(row):
    """The row divided by the gcd of its entries, first nonzero entry
    positive, so that repeated constraints collapse in a set."""
    g = 0
    for t in row:
        g = gcd(g, t)
    if g == 0:
        return tuple(row)
    if next(t for t in row if t) < 0:
        g = -g
    return tuple(t // g for t in row)


# ---------------------------------------------------------------------------
# per-question checks


def _ring_and_c(spec):
    if "field" in spec:
        p, _ = spec["field"]
        R = GFRing(p, spec["modulus"], spec["k"])
        return R, tuple(spec["c"]), "commutative"
    if "ab" in spec:
        R = QuatRing(*spec["ab"], spec["w"])
        return R, R.parse(",".join(spec["c"])), spec["variant"]
    a = spec["a"] if "a" in spec else spec["d"]
    R = QuadRing(a)
    return R, R.parse(",".join(spec["c"])), "commutative"


def _check_pair(R, c, variant, pair):
    X = (R.parse(pair[0][0]), R.parse(pair[0][1]))
    Y = (R.parse(pair[1][0]), R.parse(pair[1][1]))
    if _is_zero_pair(R, X) or _is_zero_pair(R, Y):
        return "witness has a zero factor"
    if not _is_zero_pair(R, dmul(R, c, variant, X, Y)):
        return "witness pair does not annihilate"
    return None


def check_division(q, res):
    spec = q["spec"]
    R, c, variant = _ring_and_c(spec)
    if "field" in spec:
        division = not R.is_square(c)
    elif "p" in spec:
        division = "square_of" not in spec
        norm_class = workloads.qp_square_class(
            workloads.quad_norm(spec["d"], c), spec["p"])
        if division == (norm_class == workloads.qp_square_class(1, spec["p"])):
            return "input does not have the norm class it was drawn with"
    elif "ab" in spec:
        division = not workloads.rational_is_square(R.norm(c))
    else:
        division = "square_of" not in spec
        norm = workloads.quad_norm(R.a, c)
        if division == workloads.rational_is_square(norm):
            return "input does not have the norm it was drawn with"
    want = DIVISION if division else NOT_DIVISION
    if res["verdict"] != want:
        return "verdict %s, expected %s" % (res["verdict"], want)
    if division:
        return None
    if "p" in spec:
        # c = r^2 by construction, so (r, 1)(-r, 1) = 0; the p-adic
        # witness literals are not re-multiplied here
        return None if res["witness"] else "no witness"
    return _check_pair(R, c, variant, res["witness"])


def check_nuclei(q, res):
    spec = q["spec"]
    if "field" in spec:
        p, n = spec["field"]
        g = gcd(spec["k"], n)
        want = {"left": g, "middle": n, "right": g, "nucleus": g,
                "commuter": 2 * n, "center": g}
    else:
        R, c, variant = _ring_and_c(spec)
        want = nucleus_dims(R, c, variant)
    if res["dims"] != want:
        return "nucleus dims %s, expected %s" % (res["dims"], want)
    for name, dim in want.items():
        if len(res["bases"][name]) != dim:
            return "%s basis has %d vectors" % (name, len(res["bases"][name]))
    return None


def _quat_expected_order(R, c, taus):
    """2 x the candidate conjugations (id plus the supplied ones, up to a
    central factor) that commute with sigma and send c to c times a
    rational square."""
    cands = [R.one]
    for t in taus:
        m = R.parse(",".join(t))
        if all(any(R.mul(m, R.inverse(o))[1:]) for o in cands):
            cands.append(m)
    count = 0
    E = [tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)]
    for m in cands:
        if any(R.conj_by(m, R.sigma(e)) != R.sigma(R.conj_by(m, e))
               for e in E):
            continue
        t = R.mul(R.conj_by(m, c), R.inverse(c))
        if not any(t[1:]) and workloads.rational_is_square(t[0]):
            count += 1
    return 2 * count


def _check_aut_element(R, c, el):
    """(u, v) -> (tau u, tau(v) b) is unital and multiplicative on a basis
    (quadratic fields: tau is id or the conjugation)."""
    tau = (lambda x: x) if el["tau"] == "id" else R.sigma
    b = R.parse(el["b"])

    def phi(X):
        return (tau(X[0]), R.mul(tau(X[1]), b))

    E = _basis(R)
    if phi((R.one, R.zero)) != (R.one, R.zero):
        return False
    return all(phi(dmul(R, c, "commutative", x, y))
               == dmul(R, c, "commutative", phi(x), phi(y))
               for x in E for y in E)


def check_autgroup(q, res):
    spec = q["spec"]
    R, c, _ = _ring_and_c(spec)
    if "field" in spec:
        want = 2 * spec["field"][1]
    elif "p" in spec:
        square = workloads.qp_norm_is_ext_square(spec["p"], spec["d"], c)
        want = 4 if square else 2
    elif "ab" in spec:
        want = _quat_expected_order(R, c, spec["taus"])
    else:
        n = workloads.quad_norm(R.a, c)
        square = workloads.rational_is_square
        want = 4 if square(n) or square(n / R.a) else 2
    if res["order"] != want or len(res["elements"]) != want:
        return "order %s, expected %d" % (res["order"], want)
    if "a" in spec and not all(_check_aut_element(R, c, el)
                               for el in res["elements"]):
        return "a listed element is not an automorphism"
    return None


def check_construct(q, res):
    spec = q["spec"]
    if spec.get("precision_fault"):
        # "30:1,-30:1" is 5^30 + 5^-30 sqrt(d)
        R, variant = QuadRing(spec["d"]), "commutative"
        c = (Fraction(5) ** 30, Fraction(5) ** -30)
    else:
        R, c, variant = _ring_and_c(spec)

    def mul(x, y):
        return dmul(R, c, variant, x, y)

    def add(x, y):
        return (R.add(x[0], y[0]), R.add(x[1], y[1]))

    # the identities construct samples, evaluated with our own product on
    # the basis and on sums of basis elements
    E = _basis(R)
    lam, one = (R.zero, R.one), (R.one, R.zero)
    triples = [(E[i], E[-1 - i], E[(i + 1) % len(E)]) for i in range(len(E))]
    want = {
        "unit_two_sided": all(mul(one, x) == x == mul(x, one) for x in E),
        "left_distributive": all(mul(add(x, y), z) == add(mul(x, z), mul(y, z))
                                 for x, y, z in triples),
        "right_distributive": all(
            mul(z, add(x, y)) == add(mul(z, x), mul(z, y))
            for x, y, z in triples),
        "adjoined_square_is_c": mul(lam, lam) == (c, R.zero),
        "commutative": None if "ab" in spec else all(
            mul(x, y) == mul(y, x) for x in E for y in E),
        "matches_structure_constants": True,
    }
    if res["checks"] != want:
        bad = sorted(k for k in want if res["checks"].get(k) != want[k])
        return "construct checks %s differ from the identities" % (
            ", ".join(bad))
    if res["all_passed"] is not True or res["trials"] != 200:
        return "construct summary is wrong"
    if "p" not in spec and res["algebra"]["c"] != ",".join(spec["c"]):
        return "construct built a different c"
    return None


def check_witness(q, res):
    spec = q["spec"]
    R, _, variant = _ring_and_c(spec)
    r, s, t = (R.parse(",".join(v)) for v in spec["rst"])
    pair = res["pair"]
    if R.parse(pair[0][0]) != r or R.parse(pair[0][1]) != t \
            or R.parse(pair[1][1]) != s:
        return "witness pair is not built from (r, s, t)"
    if not res["product_is_zero"]:
        return "program says the product is not zero"
    return _check_pair(R, R.parse(res["critical_c"]), variant, pair)


def check_census(q, res):
    p, n = q["spec"]["field"]
    instances = n * (p ** n - 1) // 2
    classes = (res["classes_including_id"], res["classes_excluding_id"])
    if classes != (n, n - 1):
        return "census classes %s/%s, expected %d/%d" % (classes + (n, n - 1))
    if len(res["entries"]) != instances or \
            sum(cl["size"] for cl in res["classes"]) != instances:
        return "census does not cover the %d instances" % instances
    if any(e["division"] != DIVISION for e in res["entries"]):
        return "a non-square doubling is not reported division"
    return None


CHECKS = {"division": check_division, "nuclei": check_nuclei,
          "autgroup": check_autgroup, "construct": check_construct,
          "witness-zero-divisor": check_witness, "census": check_census}


def check(q, record):
    """None for a right answer, else the reason it counts as failed."""
    if record["exc"]:
        if q["spec"].get("precision_fault") and \
                record["exc"].startswith("PrecisionError"):
            return None
        return "raised " + record["exc"]
    if record["rc"] != 0:
        return "exit %s: %s" % (record["rc"], record["stderr"].strip())
    try:
        return CHECKS[q["kind"]](q, record["result"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return "malformed answer: %s: %s" % (type(e).__name__, e)
