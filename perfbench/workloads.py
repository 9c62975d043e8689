"""Seeded question lists for the three workloads.

A question is a dict with
    "kind"  the CLI subcommand,
    "argv"  the argument list handed to dickson.cli.main (every flag in
            --flag=value form, since "--c -1,1" is refused by the parser),
    "spec"  what the independent checks need to know about the input.

Only the standard library is used here, so the client that times the
questions and the checker that verifies them build the same list from the
same seed without importing the program or sympy.
"""

import itertools
import random
from fractions import Fraction
from math import isqrt

WORKLOADS = ("finite-sweep", "rational-structure", "padic-structure")

# Pairs over GF(49) are 5,764,801; the default scan cap is 10^6.
GF49_PAIR_CAP = 6_000_000


def _q(argv):
    return {"kind": argv[0], "argv": argv, "spec": {}}


def _lit(values):
    return ",".join(str(v) for v in values)


def rational_is_square(r):
    r = Fraction(r)
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


# ---------------------------------------------------------------------------
# GF(p^n) helpers for choosing inputs (ascending coefficient lists)


def _pmulmod(f, g, m, p):
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] = (prod[i + j] + a * b) % p
    n = len(m) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        lead = prod[k]
        if lead:
            for j in range(n + 1):
                prod[k - n + j] = (prod[k - n + j] - lead * m[j]) % p
    out = prod[:n] + [0] * (n - len(prod[:n]))
    return out


def _ppowmod(f, e, m, p):
    result = [1] + [0] * (len(m) - 2)
    while e:
        if e & 1:
            result = _pmulmod(result, f, m, p)
        f = _pmulmod(f, f, m, p)
        e >>= 1
    return result


def _monic_irreducibles(p, n):
    """Monic irreducibles of degree 2 or 3: exactly those without a root."""
    out = []
    for tail in itertools.product(range(p), repeat=n):
        m = list(tail) + [1]
        if all(sum(c * pow(x, i, p) for i, c in enumerate(m)) % p
               for x in range(p)):
            out.append(m)
    return out


def _field_units(p, n):
    return [list(e) for e in itertools.product(range(p), repeat=n) if any(e)]


def _gf_is_square(c, m, p):
    q = p ** (len(m) - 1)
    return _ppowmod(c, (q - 1) // 2, m, p) == [1] + [0] * (len(m) - 2)


def _field_spec(p, n, m, k, c):
    return {"field": [p, n], "modulus": m, "k": k, "c": c}


def _field_argv(cmd, p, n, m, k, c):
    return [cmd, "--coeff=gf(%d,%d;%s)" % (p, n, _lit(m)),
            "--sigma=frobenius:%d" % k, "--c=" + _lit(c)]


def finite_sweep(rng):
    """division on every unit c of GF(9), GF(25), GF(27); nuclei and
    autgroup on the non-squares; two censuses; two GF(49) scans."""
    qs = []
    for p, n in ((3, 2), (5, 2), (3, 3)):
        m = rng.choice(_monic_irreducibles(p, n))
        for c in _field_units(p, n):
            k = rng.randrange(1, n)
            q = _q(_field_argv("division", p, n, m, k, c))
            q["spec"] = _field_spec(p, n, m, k, c)
            qs.append(q)
            if _gf_is_square(c, m, p):
                continue
            for cmd in ("nuclei", "autgroup"):
                k = rng.randrange(1, n)
                q = _q(_field_argv(cmd, p, n, m, k, c))
                q["spec"] = _field_spec(p, n, m, k, c)
                qs.append(q)
    for p, n in ((3, 3), (5, 2)):
        q = _q(["census", "--p=%d" % p, "--n=%d" % n])
        q["spec"] = {"field": [p, n]}
        qs.append(q)
    m = rng.choice(_monic_irreducibles(7, 2))
    units = _field_units(7, 2)
    squares = [c for c in units if _gf_is_square(c, m, 7)]
    others = [c for c in units if not _gf_is_square(c, m, 7)]
    for c in rng.sample(squares, 1) + rng.sample(others, 1):
        q = _q(_field_argv("division", 7, 2, m, 1, c))
        q["spec"] = _field_spec(7, 2, m, 1, c)
        qs.append(q)
    return qs


# ---------------------------------------------------------------------------
# Q(sqrt a) and rational quaternions

QUAD_RADICANDS = (2, 3, 5, 6, 7, 10, -1, -2, -3, -5)
# (a, b | Q) ramified at some prime, hence division algebras:
# (-1,-1) at 2; (2,3) and (-1,-3) at 3; (2,5) and (3,5) at 5.
QUAT_ALGEBRAS = ((2, 3), (-1, -1), (-1, -3), (2, 5), (3, 5))
QUAT_VARIANTS = ("left", "middle", "right")


def _frac(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))


def _coords(rng, dim, dense):
    """Dense: every coordinate a nonzero fraction.  Sparse: one or two
    small nonzero integers, the rest zero."""
    if dense:
        return [_frac(rng) for _ in range(dim)]
    out = [Fraction(0)] * dim
    for i in rng.sample(range(dim), rng.randint(1, 2)):
        out[i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


def quad_norm(a, c):
    return c[0] * c[0] - a * c[1] * c[1]


def quat_norm(a, b, c):
    x, y, z, w = c
    return x * x - a * y * y - b * z * z + a * b * w * w


def _quat_square(a, b, m):
    x, y, z, w = m
    return [x * x + a * y * y + b * z * z - a * b * w * w,
            2 * x * y, 2 * x * z, 2 * x * w]


def _quad_spec(a, c):
    return {"a": a, "c": [str(t) for t in c]}


def _quad_argv(cmd, a, c):
    return [cmd, "--coeff=quad(%d)" % a, "--sigma=conjugate",
            "--c=" + _lit(c)]


def _quat_spec(a, b, w, c, variant):
    return {"ab": [a, b], "w": [str(t) for t in w],
            "c": [str(t) for t in c], "variant": variant}


def _quat_argv(cmd, a, b, w, c, variant):
    return [cmd, "--coeff=quat(%d,%d)" % (a, b),
            "--sigma=conjugation:" + _lit(w), "--c=" + _lit(c),
            "--variant=" + variant]


def _noncentral(rng):
    while True:
        w = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        if any(w[1:]):
            return w


# Witnesses of sigma, taken in turn.  Per question slot the field or
# algebra, the variant, sigma and the density of c are fixed; the seed
# draws the values (c, r, s, t) and the order of the questions.  The cost
# of a question follows its structure far more than its values, so this
# keeps the round time nearly the same for every seed.
QUAT_WITNESSES = ((0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (0, 1, 1, 0),
                  (1, 0, 1, 1), (0, 1, 0, 1))


def rational_structure(rng):
    qs = []

    def add(argv, spec):
        q = _q(argv)
        q["spec"] = spec
        qs.append(q)

    def quad_c(a, dense):
        while True:
            c = _coords(rng, 2, dense)
            if not rational_is_square(quad_norm(a, c)):
                return c

    def quat_c(a, b, dense):
        while True:
            c = _coords(rng, 4, dense)
            if not rational_is_square(quat_norm(a, b, c)):
                return c

    for i in range(60):
        a, dense = QUAD_RADICANDS[i % 10], (i // 10) % 2 == 1
        cmd = ("nuclei", "autgroup", "nuclei", "autgroup", "division")[i % 5]
        c = quad_c(a, dense)
        if i % 5 == 3:
            # a rational c has square norm, so conjugation joins J(c)
            # and the group has order 4
            c = [c[0] or c[1], Fraction(0)]
        add(_quad_argv(cmd, a, c), _quad_spec(a, c))
    for i in range(4):
        a = QUAD_RADICANDS[3 * i]
        r = _coords(rng, 2, i % 2 == 1)
        c = [r[0] * r[0] + a * r[1] * r[1], 2 * r[0] * r[1]]
        add(_quad_argv("division", a, c),
            dict(_quad_spec(a, c), square_of=[str(t) for t in r]))
    for i in range(8):
        a = QUAD_RADICANDS[i]
        c = quad_c(a, i % 2 == 1)
        rst = [_coords(rng, 2, i % 2 == 0) for _ in range(3)]
        argv = _quad_argv("witness-zero-divisor", a, c)
        argv += ["--%s=%s" % (n, _lit(v)) for n, v in zip("rst", rst)]
        add(argv, dict(_quad_spec(a, c),
                       rst=[[str(t) for t in v] for v in rst]))
    for i in range(2):
        a = QUAD_RADICANDS[3 * i + 1]
        c = quad_c(a, i % 2 == 1)
        add(_quad_argv("construct", a, c), _quad_spec(a, c))

    for i in range(36):
        a, b = QUAT_ALGEBRAS[i % 5]
        variant, w = QUAT_VARIANTS[i % 3], list(QUAT_WITNESSES[i % 6])
        c = quat_c(a, b, (i // 2) % 2 == 1)
        cmd = ("division", "witness-zero-divisor")[i % 2]
        argv = _quat_argv(cmd, a, b, w, c, variant)
        spec = _quat_spec(a, b, w, c, variant)
        if cmd == "witness-zero-divisor":
            rst = [_noncentral(rng) for _ in range(3)]
            argv += ["--%s=%s" % (n, _lit(v)) for n, v in zip("rst", rst)]
            spec["rst"] = [[str(x) for x in v] for v in rst]
        add(argv, spec)
    for i in range(24):
        # all dense, and two nuclei per autgroup: the 90th percentile falls
        # inside the run of quaternion nuclei, away from any boundary
        a, b = QUAT_ALGEBRAS[i % 5]
        variant, w = QUAT_VARIANTS[i // 3 % 3], list(QUAT_WITNESSES[i % 6])
        c = quat_c(a, b, True)
        if i % 12 == 1:
            # c in Q(w) is fixed by sigma, so sigma joins J(c)
            s, t = _coords(rng, 2, True)
            c = [s + t * w[0], t * w[1], t * w[2], t * w[3]]
        cmd = ("nuclei", "autgroup", "nuclei")[i % 3]
        argv = _quat_argv(cmd, a, b, w, c, variant)
        spec = _quat_spec(a, b, w, c, variant)
        if cmd == "autgroup":
            # sigma's own witness always commutes with sigma; the second
            # is the witness of sigma^2
            taus = [w, _quat_square(a, b, w)]
            argv += ["--tau=conjugation:" + _lit(t) for t in taus]
            spec["taus"] = [[str(x) for x in t] for t in taus]
        add(argv, spec)
    # one dense construct (about a second) on (2,3 | Q), sigma = conj by i
    a, b, w, variant = 2, 3, [0, 1, 0, 0], "middle"
    c = _coords(rng, 4, True)
    add(_quat_argv("construct", a, b, w, c, variant),
        _quat_spec(a, b, w, c, variant))
    return qs


# ---------------------------------------------------------------------------
# quadratic extensions of Q_p

PADIC_PRIMES = (3, 5, 7)
PADIC_KINDS = ("sqrt_p", "sqrt_u", "sqrt_up")
PADIC_PRECISIONS = (16, 32)

# Bounded precision collapses the full cancellation in this instance to an
# exact zero, and construct reports failed distributivity.  The input does
# not depend on the seed, so it fails once in every round.
PRECISION_QUESTION = ["construct", "--coeff=qp(5;sqrt_u;4)",
                      "--sigma=conjugate", "--c=30:1,-30:1", "--seed=0"]


def nonresidue(p):
    u = 2
    while pow(u, (p - 1) // 2, p) == 1:
        u += 1
    return u


def padic_radicand(p, kind):
    u = nonresidue(p)
    return {"sqrt_p": p, "sqrt_u": u, "sqrt_up": u * p}[kind]


def qp_square_class(r, p):
    """The class of a nonzero rational in Q_p* / Q_p*^2 (p odd), as
    (valuation parity, whether the unit part is a residue mod p)."""
    r = Fraction(r)
    num, den, v = r.numerator, r.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    unit = num * pow(den, -1, p) % p
    return v % 2, pow(unit, (p - 1) // 2, p) == 1


def qp_norm_is_ext_square(p, d, c):
    """Is N(c) = x^2 - d y^2 a square in Q_p(sqrt d)?  Exactly when its
    class is that of 1 or of d."""
    cls = qp_square_class(quad_norm(d, c), p)
    return cls in (qp_square_class(1, p), qp_square_class(d, p))


def padic_structure(rng):
    qs = []
    combos = list(itertools.product(PADIC_PRIMES, PADIC_KINDS))
    for i, (p, kind) in enumerate(combos):
        N = PADIC_PRECISIONS[i % 2]
        d = padic_radicand(p, kind)
        coeff = "--coeff=qp(%d;%s;%d)" % (p, kind, N)
        # Per slot, a condition on c: N(c) a square in the extension (order
        # 4) or, for the third autgroup, not (order 2) where the norm group
        # allows it (p = 3 mod 4 with a ramified kind); N(c) a non-square of
        # Q_p (proved division) or c = r^2 (zero divisors).
        order_two = p % 4 == 3 and kind != "sqrt_u"

        def ext_square(c):
            return qp_norm_is_ext_square(p, d, c)

        def qp_nonsquare(c):
            return qp_square_class(quad_norm(d, c), p) != qp_square_class(1, p)

        slots = (("autgroup", ext_square), ("autgroup", ext_square),
                 ("autgroup", lambda c: ext_square(c) != order_two),
                 ("nuclei", None), ("nuclei", None), ("nuclei", None),
                 ("nuclei", None),
                 ("division", qp_nonsquare), ("division", qp_nonsquare),
                 ("division", qp_nonsquare), ("division", "square"))
        if i % 2 == 0:
            slots += (("construct", None),)
        for j, (cmd, cond) in enumerate(slots):
            while True:
                c = _coords(rng, 2, (i + j) % 2 == 1)
                if not callable(cond) or cond(c):
                    break
            spec = {"p": p, "kind": kind, "N": N, "d": d}
            if cond == "square":
                spec["square_of"] = [str(t) for t in c]
                c = [c[0] * c[0] + d * c[1] * c[1], 2 * c[0] * c[1]]
            spec["c"] = [str(t) for t in c]
            q = _q([cmd, coeff, "--sigma=conjugate", "--c=" + _lit(c)])
            q["spec"] = spec
            qs.append(q)
    q = _q(list(PRECISION_QUESTION))
    q["spec"] = {"p": 5, "kind": "sqrt_u", "N": 4,
                 "d": padic_radicand(5, "sqrt_u"), "precision_fault": True}
    qs.append(q)
    return qs


def generate(workload, seed):
    """The question list of one round, in the order it is asked."""
    rng = random.Random("%s/%d" % (workload, seed))
    build = {"finite-sweep": finite_sweep,
             "rational-structure": rational_structure,
             "padic-structure": padic_structure}[workload]
    qs = build(rng)
    rng.shuffle(qs)
    for i, q in enumerate(qs):
        q["id"] = i
    return qs
