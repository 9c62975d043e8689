"""Exact dense linear algebra over a pluggable scalar field.

The scalar type is abstracted behind a small ops object so the same
solver serves GF(p) (ints mod p) and the rationals (fractions.Fraction).
Matrices are small throughout the package (nucleus systems top out at a
few hundred rows and eight columns).  No system is eliminated over Q_p:
the nuclei of a Q_p doubling are those of its rational twin, and a
(tau, b) map is bijective when b is invertible.

Over Q, rref is fraction-free: each row is cleared of denominators and
divided by the gcd of its entries, rows are eliminated by
cross-multiplication on ints (in the spirit of E. H. Bareiss, Math.
Comp. 22 (1968) 565-578), and each pivot row is divided by its pivot
only once, at the end.

Over GF(p), rref eliminates on lane-packed ints: several residues share
one word and the reduction mod p is delayed, the standard remedy for
word-size prime fields (J.-G. Dumas, P. Giorgi and C. Pernet, ACM TOMS
35 (2008)).  Here the word is one Python int holding the whole matrix,
one lane of bits per entry (PackedLayout), and a column of elimination
is a fixed number of big-int operations however many rows there are
(_packed_pivots).  The exhaustive rank test of the doubling module packs
its matrices of left multiplication the same way and runs rref's column
step on them.

The reduced row echelon form of a row space is unique, so every route
gives the same rows and pivots as plain Gauss-Jordan elimination through
the ops, which tests/oracles.py keeps as their reference (rref_loop).

Element, the operator protocol of the coefficient element kinds, lives
here too, so every element module can import it without a cycle.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class Element:
    """Coercion, the reflected and derived operators, equality and hashing
    of the five coefficient element kinds, written once.

    A kind defines its arithmetic on operands of its own parent (__add__,
    __neg__, __mul__ after _coerce, inv, and but for PadicNumber the fused
    a.dot(b, c, e) = a*b + c*e, normalized once) and four hooks:
        parent     the algebra the element lives in;
        _lift(s)   the element equal to a scalar s of a type in _scalars;
        _key()     a canonical tuple: elements of equal parents are equal
                   exactly when their keys are;
        _scalar()  the base scalar the element is, or None.
    coords(), the coordinates over the base field, is the key unless the
    kind keys on ints over one denominator (Q-quaternions, Q(sqrt a)).
    An element equals a scalar only when it is that base scalar in
    canonical form, and then hashes as it.  Elements of different parents
    compare unequal, and arithmetic on them raises ValueError.  A reflected
    operand is always a scalar, which is central, so s * x is x * s.
    """

    __slots__ = ()
    _scalars = (int, Fraction)

    def _coerce(self, other):
        """other as an element of self's parent, or NotImplemented."""
        if type(other) is type(self):
            if other.parent is self.parent or other.parent == self.parent:
                return other
            raise ValueError("elements of different algebras: %r and %r"
                             % (self.parent, other.parent))
        if isinstance(other, self._scalars):
            return self._lift(other)
        return NotImplemented

    def _coerced(self, *others):
        """others through _coerce, for dot; any other operand a TypeError."""
        out = [self._coerce(x) for x in others]
        if any(x is NotImplemented for x in out):
            raise TypeError("dot needs elements or scalars")
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other):
        if type(other) is type(self):
            return ((other.parent is self.parent or other.parent == self.parent)
                    and self._key() == other._key())
        if isinstance(other, self._scalars):
            return self._scalar() == other
        return NotImplemented

    def __hash__(self):
        s = self._scalar()
        return hash(self._key() if s is None else s)

    def coords(self):
        return list(self._key())


class FpOps:
    """Arithmetic of the prime field GF(p) on plain ints in range(p)."""

    def __init__(self, p):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0


class QOps:
    """Arithmetic of the rationals on fractions.Fraction (ints mix in).

    The Q element kinds work on integer numerators over one denominator
    (quaternions, quadratic) and rref eliminates on integer rows (see the
    module docstring), so neither goes through these methods.  What is
    left, back-substitution in kernel_basis and solve, quaternion norm
    tests and canonical witnesses, is light, so the methods are the plain
    operators.
    """

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        # Fraction(1) rather than 1, so an int pivot does not turn to float.
        return self.one / a

    def is_zero(self, a):
        return a == 0


def rref(rows, ops):
    """Reduced row echelon form in place; returns the pivot column list.

    The pivot rows come first, in pivot order, followed by zero rows.
    Over GF(p) every entry comes back reduced into range(p).
    """
    if isinstance(ops, QOps):
        return _rref_integer(rows)
    if isinstance(ops, FpOps):
        return _rref_packed(rows, ops.p)
    raise TypeError("rref eliminates over GF(p) or Q, not with %r" % (ops,))


# ---------------------------------------------------------------------------
# GF(p) elimination on lane-packed ints (see the module docstring)


class PackedLayout:
    """Where the entries of an nrows x ncols matrix over GF(p) sit in one
    int.

    Entry (r, j) is the lane at bit (r * ncols + j) * W, so row r is the
    run of ncols lanes at bit r * S, S = ncols * W.  pack reduces the
    entries mod p, so top is the largest lane a sum of packed matrices
    can start with (p - 1 for a single one).  A lane holds values
    below 2^w, where w is the bit length of max(top, (2p - 1)(p - 1)),
    and the W - w bits above them stay free so one multiplication by
    `magic` reduces every lane at once: for 0 <= x < 2^w,
    floor(x * magic / 2^shift) = floor(x / p) (round-up division by an
    invariant integer, Granlund and Montgomery, PLDI 1994), with
    shift = w + bitlen(p), magic = ceil(2^shift / p) and W = w + shift,
    so no lane's product reaches the next lane.  rref packs with top
    p - 1, the doubling module's rank test with a larger one; both
    eliminate by rref's column step (_packed_pivots).
    """

    def __init__(self, p, nrows, ncols, top):
        w = max(top, (2 * p - 1) * (p - 1)).bit_length()
        self.p, self.nrows = p, nrows
        self.shift = w + p.bit_length()
        self.magic = -(-(1 << self.shift) // p)
        self.W = W = w + self.shift
        self.S = S = ncols * W
        self.lane = (1 << w) - 1
        self.lanes = _join([self.lane] * (nrows * ncols), W)
        self.column = _join([self.lane] * nrows, S)
        self.row = (1 << S) - 1
        self.pones = _join([p] * nrows, S)

    def pack(self, rows):
        """The matrix of ints as one int, its entries reduced mod p."""
        p = self.p
        return _join([x % p for row in rows for x in row], self.W)

    def unpack_row(self, v, scale=1):
        """The lanes of one packed row times scale, reduced mod p."""
        p, lane = self.p, self.lane
        return [(v >> s & lane) * scale % p for s in range(0, self.S, self.W)]

    def unpack(self, M):
        """The rows of M, reduced mod p."""
        return [self.unpack_row(M >> s & self.row)
                for s in range(0, self.nrows * self.S, self.S)]


def _join(values, width):
    """values[i] in bits [i * width, (i + 1) * width) of one int, joined
    pairwise so the work grows as n log n, not n^2."""
    while len(values) > 1:
        if len(values) % 2:
            values = values + [0]
        values = [a | b << width for a, b in zip(values[::2], values[1::2])]
        width *= 2
    return values[0] if values else 0


@lru_cache(maxsize=256)
def packed_layout(p, nrows, ncols, top):
    """The PackedLayout of one shape, built once: its masks cost about as
    much as eliminating a small matrix."""
    return PackedLayout(p, nrows, ncols, top)


def _packed_pivots(M, g):
    """Gauss-Jordan elimination over GF(p) of the matrix M packed by
    layout g: (M eliminated, its lanes unreduced; the (column, row
    offset) of each pivot, as many as the rank).

    One column at a time, each a fixed number of big-int operations
    whatever the number of rows.  Every lane is reduced first (see
    PackedLayout); C, the column's lanes moved to the heads of the rows,
    picks the pivot row P, the last row not yet a pivot row whose lane a
    is nonzero, and M becomes a * M + (p - C - (p - a) at P's head) * P.
    Row r gains (p - b_r) * P, a multiplier in range(1, p + 1), and its
    lane in the column becomes a * b_r + (p - b_r) * a = 0 mod p.  P's
    multiplier is 0, so P is only scaled by a; later pivots clear it of
    their columns.  No lane goes negative, and none exceeds
    (p - 1)^2 + p (p - 1) before the next reduction."""
    p, W, S = g.p, g.W, g.S
    magic, shift, lanes = g.magic, g.shift, g.lanes
    column, row, pones = g.column, g.row, g.pones
    live = column
    found = []
    for col in range(0, S, W):
        M -= p * (M * magic >> shift & lanes)
        C = M >> col & column
        if not C & live:
            continue
        off = ((C & live).bit_length() - 1) // S * S
        a = C >> off & g.lane
        live ^= g.lane << off
        found.append((col // W, off))
        M = a * M + (pones - C - (p - a << off)) * (M >> off & row)
    return M, found


def _rref_packed(rows, p):
    """rref over GF(p): the rows packed, eliminated by _packed_pivots, and
    each pivot row divided by its pivot lane as it is unpacked."""
    if not rows:
        return []
    ncols = len(rows[0])
    g = packed_layout(p, len(rows), ncols, p - 1)
    M, found = _packed_pivots(g.pack(rows), g)
    reduced = [g.unpack_row(M >> off & g.row,
                            pow(M >> off + col * g.W & g.lane, -1, p))
               for col, off in found]
    rows[:] = reduced + [[0] * ncols for _ in range(len(rows) - len(reduced))]
    return [col for col, _ in found]


# ---------------------------------------------------------------------------
# Q elimination on integer rows


def _primitive(row):
    """The integer multiple of a row of ints and Fractions whose entries
    are coprime; None for a zero row."""
    den = lcm(*(x.denominator for x in row))
    if den == 1:
        row = [x.numerator for x in row]
    else:
        row = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*row)
    if not g:
        return None
    return row if g == 1 else [x // g for x in row]


def _clear(v, prow, col):
    """Row v with column col cleared by cross-multiplication with the
    pivot row prow, made primitive again."""
    f = v[col]
    if not f:
        return v
    pv = prow[col]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    v = [a * x - b * y for x, y in zip(v, prow)]
    g = gcd(*v)
    return v if g < 2 else [x // g for x in v]   # g is 0 when v vanished


def _rref_integer(rows):
    """rref over Q on primitive integer rows: every other row is cleared
    of each pivot column, rows that vanish are dropped, and each pivot row
    is divided by its pivot once at the end."""
    if not rows:
        return []
    ncols = len(rows[0])
    live = [v for v in map(_primitive, rows) if v is not None]
    pivots, done = [], []
    for col in range(ncols):
        if not live:
            break
        cands = [v for v in live if v[col]]
        if not cands:
            continue
        # the smallest pivot keeps the cross-multiplied entries small
        prow = min(cands, key=lambda v: abs(v[col]))
        done = [_clear(v, prow, col) for v in done]
        live = [w for w in (_clear(v, prow, col) for v in live if v is not prow)
                if any(w)]
        pivots.append(col)
        done.append(prow)
    zero, one = QOps.zero, QOps.one
    reduced = [[(one if x == v[c] else Fraction(x, v[c])) if x else zero
                for x in v] for c, v in zip(pivots, done)]
    rows[:] = reduced + [[zero] * ncols for _ in range(len(rows) - len(reduced))]
    return pivots


def _integer_scaled(values, ops):
    """(ints, den): a list of ints and Fractions times den, one common
    multiple of their denominators, as ints, when ops is a QOps; otherwise
    (values, 1).  Q(sqrt a) and quaternion elements key on it."""
    if not isinstance(ops, QOps):
        return values, 1
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def rank(rows, ops):
    work = [list(r) for r in rows]
    return len(rref(work, ops))


def kernel_basis(rows, ncols, ops):
    """Basis of {x : A x = 0} for the matrix given as a list of rows.

    Deterministic: free variables are taken in increasing column order, so
    repeated calls on equal input give identical output.
    """
    work = [list(r) for r in rows]
    pivots = rref(work, ops)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [ops.zero] * ncols
        vec[fc] = ops.one
        for r, pc in enumerate(pivots):
            vec[pc] = ops.neg(work[r][fc])
        basis.append(vec)
    return basis


def solve(rows, rhs, ops):
    """One solution of A x = b, or None when the system is inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = rref(work, ops)
    if ncols in pivots:
        return None
    sol = [ops.zero] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = work[r][ncols]
    return sol

