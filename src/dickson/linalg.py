"""Exact dense linear algebra over a pluggable scalar field.

The scalar type is abstracted behind a small ops object so the same solver
serves GF(p) (ints mod p), the rationals (fractions.Fraction) and
bounded-precision p-adic numbers.  Matrices are small throughout the
package (nucleus systems top out at a few hundred rows and eight
columns).

Over Q_p, rref is plain Gauss-Jordan elimination on lists of lists
through the ops object; the pivot choice is the ops' (lowest valuation),
and it depends on the row order.  Over Q, rref is fraction-free: each row
is cleared of denominators and divided by the gcd of its entries, rows
are eliminated by cross-multiplication on ints (in the spirit of
E. H. Bareiss, Math. Comp. 22 (1968) 565-578), and each pivot row is
divided by its pivot only once, at the end.  A caller that builds Q
systems from a tensor clears its denominators once with _integer_tensor;
scaling a system does not change its kernel.

Over GF(p), rref eliminates on lane-packed ints: several residues share
one word and the reduction mod p is delayed, the standard remedy for
word-size prime fields (J.-G. Dumas, P. Giorgi and C. Pernet, ACM TOMS
35 (2008)).  Here the word is one Python int holding the whole matrix,
one lane of bits per entry (PackedLayout), and a column of elimination
is a fixed number of big-int operations however many rows there are
(packed_singular).  The exhaustive rank test of the doubling module
packs its matrices of left multiplication the same way.

The reduced row echelon form of a row space is unique, so every route
gives the same rows and pivots as the generic loop through the ops.

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
    __neg__, __mul__ after _coerce, and inv) and four hooks:
        parent     the algebra the element lives in;
        _lift(s)   the element equal to a scalar s of a type in _scalars;
        _key()     canonical coordinates: elements of equal parents are
                   equal exactly when their keys are;
        _scalar()  the base scalar the element is, or None.
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

    def prefer_pivot(self, a, b):
        return False


class QOps:
    """Arithmetic of the rationals on fractions.Fraction (ints mix in).

    Most operands in this package are exact zeros: basis vectors have one
    nonzero coordinate and the automorphisms used send basis elements to
    signed basis elements.  add, sub and mul therefore return early on a
    zero operand instead of letting Fraction build and gcd-normalise a
    new value.  Whenever a Fraction is involved the early result is
    equal to, and of the same type as, what plain arithmetic gives; pure
    int operands take the plain path.

    rref does not go through these methods: given a QOps it eliminates on
    integer rows (see the module docstring) and writes Fractions back.
    """

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        if type(b) is Fraction and not a:
            return b
        if type(a) is Fraction and not b:
            return a
        return a + b

    def sub(self, a, b):
        if type(a) is Fraction and not b:
            return a
        if type(b) is Fraction and not a:
            return -b
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        if (type(a) is Fraction or type(b) is Fraction) and (not a or not b):
            return self.zero
        return a * b

    def inv(self, a):
        # Fraction(1) rather than 1, so an int pivot does not turn to float.
        return self.one / a

    def is_zero(self, a):
        return a == 0

    def prefer_pivot(self, a, b):
        # Pivot choice does not affect exactness over Q.
        return False


def rref(rows, ops):
    """Reduced row echelon form in place; returns the pivot column list.

    The pivot rows come first, in pivot order, followed by zero rows.
    Over GF(p) every entry comes back reduced into range(p).
    """
    if isinstance(ops, QOps):
        return _rref_integer(rows)
    if isinstance(ops, FpOps):
        return _rref_packed(rows, ops.p)
    return _rref_loop(rows, ops)


def _rref_loop(rows, ops):
    """Gauss-Jordan elimination through the scalar ops; rref's route over
    Q_p, and the reference the other routes are tested against."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        best = None
        for i in range(r, len(rows)):
            if not ops.is_zero(rows[i][col]):
                if best is None or ops.prefer_pivot(rows[i][col], rows[best][col]):
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = ops.inv(rows[r][col])
        rows[r] = [ops.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not ops.is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


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
    so no lane's product reaches the next lane.
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


def packed_singular(M, g):
    """Is the square matrix M, packed by layout g, singular over GF(p)?

    Forward elimination, one column at a time, each a fixed number of
    big-int operations whatever the number of rows.  Every lane is
    reduced (see PackedLayout); C, the column's lanes moved to the heads
    of the rows, picks the pivot row P, the last row whose lane a is
    nonzero, and M becomes a * M + (p - C) * P.  (p - C) has a multiplier
    p - b in range(1, p + 1) at the head of each row, so the product is
    the outer product of those multipliers with P: row r gains
    (p - b_r) * P, and its lane in the column becomes
    a * b_r + (p - b_r) * a = 0 mod p.  P itself becomes p * P, zero mod
    p, so it leaves the elimination.  No lane goes negative, and none
    exceeds (p - 1)^2 + p (p - 1) before the next reduction.  The first
    column where no row is left with a nonzero lane proves M singular.
    """
    p, W, S = g.p, g.W, g.S
    magic, shift, lanes = g.magic, g.shift, g.lanes
    column, row, pones = g.column, g.row, g.pones
    for col in range(0, S, W):
        M -= p * (M * magic >> shift & lanes)
        C = M >> col & column
        if not C:
            return True
        off = (C.bit_length() - 1) // S * S
        M = (C >> off) * M + (pones - C) * (M >> off & row)
    return False


def _rref_packed(rows, p):
    """rref over GF(p): Gauss-Jordan on the packed matrix, with the column
    step of packed_singular except that a pivot row stays.  Its
    multiplier is 0, so it only scales by a, and it leaves the rows a
    later pivot may come from; every other row, earlier pivot rows
    included, is cleared of the column.  Each pivot row is divided by its
    pivot lane at the end."""
    if not rows:
        return []
    ncols = len(rows[0])
    g = packed_layout(p, len(rows), ncols, p - 1)
    W, S = g.W, g.S
    magic, shift, lanes = g.magic, g.shift, g.lanes
    column, row, pones = g.column, g.row, g.pones
    M = g.pack(rows)
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
    reduced = [g.unpack_row(M >> off & row,
                            pow(M >> off + col * W & g.lane, -1, p))
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


def _integer_tensor(tensor, ops):
    """A 3-index tensor of ints and Fractions times one common multiple of
    its denominators, as ints, when ops is a QOps; otherwise the tensor
    itself.  Kernels of linear systems read off it are unchanged."""
    if not isinstance(ops, QOps):
        return tensor
    den = lcm(*(x.denominator for m in tensor for row in m for x in row))
    return [[[x.numerator * (den // x.denominator) for x in row] for row in m]
            for m in tensor]


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

