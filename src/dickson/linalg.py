"""Exact dense linear algebra over a pluggable scalar field.

The scalar type is abstracted behind a small ops object so the same solver
serves GF(p) (ints mod p), the rationals (fractions.Fraction) and
bounded-precision p-adic numbers.  Matrices are small throughout the
package (nucleus systems top out at a few hundred rows and eight
columns).

Over GF(p) and Q_p, rref is plain Gauss-Jordan elimination on lists of
lists through the ops object; over Q_p the pivot choice is the ops'
(lowest valuation), and it depends on the row order.  Over Q, rref is
fraction-free: each row is cleared of denominators and divided by the gcd
of its entries, rows are eliminated by cross-multiplication on ints (in
the spirit of E. H. Bareiss, Math. Comp. 22 (1968) 565-578), and each
pivot row is divided by its pivot only once, at the end.  The reduced
row echelon form of a row space is unique, so both routes give the same
rows and pivots; only the Q route avoids normalising a Fraction per
scalar operation.  A caller that builds Q systems from a tensor clears
its denominators once with _integer_tensor; scaling a system does not
change its kernel.

Element, the operator protocol of the coefficient element kinds, lives
here too, so every element module can import it without a cycle.
"""

from fractions import Fraction
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
    """
    if isinstance(ops, QOps):
        return _rref_integer(rows)
    return _rref_loop(rows, ops)


def _rref_loop(rows, ops):
    """Gauss-Jordan elimination through the scalar ops."""
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


def in_span(vectors, target, ops):
    """Is target a linear combination of the given vectors?"""
    if not vectors:
        return all(ops.is_zero(t) for t in target)
    return solve(list(zip(*vectors)), list(target), ops) is not None
