"""Exact dense linear algebra over a pluggable scalar field.

Everything here is plain Gaussian elimination on lists of lists.  The
scalar type is abstracted behind a small ops object so the same solver
serves GF(p) (ints mod p), the rationals (fractions.Fraction) and
bounded-precision p-adic numbers.  Matrices are small throughout the
package (nucleus systems top out at a few hundred rows and eight
columns), so no attempt is made to be clever.
"""

from fractions import Fraction


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

    def eq(self, a, b):
        return (a - b) % self.p == 0

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

    def eq(self, a, b):
        return a == b

    def prefer_pivot(self, a, b):
        # Pivot choice does not affect exactness over Q.
        return False


def rref(rows, ops):
    """Reduced row echelon form in place; returns the pivot column list."""
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
