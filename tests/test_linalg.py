import random
from fractions import Fraction

from dickson.linalg import FpOps, QOps, kernel_basis, rank, rref, solve
from oracles import in_span


def _matvec(rows, vec, ops):
    out = []
    for row in rows:
        acc = ops.zero
        for r, v in zip(row, vec):
            acc = ops.add(acc, ops.mul(r, v))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# prime-field systems

def test_kernel_vectors_annihilate():
    ops = FpOps(5)
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randrange(5) for _ in range(n)] for _ in range(m)]
        ker = kernel_basis(rows, n, ops)
        assert rank(rows, ops) + len(ker) == n
        for vec in ker:
            assert all(x == 0 for x in _matvec(rows, vec, ops))


def test_solve_solution_satisfies_system_mod_p():
    ops = FpOps(3)
    rng = random.Random(12)
    hits = 0
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
        target = [rng.randrange(3) for _ in range(n)]
        rhs = _matvec(rows, target, ops)
        sol = solve(rows, rhs, ops)
        assert sol is not None
        assert _matvec(rows, sol, ops) == rhs
        hits += 1
    assert hits == 60


def test_solve_reports_inconsistent_systems():
    ops = FpOps(3)
    rows = [[1, 0], [1, 0]]
    assert solve(rows, [1, 2], ops) is None


def test_fp_ops_reduce_mod_p():
    ops = FpOps(7)
    assert ops.sub(0, 5) == 2
    assert ops.neg(1) == 6
    assert ops.mul(3, 5) == 1


# ---------------------------------------------------------------------------
# rational systems

def test_rational_kernel_and_span():
    ops = QOps()
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    ker = kernel_basis(rows, 3, ops)
    assert len(ker) == 2
    for vec in ker:
        assert all(x == 0 for x in _matvec(rows, vec, ops))
    assert in_span([[1, 0, 0], [0, 1, 0]], [3, -2, 0], ops)
    assert not in_span([[1, 0, 0], [0, 1, 0]], [0, 0, 1], ops)


def test_rational_solve_exact():
    ops = QOps()
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(-1)]]
    rhs = [Fraction(5, 6), Fraction(0)]
    sol = solve(rows, rhs, ops)
    assert sol == [Fraction(1), Fraction(1)]


# ---------------------------------------------------------------------------
# the zero short-circuit in QOps

_Q_SAMPLES = [0, Fraction(0), Fraction(0, 7), 3, -2, Fraction(3),
              Fraction(-5, 7), Fraction(9, 4)]


def test_qops_zero_operands_match_plain_arithmetic():
    ops = QOps()
    plain = {"add": lambda a, b: a + b,
             "sub": lambda a, b: a - b,
             "mul": lambda a, b: a * b}
    for name, ref in plain.items():
        op = getattr(ops, name)
        for a in _Q_SAMPLES:
            for b in _Q_SAMPLES:
                got, want = op(a, b), ref(a, b)
                assert got == want, (name, a, b)
                assert type(got) is type(want), (name, a, b, got)


def test_qops_inverse_stays_exact_on_int_pivots():
    ops = QOps()
    assert ops.inv(3) == Fraction(1, 3)
    assert type(ops.inv(3)) is Fraction
    assert ops.inv(Fraction(-2, 5)) == Fraction(-5, 2)


class _PlainQOps(QOps):
    """QOps with the zero short-circuit taken out: plain Fraction arithmetic."""

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b


def _sparse_rational(rng, m, n, rank_):
    # rank_ rows with one or two nonzero entries (int zeros elsewhere, so
    # mixed int/Fraction operands occur), padded with negated copies
    base = []
    for _ in range(rank_):
        row = [0] * n
        for c in rng.sample(range(n), rng.randint(1, 2)):
            row[c] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        base.append(row)
    rows = [list(r) for r in base]
    while len(rows) < m:
        k = rng.randrange(rank_)
        rows.append([-x for x in base[k]])
    rng.shuffle(rows)
    return rows


def _densify(rows, rng):
    # P * rows for a dense invertible P: the same row space, few zeros
    m = len(rows)
    P = [[Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(m)]
         for _ in range(m)]
    for i in range(m):
        P[i][i] += 20   # strictly diagonally dominant, hence invertible
    assert rank(P, QOps()) == m
    n = len(rows[0])
    return [[sum((P[i][k] * rows[k][j] for k in range(m)), Fraction(0))
             for j in range(n)] for i in range(m)]


def test_rref_and_kernel_sparse_equal_dense_equivalent():
    rng = random.Random(2019)
    ops, plain = QOps(), _PlainQOps()
    nonzeros = [0, 0]
    for _ in range(25):
        m, n = rng.randint(2, 7), rng.randint(2, 8)
        sparse = _sparse_rational(rng, m, n, rng.randint(1, min(m, n)))
        dense = _densify(sparse, rng)
        nonzeros[0] += sum(x != 0 for r in sparse for x in r)
        nonzeros[1] += sum(x != 0 for r in dense for x in r)
        outputs = []
        for rows, o in ((sparse, ops), (sparse, plain), (dense, ops),
                        (dense, plain)):
            work = [list(r) for r in rows]
            piv = rref(work, o)
            reduced = work[:len(piv)]
            assert all(x == 0 for r in work[len(piv):] for x in r)
            assert all(type(x) is Fraction for r in reduced for x in r)
            ker = kernel_basis(rows, n, o)
            assert all(type(x) is Fraction for v in ker for x in v)
            outputs.append((piv, reduced, ker))
        # the reduced echelon form of a row space is unique, so every
        # route must give identical pivots, rows and kernel vectors
        assert all(out == outputs[0] for out in outputs[1:])
        for vec in outputs[0][2]:
            assert all(x == 0 for x in _matvec(sparse, vec, ops))
    assert nonzeros[1] > 1.5 * nonzeros[0]
