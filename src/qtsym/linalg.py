"""Exact linear algebra: matrix inversion and polynomial system solves.

invert_matrix (Gauss-Jordan over Q) serves symfunc's monomial-to-power-sum
transition. solve_bareiss, exported by the package, is fraction-free
(Bareiss) elimination over polynomial matrices with minimal-degree
pivots, which keeps entries polynomial and limits swell.
Overdetermined systems are allowed; the caller re-verifies the solution.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import P_ONE, P_ZERO, Polynomial, RationalFunction, rf


class SingularSystem(ArithmeticError):
    """The linear system has no unique solution."""


def _size_key(p):
    return (p.total_degree(), p.num_terms())


def solve_bareiss(rows, rhs):
    """Solve rows * x = rhs exactly for polynomial matrices.

    rows is a list of lists of Polynomial (or int/Fraction), rhs a list of
    the same height. The number of rows may exceed the number of
    unknowns; redundant rows must be consistent. Returns a list of
    RationalFunction. Raises SingularSystem when no unique solution
    exists.
    """
    m = len(rows)
    if m == 0:
        raise SingularSystem("no equations")
    n = len(rows[0])
    a = []
    for row, r in zip(rows, rhs):
        if len(row) != n:
            raise ValueError("ragged matrix")
        a.append([_as_poly(x) for x in row] + [_as_poly(r)])
    if m < n:
        raise SingularSystem("underdetermined system")

    col_perm = list(range(n))
    prev = P_ONE
    rank = 0
    for k in range(n):
        pivot = None
        best = None
        for i in range(rank, m):
            for j in range(k, n):
                entry = a[i][j]
                if not entry.is_zero():
                    key = _size_key(entry)
                    if best is None or key < best:
                        best = key
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != rank:
            a[pi], a[rank] = a[rank], a[pi]
        if pj != k:
            for row in a:
                row[pj], row[k] = row[k], row[pj]
            col_perm[pj], col_perm[k] = col_perm[k], col_perm[pj]
        pv = a[rank][k]
        for i in range(rank + 1, m):
            row_i = a[i]
            head = row_i[k]
            for j in range(k + 1, n + 1):
                val = row_i[j] * pv - head * a[rank][j]
                row_i[j] = val.divexact(prev) if prev != P_ONE else val
            row_i[k] = P_ZERO
        prev = pv
        rank += 1

    if rank < n:
        raise SingularSystem("rank %d < %d unknowns" % (rank, n))
    for i in range(rank, m):
        if not a[i][n].is_zero():
            raise SingularSystem("inconsistent redundant row")

    # back substitution over the fraction field
    sol = [None] * n
    for k in range(n - 1, -1, -1):
        acc = rf(a[k][n])
        for j in range(k + 1, n):
            acc = acc - rf(a[k][j]) * sol[j]
        sol[k] = acc / rf(a[k][k])
    out = [None] * n
    for pos, var in enumerate(col_perm):
        out[var] = sol[pos]
    return out


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    if isinstance(x, RationalFunction) and x.is_polynomial():
        return x.num
    raise TypeError("expected polynomial entry, got %r" % (x,))


def invert_matrix(rows):
    """Inverse of a square matrix of ints and Fractions, as Fractions.
    Gauss-Jordan; raises SingularSystem when singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            raise SingularSystem("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            factor = aug[i][col]
            if i != col and factor:
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
