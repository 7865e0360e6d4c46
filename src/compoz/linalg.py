"""Exact dense linear algebra over a field context.

Matrices are tuples of row tuples whose entries are raw values of the
coefficient context K (the same raw layer ff.py uses).  Everything here is
Gaussian elimination at desk scale; no floating point is involved anywhere.
"""

from __future__ import annotations


def identity(K, n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(A):
    return tuple(zip(*A)) if A else ()


def mat_sub(K, A, B):
    sub = K._sub
    return tuple(
        tuple(sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_mul(K, A, B):
    if not A or not B:
        return ()
    add, mul = K._add, K._mul
    Bt = transpose(B)
    out = []
    for row in A:
        out_row = []
        for col in Bt:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = add(acc, mul(a, b))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def mat_pow(K, A, e):
    if e < 0:
        raise ValueError("negative matrix powers are not supported")
    n = len(A)
    result = identity(K, n)
    base = A
    while e:
        if e & 1:
            result = mat_mul(K, result, base)
        e >>= 1
        if e:
            base = mat_mul(K, base, base)
    return result


def mat_is_zero(K, A):
    return not any(c for row in A for c in row)


def rref(K, A):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    if not A:
        return (), ()
    rows = [list(r) for r in A]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = K._inv(rows[r][c])
        if inv != 1:
            rows[r] = [K._mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [K._sub(v, K._mul(f, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def mat_rank(K, A):
    return len(rref(K, A)[1])


def rank_factorization(K, A):
    """Write A as L @ R with L of shape m x r and R of shape r x n, r = rank."""
    R, pivots = rref(K, A)
    r = len(pivots)
    left = tuple(tuple(row[c] for c in pivots) for row in A)
    right = R[:r]
    return r, left, right


class LinearSolver:
    """Solve V x = b for a fixed full-column-rank set of columns V.

    The elimination is done once at construction; each solve costs one
    matrix-vector product.  solve() returns None when b is outside the
    column span.
    """

    __slots__ = ("K", "nrows", "ncols", "_transform")

    def __init__(self, K, columns):
        columns = [tuple(c) for c in columns]
        if not columns:
            raise ValueError("need at least one column")
        nrows = len(columns[0])
        ncols = len(columns)
        if any(len(c) != nrows for c in columns):
            raise ValueError("ragged columns")
        eye = identity(K, nrows)
        aug = tuple(
            tuple(columns[j][i] for j in range(ncols)) + eye[i]
            for i in range(nrows)
        )
        R, pivots = rref(K, aug)
        if tuple(range(ncols)) != pivots[:ncols] or len(pivots) < ncols:
            raise ValueError("columns are linearly dependent")
        self.K = K
        self.nrows = nrows
        self.ncols = ncols
        self._transform = tuple(row[ncols:] for row in R)

    def solve(self, b):
        K = self.K
        add, mul = K._add, K._mul
        y = []
        for row in self._transform:
            acc = 0
            for e, v in zip(row, b):
                if e and v:
                    acc = add(acc, mul(e, v))
            y.append(acc)
        if any(y[self.ncols :]):
            return None
        return tuple(y[: self.ncols])
