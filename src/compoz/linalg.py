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

