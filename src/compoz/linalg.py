"""Exact dense linear algebra over a field context, with no floating point.

Products and powers work entry by entry on tuples of row tuples of raws of
the coefficient context K (ff.py's raw layer).  Elimination takes each row
as one raw of a context V over K, entry j in slot j (a field's raws are
rows over its base; K[X]/(X^c) packs any others), so a row operation is one
V._scalar_mul and one V._sub at every depth.
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


def _reduce(V, basis, x, W=None):
    """(x - sum f_t row_t, sum f_t comb_t in W or 0), f_t the entry of x at
    pivot t when it is reached; row t is 0 at the pivots before it, so no
    step refills a cleared column."""
    S, c = V._stride, 0
    for j, row, comb in basis:
        f = x >> (S * j) & ((1 << S) - 1)
        if f:
            x = V._sub(x, V._scalar_mul(f, row))
            if W is not None:
                c = W._add(c, W._scalar_mul(f, comb))
    return x, c


def echelon(V, rows, W=None):
    """Echelon basis of the span of rows: (pivot j, row with 1 at j and 0
    before j, comb) for each row left nonzero by reducing it against the
    basis so far.  comb is None, or the raw of W (over K, of degree >=
    len(rows)) whose coordinate i is the coefficient of rows[i]."""
    S, basis = V._stride, []
    for i, row in enumerate(rows):
        x, c = _reduce(V, basis, row, W)
        if x:
            j = ((x & -x).bit_length() - 1) // S
            inv = V.lower._inv(x >> (S * j) & ((1 << S) - 1))
            comb = None if W is None else W._scalar_mul(inv, W._sub(1 << (W._stride * i), c))
            basis.append((j, V._scalar_mul(inv, x), comb))
    return basis


def mat_rank(V, rows):
    return len(echelon(V, rows))
