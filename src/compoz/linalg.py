"""Exact dense linear algebra over a field context, with no floating point.

A vector over K is one raw of a context V over K (V.lower = K), entry j in
slot j: a field's raws are vectors over its base, and K[X]/(X^c) packs any
others.  A matrix is a list of such raws: its rows when eliminating, its
columns (the images of the basis vectors) when multiplying.  So a row
operation is one V._scalar_mul and one V._sub, and applying a matrix to a
vector is one combine, at every depth.
"""

from __future__ import annotations


def combine(V, cols, coords):
    """sum coords[i] * cols[i] in V, coords raws of V.lower: the image of
    the vector coords under the matrix with columns cols."""
    add, smul, acc = V._add, V._scalar_mul, 0
    for c, col in zip(coords, cols):
        if c:
            acc = add(acc, smul(c, col))
    return acc


def mat_mul(V, A, B):
    """Columns of A B, for A and B lists of columns in V."""
    return [combine(V, A, V._unpack(b)) for b in B]


def mat_pow(V, A, e):
    """Columns of A^e, for A a square list of columns in V."""
    if e < 0:
        raise ValueError("negative matrix powers are not supported")
    if not e:
        return [1 << (V._stride * i) for i in range(len(A))]
    result = A  # square and multiply from the top bit down
    for bit in bin(e)[3:]:
        result = mat_mul(V, result, result)
        if bit == "1":
            result = mat_mul(V, result, A)
    return result


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
