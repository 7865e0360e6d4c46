import random

import pytest

import compoz as cz
from compoz import linalg
from compoz.ff import FieldContext
from conftest import columns, identity_rows, rows_of


def ring(K, c):
    """K[X]/(X^c): its raws are the vectors of length c over K."""
    return FieldContext(K.p, lower=K, modulus=(0,) * c + (1,))


def packed(K, rows):
    """(V, raws): the rows as raws of K[X]/(X^c), c the row length, the
    packed rows that mat_rank takes."""
    V = ring(K, len(rows[0]))
    return V, [V._pack(r) for r in rows]


def random_rank_deficient(K, rng):
    """A random nr x nc matrix over K, as row tuples, of rank at most a
    random k <= min(nr, nc): the product of random nr x k and k x nc
    matrices, multiplied as columns of K[X]/(X^nr)."""
    nr, nc = rng.randint(1, 7), rng.randint(1, 7)
    k = rng.randint(0, min(nr, nc))
    if not k:
        return tuple(tuple([0] * nc) for _ in range(nr))
    left = [[K._random_raw(rng) for _ in range(k)] for _ in range(nr)]
    right = [[K._random_raw(rng) for _ in range(nc)] for _ in range(k)]
    V = ring(K, nr)
    return rows_of(V, linalg.mat_mul(V, columns(V, left), columns(V, right)))


def test_combine_applies_the_columns(F3):
    V = ring(F3, 3)
    cols = columns(V, ((1, 2, 0), (0, 1, 1), (2, 0, 1)))
    assert linalg.combine(V, cols, (0, 0, 0)) == 0
    assert V._unpack(linalg.combine(V, cols, (1, 0, 0))) == (1, 0, 2)
    # 2 (1, 0, 2) + (2, 1, 0) + (0, 1, 1) = (1, 2, 2) over GF(3)
    assert V._unpack(linalg.combine(V, cols, (2, 1, 1))) == (1, 2, 2)


def test_identity_and_pow(F3):
    V = ring(F3, 3)
    I = columns(V, identity_rows(3))
    A = columns(V, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert linalg.mat_pow(V, A, 3) == I
    assert linalg.mat_pow(V, A, 0) == I
    assert linalg.mat_mul(V, A, I) == A


def test_rank_examples(F3):
    assert linalg.mat_rank(*packed(F3, ((0, 2, 1), (1, 0, 0), (1, 0, 0), (0, 0, 0)))) == 2
    assert linalg.mat_rank(*packed(F3, ((0, 0), (0, 0)))) == 0
    assert linalg.mat_rank(*packed(F3, identity_rows(4))) == 4


def test_rank_over_extension_field(F2):
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    a = gf4.generator().raw
    rows = ((1, a), (a, gf4._mul(a, a)))
    # second row is a times the first
    assert linalg.mat_rank(*packed(gf4, rows)) == 1
    # a field's own raws are rows over its base: a^2 = a + 1
    assert linalg.mat_rank(gf4, [1, a, gf4._mul(a, a)]) == 2


def test_rank_matches_sympy_over_prime_fields():
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(0)
    for p in (2, 3, 5, 7):
        K, F = cz.prime_field(p), GF(p)
        for _ in range(50):
            rows = random_rank_deficient(K, rng)
            expected = DomainMatrix(
                [[F(v) for v in r] for r in rows], (len(rows), len(rows[0])), F
            ).rank()
            assert linalg.mat_rank(*packed(K, rows)) == expected


def test_echelon_combinations_give_the_basis_rows():
    # over GF(4) and GF(9) the rows are depth-2 raws; each basis row must be
    # the combination of the input rows that echelon reports for it
    rng = random.Random(1)
    for spec in ("2^2:1,1,1", "3^2:2,2,1"):
        K = cz.parse_field_spec(spec)
        for _ in range(30):
            V, rows = packed(K, random_rank_deficient(K, rng))
            W = ring(K, len(rows))
            for j, row, comb in linalg.echelon(V, rows, W):
                assert row >> (V._stride * j) & ((1 << V._stride) - 1) == 1
                assert row & ((1 << (V._stride * j)) - 1) == 0
                assert linalg.combine(V, rows, W._unpack(comb)) == row
