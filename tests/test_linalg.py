import random

import pytest

import compoz as cz
from compoz import linalg


def _random_matrix(ctx, rows, cols, rng):
    return tuple(
        tuple(ctx._random_raw(rng) for _ in range(cols)) for _ in range(rows)
    )


def test_identity_and_pow(F3):
    I = linalg.identity(F3, 3)
    A = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    assert linalg.mat_pow(F3, A, 3) == I
    assert linalg.mat_pow(F3, A, 0) == I
    assert linalg.mat_mul(F3, A, I) == A


def test_rank_examples(F3):
    assert linalg.mat_rank(F3, ((0, 2, 1), (1, 0, 0), (1, 0, 0), (0, 0, 0))) == 2
    assert linalg.mat_rank(F3, ((0, 0), (0, 0))) == 0
    assert linalg.mat_rank(F3, linalg.identity(F3, 4)) == 4


def test_rank_factorization_reconstructs(F3):
    rng = random.Random(0)
    for _ in range(25):
        A = _random_matrix(F3, 4, 3, rng)
        r, left, right = linalg.rank_factorization(F3, A)
        if r == 0:
            assert linalg.mat_is_zero(F3, A)
            continue
        assert linalg.mat_mul(F3, left, right) == A
        assert linalg.mat_rank(F3, A) == r


def test_rank_over_extension_field(F2):
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    a = gf4.generator().raw
    rows = ((1, a), (a, gf4._mul(a, a)))
    # second row is a times the first
    assert linalg.mat_rank(gf4, rows) == 1


def test_linear_solver(F3):
    rng = random.Random(1)
    cols = [(1, 0, 2), (0, 1, 1)]
    solver = linalg.LinearSolver(F3, cols)
    for _ in range(20):
        x = (rng.randrange(3), rng.randrange(3))
        b = tuple(
            (cols[0][i] * x[0] + cols[1][i] * x[1]) % 3 for i in range(3)
        )
        assert solver.solve(b) == x
    assert solver.solve((0, 0, 1)) is None


def test_linear_solver_rejects_dependent_columns(F3):
    with pytest.raises(ValueError):
        linalg.LinearSolver(F3, [(1, 2), (2, 4 % 3)])
