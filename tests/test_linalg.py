import compoz as cz
from compoz import linalg


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


def test_rank_over_extension_field(F2):
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    a = gf4.generator().raw
    rows = ((1, a), (a, gf4._mul(a, a)))
    # second row is a times the first
    assert linalg.mat_rank(gf4, rows) == 1

