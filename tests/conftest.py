import pytest
from hypothesis import HealthCheck, settings

import compoz as cz
from compoz.ff import FieldElement, _orbit

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# The showcase instance over GF(3): f of degree 4, g of degree 3, one phi
# whose product cancels conjugates and one whose product does not, with the
# expected outputs frozen.
WORKED_F = "2,0,1,0,1"
WORKED_G = "1,2,0,1"
PHI_CC_ROWS = ((0, 2, 1), (1, 0, 0), (1, 0, 0), (0, 0, 0))
PHI_NO_CC_ROWS = ((0, 2, 1), (0, 0, 0), (1, 0, 0), (0, 0, 0))
PRODUCT_CC = "2,1,2,1,0,1,1,2,1,0,1,1,1"
FACTOR_NO_CC = "1,2,1,1,0,2,1"
A_ENTRIES = ((1, 0, 2, 0), (0, 0, 0, 2), (0, 0, 2, 0), (0, 1, 0, 0))
B_ENTRIES = ((1, 2, 1), (0, 1, 1), (0, 0, 1))
A2I_TIMES_C = ((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0))


def identity_rows(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def columns(V, rows):
    """The columns of a matrix given by row tuples, each packed into V:
    the layout linalg multiplies."""
    return [V._pack(c) for c in zip(*rows)]


def rows_of(V, cols):
    """Inverse of columns: the row tuples of a list of column raws of V."""
    return tuple(zip(*(V._unpack(c) for c in cols)))


def project_poly_to_base(f):
    """f with every coefficient moved down to the base field; ValueError if
    one is not in it."""
    ext = f.ctx
    return cz.Polynomial(ext.lower, [ext.to_base(c) for c in f.coefficients()])


def orbit_expansion(a):
    """Reference minimal polynomial of a over the next-lower field: the
    product of (X - c) over the conjugates c of a, multiplied out in a's
    field and moved down to the base."""
    ctx = a.ctx
    roots = [FieldElement._wrap(ctx, c) for c in _orbit(ctx, a.raw)]
    return project_poly_to_base(cz.Polynomial.from_roots(ctx, roots))


def intermediate_by_cells(bd, k, l, small):
    """Reference intermediate factorization of a bound diamond: factor
    mu * l + nu is the product of (X - value) over the grid cells
    (k i + mu, l j + nu), multiplied out in the root field and moved down to
    small = GF(q^(k l)), or to the base when k = l = 1."""
    pair = bd.pair
    emb = None if k * l == 1 else cz.Embedding.find(small, pair.ctx)
    factors = []
    for mu in range(k):
        for nu in range(l):
            roots = [
                bd.value(k * i + mu, l * j + nu)
                for i in range(pair.m // k)
                for j in range(pair.n // l)
            ]
            product = cz.Polynomial.from_roots(pair.ctx, roots)
            factors.append(
                project_poly_to_base(product) if emb is None else emb.project_poly(product)
            )
    return factors


def conjugate_factors_by_roots(f, k, small):
    """Reference factorization of an irreducible f of degree m over
    small = GF(q^k), k | m: factor t is the product of (X - alpha^(q^(t + k i))),
    i < m / k, for alpha the class of X in GF(q)[X]/(f), multiplied out
    there and moved down to small."""
    ctx = f.ctx.extension(f)
    alpha = ctx.generator()
    emb = cz.Embedding.find(small, ctx)
    return [
        emb.project_poly(cz.Polynomial.from_roots(
            ctx, [alpha.frobenius(t + k * i) for i in range(f.degree // k)]
        ))
        for t in range(k)
    ]


@pytest.fixture(scope="session")
def F2():
    return cz.prime_field(2)


@pytest.fixture(scope="session")
def F3():
    return cz.prime_field(3)


class WorkedExample:
    def __init__(self):
        F3 = cz.prime_field(3)
        self.base = F3
        self.f = cz.poly_from_text(F3, WORKED_F)
        self.g = cz.poly_from_text(F3, WORKED_G)
        self.phi_cc = cz.PhiPoly.build(F3, PHI_CC_ROWS)
        self.phi_no_cc = cz.PhiPoly.build(F3, PHI_NO_CC_ROWS)
        self.pair = cz.RootPair.build(self.f, self.g)
        self.product_cc = cz.poly_from_text(F3, PRODUCT_CC)
        self.factor_no_cc = cz.poly_from_text(F3, FACTOR_NO_CC)


@pytest.fixture(scope="session")
def worked():
    return WorkedExample()


class SmallExample:
    """The GF(2) instance: f = X^2+X+1, g = X^3+X+1, phi = X Y (Y + 1)."""

    def __init__(self):
        F2 = cz.prime_field(2)
        self.base = F2
        self.f = cz.poly_from_text(F2, "1,1,1")
        self.g = cz.poly_from_text(F2, "1,1,0,1")
        self.phi = cz.PhiPoly.build(F2, ((0, 0, 0), (0, 1, 1)))
        self.pair = cz.RootPair.build(self.f, self.g)


@pytest.fixture(scope="session")
def small():
    return SmallExample()
