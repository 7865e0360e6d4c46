"""Composed products against iterated resultants computed by sympy alone.

For monic f and g over GF(p) and a monomial phi,

    Res_x(f(x), Res_y(g(y), z - phi(x, y))) = prod_(i,j) (z - phi(alpha_i, beta_j)),

which is f diamond g.  sympy computes both resultants over GF(p) with no
extension field, no roots and no compoz code, so this checks
composed_product with nothing shared but the inputs.  The shapes cover
gcd(m, n) = 1, 2 and 3, and m = 1.
"""

import random

import pytest

import compoz as cz

sympy = pytest.importorskip("sympy")

SHAPES = ((2, 2, 3), (3, 2, 3), (2, 3, 4), (2, 2, 4), (3, 3, 3), (2, 3, 6), (3, 1, 4))


def iterated_resultant(p, f, g, phi):
    """Ascending coefficients in [0, p) of Res_x(f, Res_y(g, z - phi))."""
    x, y, z = sympy.symbols("x y z")
    f_x = sum(c * x**i for i, c in enumerate(f.coeffs))
    g_y = sum(c * y**j for j, c in enumerate(g.coeffs))
    phi_xy = sum(
        c * x**i * y**j for i, row in enumerate(phi.rows) for j, c in enumerate(row)
    )
    inner = sympy.Poly(g_y, y, x, z, modulus=p).resultant(
        sympy.Poly(z - phi_xy, y, x, z, modulus=p)
    )
    outer = sympy.Poly(f_x, x, z, modulus=p).resultant(
        sympy.Poly(inner.as_expr(), x, z, modulus=p)
    )
    coeffs = sympy.Poly(outer.as_expr(), z, modulus=p).all_coeffs()[::-1]
    return [int(c) % p for c in coeffs]


@pytest.mark.parametrize("p, m, n", SHAPES)
def test_composed_product_is_the_iterated_resultant(p, m, n):
    K = cz.prime_field(p)
    rng = random.Random(f"resultant {p} {m} {n}")
    for _ in range(4):
        f = cz.random_irreducible(K, m, rng=rng)
        g = cz.random_irreducible(K, n, rng=rng)
        phi = cz.PhiPoly.random(K, m, n, rng)
        prod = cz.composed_product(f, g, cz.DiamondSpec.from_phi(phi))
        assert list(prod.coeffs) == iterated_resultant(p, f, g, phi)
