"""The matrix route against the coefficient-polynomial route.

Both decide cancellation for a monomial phi of shape deg f x deg g over
coprime degrees, and both take the witness m/p (alpha) or n/p (beta) of the
smallest prime p whose subfield test fails.  So on every such phi,
matrix_cc_test must return exactly the verdict and witness of
cc_by_coefficient_polys, with only the route name differing.  The phis are
random, dense and sparse (most entries zero, so that many fail), over prime
and non-prime bases, with m = 1 and with degrees that have two primes.
"""

import random

import pytest

import compoz as cz

FIELDS = ("2", "3", "2^2:1,1,1", "3^2:2,2,1")
SHAPES = ((2, 3), (4, 3), (6, 5), (1, 3), (3, 1))


def sparse_phi(K, m, n, rng):
    rows = tuple(
        tuple(K._random_raw(rng) if rng.random() < 0.25 else 0 for _ in range(n))
        for _ in range(m)
    )
    return cz.PhiPoly._from_raw(K, rows, cz.MONOMIAL)


@pytest.mark.parametrize("spec", FIELDS)
def test_matrix_route_matches_coeffs_route(spec):
    K = cz.parse_field_spec(spec)
    rng = random.Random(f"matrix route {spec}")
    sides = set()
    for m, n in SHAPES:
        f = cz.random_irreducible(K, m, rng=rng)
        g = cz.random_irreducible(K, n, rng=rng)
        for draw in (cz.PhiPoly.random, sparse_phi):
            for _ in range(12):
                phi = draw(K, m, n, rng)
                coeffs = cz.cc_by_coefficient_polys(f, g, phi)
                assert cz.matrix_cc_test(f, g, phi) == coeffs._replace(route="matrix")
                sides.add(coeffs.witness.side if coeffs.witness else None)
    # both sides fail somewhere and some phi holds, so the witnesses are exercised
    assert sides == {"alpha", "beta", None}
