"""Metamorphic checks from the symmetries of the diamond product.

Swapping the roles of f and g while transposing phi, or carrying the whole
instance to another presentation of the base field, must leave the
composed product and every cancellation verdict unchanged.  Conjugating
every coefficient of f, g and phi by the p-power map must conjugate every
coefficient of the product and leave every verdict unchanged.
"""

import random

import pytest

import compoz as cz
from compoz.cancellation import run_routes

# gcd(m, n) = 1, 2 and 3, and m = 1
PAIRS = ((2, 3), (1, 3), (2, 4), (3, 3), (3, 6))


def _holds(bd):
    return {name: v.holds for name, v in run_routes(bd).items()}


@pytest.mark.parametrize("field", ["2", "3", "2^2:1,1,1"])
@pytest.mark.parametrize("m, n", PAIRS)
def test_transposed_phi_on_swapped_pair(field, m, n):
    # phi(alpha_i, beta_j) = phi^T(beta_j, alpha_i) on every conjugate pair
    base = cz.parse_field_spec(field)
    rng = random.Random(f"transpose {field} {m} {n}")
    f = cz.random_irreducible(base, m, rng=rng)
    g = cz.random_irreducible(base, n, rng=rng)
    pair, swapped = cz.RootPair.build(f, g), cz.RootPair.build(g, f)
    for basis in (cz.MONOMIAL, cz.LINEARIZED):
        for _ in range(2):
            phi = cz.PhiPoly.random(base, m, n, rng, basis=basis)
            phi_t = phi._replace(rows=tuple(zip(*phi.rows)))
            bd = cz.DiamondSpec.from_phi(phi).bind(pair)
            bd_t = cz.DiamondSpec.from_phi(phi_t).bind(swapped)
            assert bd_t.composed() == bd.composed()
            assert _holds(bd_t) == _holds(bd)


@pytest.mark.parametrize("m, n", PAIRS)
def test_base_field_presentation_change(m, n):
    # an isomorphism GF(3)[t]/(t^2 + 2t + 2) -> GF(3)[t]/(t^2 + 1) commutes
    # with the 9-th power map, so it carries roots to roots and diamond
    # values to diamond values
    A = cz.parse_field_spec("3^2:2,2,1")
    B = cz.parse_field_spec("3^2:1,0,1")
    emb = cz.Embedding.find(A, B)
    rng = random.Random(f"presentation {m} {n}")
    f = cz.random_irreducible(A, m, rng=rng)
    g = cz.random_irreducible(A, n, rng=rng)
    f_b, g_b = f.map_coefficients(emb, B), g.map_coefficients(emb, B)
    pair, pair_b = cz.RootPair.build(f, g), cz.RootPair.build(f_b, g_b)
    for basis in (cz.MONOMIAL, cz.LINEARIZED):
        for _ in range(2):
            entries = [[A.random_element(rng) for _ in range(n)] for _ in range(m)]
            phi = cz.PhiPoly.build(A, entries, basis)
            phi_b = cz.PhiPoly.build(B, [[emb(c) for c in row] for row in entries], basis)
            rep = cz.factor_report(f, g, cz.DiamondSpec.from_phi(phi), pair=pair)
            rep_b = cz.factor_report(f_b, g_b, cz.DiamondSpec.from_phi(phi_b), pair=pair_b)
            assert rep_b.cc_holds == rep.cc_holds
            assert sorted(e.degree for e in rep_b.entries) == sorted(
                e.degree for e in rep.entries
            )
            assert rep.product.map_coefficients(emb, B) == rep_b.product


@pytest.mark.parametrize("field", ["2^2:1,1,1", "3^2:2,2,1"])
@pytest.mark.parametrize("m, n", ((2, 3), (1, 3), (2, 4), (3, 3), (3, 2)))
def test_p_power_conjugated_coefficients(field, m, n):
    # sigma: c -> c^p is an automorphism of GF(p^e) that commutes with the
    # q-power map; extended to the root field it carries roots of f and g to
    # roots of f^sigma and g^sigma, and each diamond value to the value of
    # phi^sigma there
    base = cz.parse_field_spec(field)

    def sigma(c):
        return c.frobenius()

    rng = random.Random(f"conjugate {field} {m} {n}")
    f = cz.random_irreducible(base, m, rng=rng)
    g = cz.random_irreducible(base, n, rng=rng)
    f_s, g_s = f.map_coefficients(sigma, base), g.map_coefficients(sigma, base)
    pair, pair_s = cz.RootPair.build(f, g), cz.RootPair.build(f_s, g_s)
    for basis in (cz.MONOMIAL, cz.LINEARIZED):
        for _ in range(4):
            entries = [[base.random_element(rng) for _ in range(n)] for _ in range(m)]
            phi = cz.PhiPoly.build(base, entries, basis)
            phi_s = cz.PhiPoly.build(base, [[sigma(c) for c in row] for row in entries], basis)
            bd = cz.DiamondSpec.from_phi(phi).bind(pair)
            bd_s = cz.DiamondSpec.from_phi(phi_s).bind(pair_s)
            assert bd_s.composed() == bd.composed().map_coefficients(sigma, base)
            assert _holds(bd_s) == _holds(bd)
