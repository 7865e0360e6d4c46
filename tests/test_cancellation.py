import random

import pytest

import compoz as cz
from compoz import linalg
from compoz.cancellation import ROUTES, run_routes
from conftest import (
    A2I_TIMES_C,
    A_ENTRIES,
    B_ENTRIES,
    PHI_CC_ROWS,
    columns,
    identity_rows,
    rows_of,
)


# -- Frobenius matrices ------------------------------------------------------------


def test_petr_berlekamp_frozen(worked):
    A = cz.petr_berlekamp_matrix(worked.f)
    B = cz.petr_berlekamp_matrix(worked.g)
    assert A == A_ENTRIES
    assert B == B_ENTRIES
    # packed into the fields kept on f and g, the q-power maps have orders 4 and 3
    for h, M, d in ((worked.f, A, 4), (worked.g, B, 3)):
        V = h.ctx.extension(h)
        assert linalg.mat_pow(V, columns(V, M), d) == columns(V, identity_rows(d))


def test_petr_berlekamp_degree_one(F3):
    M = cz.petr_berlekamp_matrix(cz.poly_from_text(F3, "1,1"))
    assert M == ((1,),)


def test_petr_berlekamp_rejects_reducible(F3):
    with pytest.raises(ValueError):
        cz.petr_berlekamp_matrix(cz.poly_from_text(F3, "2,0,1"))


def test_printed_matrix_product(worked):
    V = worked.f.ctx.extension(worked.f)
    A2 = linalg.mat_pow(V, columns(V, cz.petr_berlekamp_matrix(worked.f)), 2)
    C = columns(V, worked.phi_cc.rows)
    residual = [V._sub(x, c) for x, c in zip(linalg.mat_mul(V, A2, C), C)]  # (A^2 - I) C
    assert rows_of(V, residual) == A2I_TIMES_C
    C = columns(V, worked.phi_no_cc.rows)
    assert linalg.mat_mul(V, A2, C) == C


# -- the four routes on the frozen instances -----------------------------------------


def test_routes_on_worked_instances(worked):
    f, g, pair = worked.f, worked.g, worked.pair
    good = cz.DiamondSpec.from_phi(worked.phi_cc).bind(pair)
    bad = cz.DiamondSpec.from_phi(worked.phi_no_cc).bind(pair)
    assert cz.cc_direct(good).holds
    assert cz.cc_oracle(good).holds
    assert cz.matrix_cc_test(f, g, worked.phi_cc).holds
    assert cz.cc_by_coefficient_polys(f, g, worked.phi_cc).holds
    for verdict in (
        cz.cc_direct(bad),
        cz.cc_oracle(bad),
        cz.matrix_cc_test(f, g, worked.phi_no_cc),
        cz.cc_by_coefficient_polys(f, g, worked.phi_no_cc),
    ):
        assert not verdict.holds
        assert verdict.witness is not None


def test_run_routes_all_set(worked, F3):
    f, g, pair = worked.f, worked.g, worked.pair
    two = ["direct", "oracle"]

    def names(spec, p=pair):
        return list(run_routes(spec.bind(p)))

    for phi in (worked.phi_cc, worked.phi_no_cc):
        assert names(cz.DiamondSpec.from_phi(phi)) == list(ROUTES) == [
            "direct", "oracle", "coeffs", "matrix"
        ]
    linearized = cz.PhiPoly.build(F3, PHI_CC_ROWS, basis=cz.LINEARIZED)
    assert names(cz.DiamondSpec.from_phi(linearized)) == two
    bd_cc = cz.DiamondSpec.from_phi(worked.phi_cc).bind(pair)  # gcd(m, n) = 1
    assert names(cz.DiamondSpec.from_table(pair.m, pair.n, [bd_cc.value(0, 0)])) == two
    mismatched = cz.PhiPoly.build(F3, ((0, 2), (1, 0)))
    assert names(cz.DiamondSpec.from_phi(mismatched)) == two
    f2 = cz.random_irreducible(F3, 2, seed=0)
    g4 = cz.random_irreducible(F3, 4, seed=1)
    phi24 = cz.PhiPoly.random(F3, 2, 4, random.Random(0))
    assert names(cz.DiamondSpec.from_phi(phi24), cz.RootPair.build(f2, g4)) == two
    # a named route runs unconditionally and keeps its own precondition errors
    bd = cz.DiamondSpec.from_phi(mismatched).bind(pair)
    assert list(run_routes(bd, "direct")) == ["direct"]
    for route in ("coeffs", "matrix"):
        with pytest.raises(ValueError, match="phi shape does not match"):
            run_routes(bd, route)
    with pytest.raises(ValueError, match="unknown cancellation route"):
        run_routes(bd, "nope")
    # verdicts match the public route functions
    bad = cz.DiamondSpec.from_phi(worked.phi_no_cc).bind(pair)
    assert run_routes(bad) == {
        "direct": cz.cc_direct(bad),
        "oracle": cz.cc_oracle(bad),
        "coeffs": cz.cc_by_coefficient_polys(f, g, worked.phi_no_cc),
        "matrix": cz.matrix_cc_test(f, g, worked.phi_no_cc),
    }


def test_oracle_lcm_reasoning(worked):
    bad = cz.DiamondSpec.from_phi(worked.phi_no_cc).bind(worked.pair)
    gamma = bad.value(0, 0)
    r = cz.degree_over_base(gamma)
    assert r == 6
    # lcm(6, 4) = 12 passes, lcm(6, 3) = 6 fails, so the beta side survives
    # and the alpha side is the violation
    v = cz.cc_oracle(bad)
    assert v.witness.side == "alpha" and v.witness.k == 6
    # the witness satisfies the violated implication literally
    assert bad.value(6, 0) == bad.value(0, 0)
    assert worked.pair.alpha.frobenius(6) != worked.pair.alpha


def test_matrix_witness_is_literal(worked):
    bad = cz.DiamondSpec.from_phi(worked.phi_no_cc).bind(worked.pair)
    v = cz.matrix_cc_test(worked.f, worked.g, worked.phi_no_cc)
    w = v.witness
    assert w.side == "alpha" and w.k == 2
    assert bad.value(w.k, 0) == bad.value(0, 0)


def test_direct_witness_is_literal(F2, F3):
    rng = random.Random(21)
    found = 0
    for base, m, n in ((F2, 2, 3), (F3, 2, 4)):
        f = cz.random_irreducible(base, m, seed=1)
        g = cz.random_irreducible(base, n, seed=2)
        pair = cz.RootPair.build(f, g, seed=0)
        gmn = 2 if (m, n) == (2, 4) else 1
        for _ in range(60):
            phi = cz.PhiPoly.random(base, m, n, rng)
            bd = cz.DiamondSpec.from_phi(phi).bind(pair)
            v = cz.cc_direct(bd)
            if v.holds:
                continue
            found += 1
            w = v.witness
            assert w.k % gmn == 0
            if w.side == "alpha":
                assert bd.value(w.k, w.orbit) == bd.value(0, w.orbit)
                assert w.k % pair.m != 0
            else:
                assert bd.value(0, w.orbit + w.k) == bd.value(0, w.orbit)
                assert w.k % pair.n != 0
    assert found > 10


def test_example_2_3_instance(small):
    bd = cz.DiamondSpec.from_phi(small.phi).bind(small.pair)
    assert cz.cc_direct(bd).holds
    prod = bd.composed()
    assert prod.degree == 6 and cz.is_irreducible(prod)
    # weak cancellation fails: the value at beta repeats at beta + 1, which
    # is not a conjugate of beta
    a, b = small.pair.alpha, small.pair.beta
    assert small.phi.evaluate(a, b) == small.phi.evaluate(a, b + 1)
    assert all(b + 1 != b.frobenius(k) for k in range(3))


# -- extension-degree verification ---------------------------------------------------


def test_verify_extension_worked_sets(worked):
    f, g = worked.f, worked.g
    psi_good = [worked.phi_cc.col_poly(j) for j in range(3)]
    psi_bad = [worked.phi_no_cc.col_poly(j) for j in range(3)]
    assert [cz.poly_to_text(u) for u in psi_good] == ["0,1,1", "2", "1"]
    assert [cz.poly_to_text(u) for u in psi_bad] == ["0,0,1", "2", "1"]
    assert cz.verify_extension_degree(f, psi_good)
    assert not cz.verify_extension_degree(f, psi_bad)
    chi_good = [worked.phi_cc.row_poly(i) for i in range(4)]
    assert cz.verify_extension_degree(g, chi_good)


def test_verify_extension_prime_degree(F2):
    g = cz.poly_from_text(F2, "1,1,0,1")
    assert cz.verify_extension_degree(g, [cz.poly_from_text(F2, "0,1")])
    assert cz.verify_extension_degree(g, [cz.poly_from_text(F2, "0,0,1")])


def test_verify_extension_constants_fail(worked):
    consts = [cz.Polynomial.constant(worked.base, c) for c in (1, 2, 0)]
    assert not cz.verify_extension_degree(worked.f, consts)


def test_verify_extension_degree_one(F3):
    f = cz.poly_from_text(F3, "1,1")
    assert cz.verify_extension_degree(f, [])


def test_verify_extension_input_errors(worked, F3):
    with pytest.raises(ValueError):
        cz.verify_extension_degree(worked.f, [cz.poly_from_text(F3, "0,0,0,0,1")])
    with pytest.raises(ValueError):
        cz.verify_extension_degree(cz.poly_from_text(F3, "2,0,1"), [])


@pytest.mark.parametrize(
    "spec, m",
    [
        ("3", 4),  # one prime: u(alpha) in GF(9) exactly when the q^2-power fixes it
        ("2", 6),  # two primes, subfields GF(8) and GF(4)
        ("2^2:1,1,1", 3),  # a GF(4) base, so the ring GF(4)[X]/(f) is a two-level tower
    ],
    ids=["F3-m4", "F2-m6", "F4-m3"],
)
def test_verify_matches_subfield_membership(spec, m):
    base = cz.parse_field_spec(spec)
    if spec == "3":
        f = cz.poly_from_text(base, "2,0,1,0,1")
    else:
        f = cz.random_irreducible(base, m, seed=5)
    alpha = base.extension(f).generator()
    rng = random.Random(6)
    polys = [cz.Polynomial.constant(base, c) for c in base.all_elements()]
    polys += [cz.Polynomial(base, [base.random_element(rng) for _ in range(m)]) for _ in range(60)]
    seen = set()
    for u in polys:
        expected = cz.degree_over_base(u.evaluate(alpha)) == m
        assert cz.verify_extension_degree(f, [u]) == expected
        seen.add(expected)
    assert seen == {True, False}


# -- sampling ------------------------------------------------------------------------


def test_sample_zero(worked):
    assert cz.sample_cc_phi_matrices(worked.f, worked.g, 0) == []


def test_sample_contract(worked):
    phis = cz.sample_cc_phi_matrices(worked.f, worked.g, 5, seed=7)
    assert len(phis) == 5
    assert phis == cz.sample_cc_phi_matrices(worked.f, worked.g, 5, seed=7)
    for phi in phis:
        bd = cz.DiamondSpec.from_phi(phi).bind(worked.pair)
        assert cz.cc_oracle(bd).holds
        assert cz.is_irreducible(bd.composed())


def test_sample_needs_coprime(F3):
    f = cz.random_irreducible(F3, 2, seed=0)
    g = cz.random_irreducible(F3, 4, seed=1)
    with pytest.raises(ValueError):
        cz.sample_cc_phi_matrices(f, g, 1)


# -- matrix route edge cases -----------------------------------------------------------


def test_matrix_route_zero_matrix(worked):
    zero = cz.PhiPoly.build(worked.base, [[0] * 3 for _ in range(4)])
    assert not cz.matrix_cc_test(worked.f, worked.g, zero).holds


def test_matrix_route_needs_coprime(F3):
    f = cz.random_irreducible(F3, 2, seed=0)
    g = cz.random_irreducible(F3, 4, seed=1)
    phi = cz.PhiPoly.random(F3, 2, 4, random.Random(0))
    with pytest.raises(ValueError):
        cz.matrix_cc_test(f, g, phi)


# -- sufficient criteria -----------------------------------------------------------


def test_rank_criterion_cases(F3, worked):
    # a rank-3 matrix on (m, n) = (4, 3) clears max(2, 1)
    phi = cz.PhiPoly.build(F3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
    assert cz.rank_criterion(phi)
    assert not cz.rank_criterion(worked.phi_cc)  # rank 2, inconclusive
    assert not cz.rank_criterion(cz.PhiPoly.build(F3, [[0] * 3 for _ in range(4)]))


def test_degree_criterion_cases(F2, F3, small):
    assert cz.degree_criterion(small.phi)
    xy = cz.PhiPoly.build(F3, [(0, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 0)])
    assert cz.degree_criterion(xy)
    top = [[0] * 3 for _ in range(4)]
    top[3][2] = 1
    assert not cz.degree_criterion(cz.PhiPoly.build(F3, top))


def test_sufficiency_never_contradicts_direct(F2, F3):
    rng = random.Random(13)
    for base, m, n in ((F2, 2, 3), (F3, 4, 3), (F2, 2, 5)):
        f = cz.random_irreducible(base, m, rng=rng)
        g = cz.random_irreducible(base, n, rng=rng)
        pair = cz.RootPair.build(f, g, seed=0)
        for _ in range(40):
            phi = cz.PhiPoly.random(base, m, n, rng)
            implied = False
            if cz.rank_criterion(phi):
                implied = True
            if cz.degree_criterion(phi):
                implied = True
            if implied:
                assert cz.cc_direct(cz.DiamondSpec.from_phi(phi).bind(pair)).holds


# -- the separated-representation lemma -----------------------------------------------


def test_fixed_value_iff_columns_in_subfield(F3):
    # phi(alpha^(q^k), beta) = phi(alpha, beta) exactly when every psi_j(alpha)
    # lies in the fixed field of the k-th Frobenius power
    rng = random.Random(17)
    f = cz.random_irreducible(F3, 4, seed=3)
    g = cz.random_irreducible(F3, 3, seed=4)
    pair = cz.RootPair.build(f, g, seed=1)
    for _ in range(25):
        phi = cz.PhiPoly.random(F3, 4, 3, rng)
        bd = cz.DiamondSpec.from_phi(phi).bind(pair)
        for k in (1, 2, 3):
            lhs = bd.value(k, 0) == bd.value(0, 0)
            psis = [phi.col_poly(j).evaluate(pair.alpha) for j in range(3)]
            rhs = all(v.frobenius(k) == v for v in psis)
            assert lhs == rhs
