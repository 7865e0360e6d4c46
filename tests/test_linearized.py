import itertools
import random

import pytest

import compoz as cz
from compoz import ff, linalg
from conftest import MEMO_FIELDS, memo_field


@pytest.fixture(scope="module")
def pair23_f2():
    F2 = cz.prime_field(2)
    cm = cz.extension_field(F2, 2, seed=1)
    cn = cz.extension_field(F2, 3, seed=2)
    common = cz.extension_field(F2, 6, seed=3)
    return F2, cm, cn, common


@pytest.fixture(scope="module")
def pair23_f3():
    F3 = cz.prime_field(3)
    cm = cz.extension_field(F3, 2, seed=1)
    cn = cz.extension_field(F3, 3, seed=2)
    common = cz.extension_field(F3, 6, seed=3)
    return F3, cm, cn, common


# -- normality -----------------------------------------------------------------


def test_one_is_not_normal(F2):
    ctx = cz.extension_field(F2, 3, seed=0)
    assert not cz.is_normal(ctx.one)
    assert not cz.is_normal(ctx.zero)


def test_quadratic_generator_is_normal(F2):
    ctx = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    assert cz.is_normal(ctx.generator())


def test_normality_invariant_under_frobenius(F3):
    ctx = cz.extension_field(F3, 4, seed=0)
    rng = random.Random(0)
    for _ in range(15):
        a = ctx.random_element(rng)
        assert cz.is_normal(a) == cz.is_normal(a.frobenius(1))


def test_low_degree_elements_not_normal(F2):
    ctx = cz.extension_field(F2, 4, seed=0)
    for a in ctx.all_elements():
        if cz.degree_over_base(a) < 4:
            assert not cz.is_normal(a)


def test_random_normal_element_contract(F2):
    ctx = cz.extension_field(F2, 3, seed=0)
    a = cz.random_normal_element(ctx, seed=5)
    assert cz.is_normal(a)
    assert cz.degree_over_base(a) == 3
    assert a == cz.random_normal_element(ctx, seed=5)
    lin = cz.extension_field(F2, 1, seed=0)
    b = cz.random_normal_element(lin, seed=0)
    assert not b.is_zero


def test_is_normal_matches_gcd_route():
    # over GF(4) and GF(9) the conjugates are depth-2 raws, rows over the base
    for spec, m in (("2", 2), ("2", 3), ("2", 4), ("3", 2), ("3", 3),
                    ("2^2:1,1,1", 2), ("2^2:1,1,1", 3), ("3^2:2,2,1", 2)):
        ctx = cz.extension_field(cz.parse_field_spec(spec), m, seed=0)
        for a in ctx.all_elements():
            assert cz.is_normal(a) == cz.normal_by_gcd(a)


# -- facts kept on an element ----------------------------------------------------


@pytest.mark.parametrize("base_spec, degrees", MEMO_FIELDS)
def test_kept_normality_matches_fresh_elements_and_gcd_route(base_spec, degrees):
    K = memo_field(base_spec, degrees)
    # degree_over_base reads the kept orbit length; the fresh element walks
    for a in K.all_elements():
        normal = cz.is_normal(a)
        assert a._normality is not None
        fresh = ff.FieldElement._wrap(K, a.raw)
        assert cz.is_normal(a) == normal == cz.is_normal(fresh) == cz.normal_by_gcd(a)
        assert cz.degree_over_base(a) == len(ff._orbit(K, a.raw))


@pytest.mark.parametrize("base_spec, degrees", MEMO_FIELDS)
def test_is_normal_false_off_the_orbit_length(base_spec, degrees):
    # is_normal(a, r) for every r, on a fresh element each time and then on
    # one element whose orbit length and rank are kept
    K = memo_field(base_spec, degrees)
    for a in K.all_elements():
        r0 = len(ff._orbit(K, a.raw))
        degrees_asked = range(K.degree + 2)
        before = [cz.is_normal(ff.FieldElement._wrap(K, a.raw), r) for r in degrees_asked]
        after = [cz.is_normal(a, r) for r in degrees_asked]
        assert before == after
        assert not any(v for r, v in zip(degrees_asked, after) if r != r0)


def test_normal_pair_facts_are_derived_once(pair23_f3, monkeypatch):
    # one Berlekamp-Massey run and one elimination per element of a fixed
    # pair, across every call that reads its minimal polynomial or normality
    F3, cm, cn, common = pair23_f3
    a, b = cz.embed_pair(
        cz.random_normal_element(cm, seed=1),
        cz.random_normal_element(cn, seed=2),
        seed=3,
    )
    minpolys, ranks = [], []

    def pminpoly_spy(K, x, d):
        minpolys.append(x)
        return pminpoly(K, x, d)

    def rank_spy(V, rows):
        rows = list(rows)
        ranks.append(rows[0])
        return mat_rank(V, rows)

    pminpoly, mat_rank = ff._pminpoly, linalg.mat_rank
    monkeypatch.setattr(ff, "_pminpoly", pminpoly_spy)
    monkeypatch.setattr(linalg, "mat_rank", rank_spy)
    rng = random.Random(4)
    for _ in range(3):
        assert cz.minimal_polynomial(a).degree == 2
        assert cz.minimal_polynomial(b).degree == 3
        assert cz.is_normal(a, 2) and cz.is_normal(b, 3)
        pair = cz.RootPair.from_elements(a, b)
        assert (pair.m, pair.n) == (2, 3)
        phi = cz.PhiPoly.random(F3, 2, 3, rng, basis="linearized")
        cz.staircase_normal_test(phi, a, b)
    assert sorted(minpolys) == sorted(ranks) == sorted([a.raw, b.raw])


def test_non_normal_argument_refused_on_every_call(pair23_f3):
    # a trace-zero element of GF(9) has two conjugates but rank 1; 1 has one
    F3, cm, cn, common = pair23_f3
    ea = cz.Embedding.find(cm, common)
    b = cz.Embedding.find(cn, common)(cz.random_normal_element(cn, seed=2))
    trace_zero = next(x for x in cm.all_elements()
                      if cz.degree_over_base(x) == 2 and not cz.is_normal(x))
    phi = cz.PhiPoly.build(F3, [(1, 0, 0), (0, 0, 0)], basis="linearized")
    for alpha in (ea(trace_zero), common.one):
        for _ in range(3):
            with pytest.raises(ValueError, match="not normal"):
                cz.staircase_normal_test(phi, alpha, b)
            assert alpha._normality is not None
            with pytest.raises(ValueError):
                cz.shifted_sum_is_normal(alpha, b)


# -- bilinear cancellation test ---------------------------------------------------


def test_bilinear_single_entry(F3):
    rows = [[0] * 3 for _ in range(2)]
    rows[1][2] = 2
    phi = cz.PhiPoly.build(F3, rows, basis="linearized")
    assert cz.bilinear_cc_test(phi)


def test_bilinear_shift_invariant_matrix(F2):
    # rows with period 2 on m = 4 are fixed by the shift by 2
    rows = [(1, 0, 1), (0, 1, 0), (1, 0, 1), (0, 1, 0)]
    phi = cz.PhiPoly.build(F2, rows, basis="linearized")
    assert not cz.bilinear_cc_test(phi)


def test_bilinear_zero_matrix(F2):
    phi = cz.PhiPoly.build(F2, [[0] * 3 for _ in range(2)], basis="linearized")
    assert not cz.bilinear_cc_test(phi)


def test_bilinear_needs_linearized_basis(F2):
    phi = cz.PhiPoly.build(F2, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        cz.bilinear_cc_test(phi)


def test_bilinear_agrees_with_direct_on_normal_pairs(pair23_f2):
    F2, cm, cn, common = pair23_f2
    rng = random.Random(31)
    ea = cz.Embedding.find(cm, common)
    eb = cz.Embedding.find(cn, common)
    for _ in range(40):
        phi = cz.PhiPoly.random(F2, 2, 3, rng, basis="linearized")
        expected = cz.bilinear_cc_test(phi)
        for _ in range(3):
            a = ea(cz.random_normal_element(cm, rng=rng))
            b = eb(cz.random_normal_element(cn, rng=rng))
            bd = cz.DiamondSpec.from_phi(phi).bind(cz.RootPair.from_elements(a, b))
            assert cz.cc_direct(bd).holds == expected


# -- q-polynomial degree criterion ---------------------------------------------
# psi is the associate of sum c_i X^(q^i): the Polynomial with coefficient c_i


def _evaluate_qpoly(F, coeffs, x):
    # an m x 1 linearized phi is sum c_i X^(q^i) * Y, so at Y = 1 it is psi(X)
    return cz.PhiPoly.build(F, [[c] for c in coeffs], cz.LINEARIZED).evaluate(x, x.ctx.one)


def test_qpoly_identity_always_passes(F2):
    psi = cz.Polynomial(F2, [1])  # psi = X
    assert cz.linearized_degree_criterion(psi, 4)
    assert cz.linearized_degree_criterion(psi, 6)


def test_qpoly_boundary_inconclusive(F2):
    psi = cz.Polynomial(F2, [0, 0, 1])  # X^(q^2)
    assert not cz.linearized_degree_criterion(psi, 4)  # m1 = 2, bound is q^2
    assert not cz.linearized_degree_criterion(cz.Polynomial(F2, []), 4)


def test_qpoly_criterion_sound_for_prime_m(F3):
    # m prime: any nonzero psi with q-degree < m - 1 sends normal elements
    # to generators
    ctx = cz.extension_field(F3, 3, seed=0)
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [rng.randrange(3) for _ in range(2)]
        psi = cz.Polynomial(F3, coeffs)
        if psi.is_zero:
            continue
        assert cz.linearized_degree_criterion(psi, 3)
        a = cz.random_normal_element(ctx, rng=rng)
        assert cz.degree_over_base(_evaluate_qpoly(F3, coeffs, a)) == 3


def test_qpoly_evaluation_is_linear(F2):
    ctx = cz.extension_field(F2, 4, seed=0)
    coeffs = [1, 1, 0, 1]
    rng = random.Random(4)
    for _ in range(10):
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        assert _evaluate_qpoly(F2, coeffs, a + b) == (
            _evaluate_qpoly(F2, coeffs, a) + _evaluate_qpoly(F2, coeffs, b)
        )


# -- staircase ------------------------------------------------------------------


def test_staircase_product_matrix(F2):
    phi = cz.PhiPoly.build(F2, [(1, 0, 0), (0, 0, 0)], basis="linearized")
    st = cz.staircase(phi)
    assert cz.poly_to_text(st) == "1"
    assert st == cz.Polynomial.one(F2)


def test_staircase_twisted_exponents(F2):
    phi = cz.PhiPoly.build(F2, [(0, 1, 0), (1, 0, 0)], basis="linearized")
    st = cz.staircase(phi)
    # s solves (1 mod 2, 0 mod 3), t solves (0 mod 2, 1 mod 3)
    assert [s for s in range(6) if (s % 2, s % 3) == (1, 0)] == [3]
    assert [t for t in range(6) if (t % 2, t % 3) == (0, 1)] == [4]
    assert [k for k, c in enumerate(st.coeffs) if c] == [3, 4]
    assert cz.poly_to_text(st) == "0,0,0,1,1"


def test_staircase_zero(F2):
    phi = cz.PhiPoly.build(F2, [[0] * 3 for _ in range(2)], basis="linearized")
    assert cz.staircase(phi).is_zero


def test_staircase_needs_coprime(F2):
    phi = cz.PhiPoly.build(F2, [[0, 1] for _ in range(2)], basis="linearized")
    with pytest.raises(ValueError):
        cz.staircase(phi)


def test_staircase_normal_test_product(pair23_f2):
    F2, cm, cn, common = pair23_f2
    a, b = cz.embed_pair(
        cz.random_normal_element(cm, seed=1),
        cz.random_normal_element(cn, seed=2),
        seed=3,
    )
    phi = cz.PhiPoly.build(F2, [(1, 0, 0), (0, 0, 0)], basis="linearized")
    assert cz.staircase_normal_test(phi, a, b)
    assert cz.is_normal(cz.evaluate_bilinear(phi, a, b))


def test_staircase_soundness_sweep(pair23_f2, pair23_f3):
    for F, cm, cn, common in (pair23_f2, pair23_f3):
        rng = random.Random(8)
        ea = cz.Embedding.find(cm, common)
        eb = cz.Embedding.find(cn, common)
        a = ea(cz.random_normal_element(cm, rng=rng))
        b = eb(cz.random_normal_element(cn, rng=rng))
        for _ in range(60):
            phi = cz.PhiPoly.random(F, 2, 3, rng, basis="linearized")
            assert cz.staircase_normal_test(phi, a, b) == cz.is_normal(
                cz.evaluate_bilinear(phi, a, b)
            )


def test_staircase_rejects_non_normal_inputs(pair23_f2):
    F2, cm, cn, common = pair23_f2
    phi = cz.PhiPoly.build(F2, [(1, 0, 0), (0, 0, 0)], basis="linearized")
    a, b = cz.embed_pair(
        cz.random_normal_element(cm, seed=1),
        cz.random_normal_element(cn, seed=2),
        seed=3,
    )
    with pytest.raises(ValueError):
        cz.staircase_normal_test(phi, common.one, b)
    with pytest.raises(ValueError):
        cz.staircase_normal_test(phi, a, a)


# -- twisted binomials ------------------------------------------------------------


def test_twisted_predicate_frozen_cases():
    assert cz.twisted_normal_predicate(cz.TwistedParams(q=3, m=3, n=5, k=1, l=2))
    assert cz.twisted_normal_predicate(cz.TwistedParams(q=3, m=3, n=5, k=0, l=0))
    assert not cz.twisted_normal_predicate(cz.TwistedParams(q=2, m=3, n=5, k=1, l=2))
    assert not cz.twisted_normal_predicate(cz.TwistedParams(q=3, m=2, n=3, k=1, l=0))
    assert cz.twisted_normal_predicate(cz.TwistedParams(q=3, m=4, n=3, k=0, l=1))
    assert not cz.twisted_normal_predicate(
        cz.TwistedParams(q=3, m=3, n=5, k=1, l=2, sign="-")
    )


def test_twisted_params_validation():
    with pytest.raises(ValueError):
        cz.TwistedParams(q=3, m=2, n=4, k=0, l=0)
    with pytest.raises(ValueError):
        cz.TwistedParams(q=3, m=2, n=3, k=2, l=0)
    # q = (2^61 - 1)^2 and 3 (2^61 - 1) would take ~2^30 trial divisions each
    for q in (0, 12, 3 * (2**61 - 1)):
        with pytest.raises(ValueError, match="not a prime power"):
            cz.TwistedParams(q=q, m=3, n=5, k=1, l=2)
    for q in (4, 9, (2**61 - 1) ** 2):
        cz.TwistedParams(q=q, m=3, n=5, k=1, l=2)
    with pytest.raises(ValueError):
        cz.TwistedParams(q=3, m=2, n=3, k=0, l=0, sign="x")


def test_twisted_brute_force_small(pair23_f3):
    F3, cm, cn, common = pair23_f3
    rng = random.Random(12)
    ea = cz.Embedding.find(cm, common)
    eb = cz.Embedding.find(cn, common)
    pairs = [
        (
            ea(cz.random_normal_element(cm, rng=rng)),
            eb(cz.random_normal_element(cn, rng=rng)),
        )
        for _ in range(2)
    ]
    for k, l, sign in itertools.product(range(2), range(3), "+-"):
        params = cz.TwistedParams(q=3, m=2, n=3, k=k, l=l, sign=sign)
        predicted = cz.twisted_normal_predicate(params)
        phi = cz.twisted_product_phi(F3, params)
        for a, b in pairs:
            assert cz.is_normal(cz.evaluate_bilinear(phi, a, b)) == predicted


def test_twisted_even_q_value_never_normal(pair23_f2):
    F2, cm, cn, common = pair23_f2
    a, b = cz.embed_pair(
        cz.random_normal_element(cm, seed=3),
        cz.random_normal_element(cn, seed=4),
        seed=3,
    )
    for k, l in itertools.product(range(2), range(3)):
        params = cz.TwistedParams(q=2, m=2, n=3, k=k, l=l, sign="+")
        phi = cz.twisted_product_phi(F2, params)
        assert not cz.is_normal(cz.evaluate_bilinear(phi, a, b))
        assert not cz.twisted_normal_predicate(params)


# -- shifted sums -------------------------------------------------------------------


def test_shifted_sum_never_normal_exhaustive(pair23_f2):
    # every normal pair of GF(4) x GF(8) inside GF(64), every shift
    F2, cm, cn, common = pair23_f2
    ea = cz.Embedding.find(cm, common)
    eb = cz.Embedding.find(cn, common)
    normals_m = [ea(x) for x in cm.all_elements() if cz.is_normal(x)]
    normals_n = [eb(x) for x in cn.all_elements() if cz.is_normal(x)]
    assert normals_m and normals_n
    for a in normals_m:
        for b in normals_n:
            for d in range(2):
                assert not cz.shifted_sum_is_normal(a, b, d)


def test_shifted_sum_f3_samples(pair23_f3):
    F3, cm, cn, common = pair23_f3
    rng = random.Random(2)
    ea = cz.Embedding.find(cm, common)
    eb = cz.Embedding.find(cn, common)
    for _ in range(5):
        a = ea(cz.random_normal_element(cm, rng=rng))
        b = eb(cz.random_normal_element(cn, rng=rng))
        for d in range(3):
            assert not cz.shifted_sum_is_normal(a, b, d)


def test_shifted_sum_validation(pair23_f2):
    F2, cm, cn, common = pair23_f2
    a, b = cz.embed_pair(
        cz.random_normal_element(cm, seed=1),
        cz.random_normal_element(cn, seed=2),
        seed=3,
    )
    with pytest.raises(ValueError):
        cz.shifted_sum_is_normal(a, a, 0)
    with pytest.raises(ValueError):
        cz.shifted_sum_is_normal(common.one, b, 0)


# -- embed_pair ----------------------------------------------------------------------


def test_embed_pair_builds_common_context(F3):
    cm = cz.extension_field(F3, 2, seed=0)
    cn = cz.extension_field(F3, 5, seed=0)
    a = cz.random_normal_element(cm, seed=0)
    b = cz.random_normal_element(cn, seed=0)
    ea, eb = cz.embed_pair(a, b)
    assert ea.ctx == eb.ctx and ea.ctx.degree == 10
    assert cz.degree_over_base(ea) == 2 and cz.degree_over_base(eb) == 5
