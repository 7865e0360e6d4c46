"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs the same checks silently.
"""

import itertools
import math
import random
import time

import compoz as cz
from conftest import (
    A2I_TIMES_C,
    A_ENTRIES,
    B_ENTRIES,
    FACTOR_NO_CC,
    PRODUCT_CC,
    project_poly_to_base,
)


def _verdict(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_showcase_products(worked):
    t0 = time.perf_counter()
    spec_cc = cz.DiamondSpec.from_phi(worked.phi_cc)
    prod = cz.composed_product(worked.f, worked.g, spec_cc, pair=worked.pair)
    ok = cz.poly_to_text(prod) == PRODUCT_CC and cz.is_irreducible(prod)

    spec_no = cz.DiamondSpec.from_phi(worked.phi_no_cc)
    prod2 = cz.composed_product(worked.f, worked.g, spec_no, pair=worked.pair)
    ok = ok and prod2 == worked.factor_no_cc * worked.factor_no_cc
    rep = cz.factor_report(worked.f, worked.g, spec_no, pair=worked.pair)
    ok = ok and len(rep.entries) == 1
    ok = ok and rep.entries[0].degree == 6 and rep.entries[0].multiplicity == 2
    ok = ok and cz.poly_to_text(rep.entries[0].min_poly) == FACTOR_NO_CC
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"bit-exact products over GF(3), {elapsed:.3f} s")


def test_criterion_2_frobenius_matrices(worked):
    from compoz import linalg

    A = cz.petr_berlekamp_matrix(worked.f)
    B = cz.petr_berlekamp_matrix(worked.g)
    ok = A == A_ENTRIES and B == B_ENTRIES
    D = linalg.mat_sub(
        worked.base, linalg.mat_pow(worked.base, A, 2),
        linalg.identity(worked.base, 4),
    )
    ok = ok and linalg.mat_mul(worked.base, D, worked.phi_cc.rows) == A2I_TIMES_C
    ok = ok and cz.matrix_cc_test(worked.f, worked.g, worked.phi_cc).holds
    ok = ok and not cz.matrix_cc_test(worked.f, worked.g, worked.phi_no_cc).holds
    _verdict(2, ok, "4x4 and 3x3 Frobenius matrices and the residual matrix, bit-exact")


def test_criterion_3_small_instance(small):
    t0 = time.perf_counter()
    bd = cz.DiamondSpec.from_phi(small.phi).bind(small.pair)
    a, b = small.pair.alpha, small.pair.beta
    weak_counterexample = (
        small.phi.evaluate(a, b) == small.phi.evaluate(a, b + 1)
        and all(b + 1 != b.frobenius(k) for k in range(3))
    )
    prod = bd.composed()
    ok = (
        weak_counterexample
        and cz.cc_direct(bd).holds
        and prod.degree == 6
        and cz.is_irreducible(prod)
        and cz.degree_criterion(small.phi)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(3, ok, f"GF(2) instance with the weak-cancellation counterexample, {elapsed:.3f} s")


def test_criterion_4_route_agreement():
    t0 = time.perf_counter()
    cfg = cz.SweepConfig(
        fields=(2, 3),
        pairs=((2, 3), (3, 2), (3, 4), (2, 5)),
        phi_count=200,
        seed=0,
    )
    report = cz.run_route_agreement_sweep(cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        report["total_trials"] == 1600
        and report["total_disagreements"] == 0
        and elapsed < 300.0
    )
    _verdict(
        4,
        ok,
        f"{report['total_trials']} trials, {report['total_disagreements']} "
        f"disagreements, {elapsed:.1f} s",
    )


def test_criterion_5_factor_structure():
    t0 = time.perf_counter()
    cfg = cz.SweepConfig(
        fields=(2, 3),
        pairs=((2, 4), (4, 2), (2, 6)),
        phi_count=8,
        table_count=8,
        seed=0,
    )
    report = cz.run_factor_structure_sweep(cfg)
    cfg_big = cz.SweepConfig(
        fields=(2,), pairs=((4, 6),), phi_count=8, table_count=8, seed=0
    )
    report_big = cz.run_factor_structure_sweep(cfg_big)
    violations = report["total_violations"] + report_big["total_violations"]
    diamonds = sum(i["diamonds"] for i in report["instances"] + report_big["instances"])
    elapsed = time.perf_counter() - t0
    _verdict(5, violations == 0, f"{diamonds} diamonds, {violations} violations, {elapsed:.1f} s")


def test_criterion_6_intermediate_factorization():
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    for q in (2, 3):
        base = cz.prime_field(q)
        for m, n in ((2, 3), (3, 2), (3, 4), (2, 5)):
            rng = random.Random(f"c6:{q}:{m}:{n}")
            f = cz.random_irreducible(base, m, rng=rng)
            g = cz.random_irreducible(base, n, rng=rng)
            pair = cz.RootPair.build(f, g, seed=0)
            holding = list(cz.sample_cc_phi_matrices(f, g, 5, rng=rng))
            for _ in range(25):
                phi = cz.PhiPoly.random(base, m, n, rng)
                if cz.cc_direct(cz.DiamondSpec.from_phi(phi).bind(pair)).holds:
                    holding.append(phi)
            for phi in holding:
                spec = cz.DiamondSpec.from_phi(phi)
                hs = cz.intermediate_factorization(f, g, spec, m, 1, pair=pair)
                ctx_m = hs[0].ctx
                acc = cz.Polynomial.one(ctx_m)
                for h in hs:
                    acc = acc * h
                whole = project_poly_to_base(acc) == spec.bind(pair).composed()
                conj = all(
                    hs[mu] == hs[0].map_coefficients(lambda c, mu=mu: c.frobenius(mu))
                    for mu in range(m)
                )
                irred = all(cz.is_irreducible(h) for h in hs)
                gen = all(
                    max(cz.degree_over_base(c) for c in h.coefficients()) == m
                    for h in hs
                )
                checked += 1
                if not (len(hs) == m and whole and conj and irred and gen):
                    bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(6, bad == 0 and checked >= 80,
             f"{checked} cancelling products factored over GF(q^m), {bad} violations, {elapsed:.1f} s")


def _normal_pair_fixture(base, m, n, seed):
    cm = cz.extension_field(base, m, seed=seed)
    cn = cz.extension_field(base, n, seed=seed + 1)
    common = cz.extension_field(base, math.lcm(m, n), seed=seed + 2)
    ea = cz.Embedding.find(cm, common, seed=seed)
    eb = cz.Embedding.find(cn, common, seed=seed)
    return cm, cn, common, ea, eb


def test_criterion_7_normality_suite():
    t0 = time.perf_counter()
    bad = 0
    trials = 0

    # staircase test against direct normality, all coprime shapes with mn <= 12
    for q in (2, 3):
        base = cz.prime_field(q)
        for m, n in ((2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3)):
            rng = random.Random(f"c7s:{q}:{m}:{n}")
            cm, cn, common, ea, eb = _normal_pair_fixture(base, m, n, 0)
            pairs = [
                (
                    ea(cz.random_normal_element(cm, rng=rng)),
                    eb(cz.random_normal_element(cn, rng=rng)),
                )
                for _ in range(2)
            ]
            for _ in range(100):
                phi = cz.PhiPoly.random(base, m, n, rng, basis="linearized")
                expected = cz.staircase_normal_test(phi, *pairs[0])
                for a, b in pairs:
                    trials += 1
                    if cz.is_normal(cz.evaluate_bilinear(phi, a, b)) != expected:
                        bad += 1

    # twisted binomials against brute-force normality
    grids = [(q, mn) for q in (2, 3, 5) for mn in ((2, 3), (3, 2))]
    grids += [(q, (3, 4)) for q in (2, 3)]
    for q, (m, n) in grids:
        base = cz.prime_field(q)
        rng = random.Random(f"c7t:{q}:{m}:{n}")
        cm, cn, common, ea, eb = _normal_pair_fixture(base, m, n, 0)
        pairs = [
            (
                ea(cz.random_normal_element(cm, rng=rng)),
                eb(cz.random_normal_element(cn, rng=rng)),
            )
            for _ in range(2)
        ]
        for k, l, sign in itertools.product(range(m), range(n), "+-"):
            params = cz.TwistedParams(q=q, m=m, n=n, k=k, l=l, sign=sign)
            predicted = cz.twisted_normal_predicate(params)
            phi = cz.twisted_product_phi(base, params)
            for a, b in pairs:
                trials += 1
                if cz.is_normal(cz.evaluate_bilinear(phi, a, b)) != predicted:
                    bad += 1
        # shifted sums over the same grid: never normal
        for a, b in pairs:
            for d in range(q):
                trials += 1
                if cz.shifted_sum_is_normal(a, b, d):
                    bad += 1

    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 600.0
    _verdict(7, ok, f"{trials} normality checks, {bad} disagreements, {elapsed:.1f} s")


def test_criterion_8_pair_independence():
    t0 = time.perf_counter()
    bad = 0
    instances = 0
    for q in (2, 3):
        base = cz.prime_field(q)
        for m, n in ((2, 3), (3, 2), (2, 5)):
            rng = random.Random(f"c8:{q}:{m}:{n}")
            cm, cn, common, ea, eb = _normal_pair_fixture(base, m, n, 0)
            for _ in range(25):
                phi = cz.PhiPoly.random(base, m, n, rng, basis="linearized")
                expected = cz.bilinear_cc_test(phi)
                spec = cz.DiamondSpec.from_phi(phi)
                instances += 1
                for _ in range(10):
                    a = ea(cz.random_normal_element(cm, rng=rng))
                    b = eb(cz.random_normal_element(cn, rng=rng))
                    bd = spec.bind(cz.RootPair.from_elements(a, b))
                    if cz.cc_direct(bd).holds != expected:
                        bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        bad == 0,
        f"{instances} bilinear products x 10 normal pairs, {bad} mismatches, {elapsed:.1f} s",
    )
