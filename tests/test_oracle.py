import random

import pytest

import compoz as cz


def test_naive_factor_irreducible(F3, worked):
    assert cz.naive_factor(worked.f) == [(worked.f, 1)]


def test_naive_factor_split_quadratic(F3):
    f = cz.poly_from_text(F3, "2,0,1")  # X^2 - 1
    assert cz.naive_factor(f) == [
        (cz.poly_from_text(F3, "1,1"), 1),
        (cz.poly_from_text(F3, "2,1"), 1),
    ]


def test_naive_factor_worked_square(worked):
    prod = cz.composed_product(
        worked.f, worked.g, cz.DiamondSpec.from_phi(worked.phi_no_cc), pair=worked.pair
    )
    assert cz.naive_factor(prod) == [(worked.factor_no_cc, 2)]


def test_naive_factor_reconstructs(F2):
    rng = random.Random(0)
    for _ in range(20):
        coeffs = [rng.randrange(2) for _ in range(9)] + [1]
        f = cz.Polynomial(F2, coeffs)
        acc = cz.Polynomial.one(F2)
        for h, e in cz.naive_factor(f):
            assert cz.is_irreducible(h)
            acc = acc * h**e
        assert acc == f


def test_naive_factor_multiplicity(F2):
    h = cz.poly_from_text(F2, "1,1")
    f = h**3 * cz.poly_from_text(F2, "1,1,1")
    assert cz.naive_factor(f) == [
        (h, 3),
        (cz.poly_from_text(F2, "1,1,1"), 1),
    ]


def test_naive_factor_cap(F3):
    big = cz.Polynomial(F3, [1] + [0] * 39 + [1])
    with pytest.raises(ValueError):
        cz.naive_factor(big)


# -- exhaustive cancellation ------------------------------------------------------


def test_exhaustive_cc_on_worked(worked):
    assert cz.exhaustive_cc(
        worked.f, worked.g, cz.DiamondSpec.from_phi(worked.phi_cc), pair=worked.pair
    )
    assert not cz.exhaustive_cc(
        worked.f, worked.g, cz.DiamondSpec.from_phi(worked.phi_no_cc), pair=worked.pair
    )


def test_exhaustive_cc_agrees_with_direct(F2):
    rng = random.Random(9)
    f = cz.random_irreducible(F2, 2, seed=0)
    g = cz.random_irreducible(F2, 4, seed=1)
    pair = cz.RootPair.build(f, g, seed=0)
    for _ in range(25):
        if rng.random() < 0.5:
            spec = cz.DiamondSpec.from_phi(cz.PhiPoly.random(F2, 2, 4, rng))
        else:
            spec = cz.DiamondSpec.from_table(
                2, 4, [pair.ctx.random_element(rng) for _ in range(2)]
            )
        bd = spec.bind(pair)
        assert cz.exhaustive_cc(f, g, spec, pair=pair) == cz.cc_direct(bd).holds


def test_exhaustive_cc_linearized(F3):
    rng = random.Random(10)
    f = cz.random_irreducible(F3, 2, seed=0)
    g = cz.random_irreducible(F3, 3, seed=1)
    pair = cz.RootPair.build(f, g, seed=0)
    for _ in range(15):
        spec = cz.DiamondSpec.from_phi(
            cz.PhiPoly.random(F3, 2, 3, rng, basis="linearized")
        )
        assert cz.exhaustive_cc(f, g, spec, pair=pair) == cz.cc_direct(
            spec.bind(pair)
        ).holds


# -- normal scans --------------------------------------------------------------------


def test_normal_scan_counts(F2):
    for degree, count in ((2, 2), (1, 1)):
        ctx = cz.extension_field(F2, degree, seed=0)
        assert sum(cz.is_normal(a) for a in ctx.all_elements()) == count
        assert sum(cz.normal_by_gcd(a) for a in ctx.all_elements()) == count


def test_normal_scan_nonempty_grid():
    # the gcd route against the rank route on every element, a tower included
    gf4 = cz.parse_field_spec("2^2:1,1,1")
    for ctx in (
        cz.extension_field(cz.prime_field(2), 4, seed=0),
        cz.extension_field(cz.prime_field(3), 3, seed=0),
        cz.extension_field(cz.prime_field(5), 2, seed=0),
        cz.extension_field(gf4, 2, seed=0),
    ):
        verdicts = [cz.is_normal(a) for a in ctx.all_elements()]
        assert verdicts == [cz.normal_by_gcd(a) for a in ctx.all_elements()]
        assert any(verdicts)


# -- sweep runners -------------------------------------------------------------------


def test_route_agreement_smoke():
    cfg = cz.SweepConfig(fields=(2,), pairs=((2, 3),), phi_count=15, seed=1)
    report = cz.run_route_agreement_sweep(cfg)
    assert report["total_trials"] == 15
    assert report["total_disagreements"] == 0
    assert report["schema"] == "compoz/1"
    inst = report["instances"][0]
    assert inst["q"] == 2 and inst["disagreements"] == []


def test_factor_structure_smoke():
    cfg = cz.SweepConfig(
        fields=(3,), pairs=((2, 4),), phi_count=3, table_count=3, seed=1
    )
    report = cz.run_factor_structure_sweep(cfg)
    assert report["total_violations"] == 0
    assert report["instances"][0]["diamonds"] == 6


def test_sweeps_refuse_meaningless_counts():
    for phi_count, table_count in ((0, 0), (-3, 0), (5, 7)):
        cfg = cz.SweepConfig(fields=(2,), pairs=((2, 3),), phi_count=phi_count,
                             table_count=table_count)
        with pytest.raises(ValueError, match="route agreement sweep"):
            cz.run_route_agreement_sweep(cfg)
    for phi_count, table_count in ((0, 0), (-1, 3), (3, -1)):
        cfg = cz.SweepConfig(fields=(2,), pairs=((2, 4),), phi_count=phi_count,
                             table_count=table_count)
        with pytest.raises(ValueError, match="factor structure sweep"):
            cz.run_factor_structure_sweep(cfg)


def test_sweep_size_cap():
    # GF(3^20) has about 3.5e9 elements, above the sweeps' cap of 2^24
    cfg = cz.SweepConfig(fields=(3,), pairs=((4, 5),))
    with pytest.raises(ValueError, match="exceeds the size cap"):
        list(cfg.instances())
    assert len(list(cz.SweepConfig(fields=(3,), pairs=((3, 5),)).instances())) == 1


def test_brute_admissible():
    assert cz.brute_admissible_degrees(2, 6) == (3, 6)
    assert cz.brute_admissible_degrees(4, 2) == (4,)
    assert cz.brute_admissible_degrees(6, 6) == (1, 2, 3, 6)
    for m in range(1, 20):
        for n in range(1, 20):
            assert (
                cz.brute_admissible_degrees(m, n)
                == cz.coprime_decomposition(m, n).admissible_degrees()
            )
