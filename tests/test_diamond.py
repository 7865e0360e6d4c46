import inspect
import math
import random
import textwrap

import pytest

import compoz as cz
from compoz import diamond, ff
from compoz.oracle import _grid_from_scratch
from compoz.orbits import divisors
from conftest import intermediate_by_cells, orbit_expansion, project_poly_to_base


def test_phi_build_validation(F3):
    with pytest.raises(ValueError):
        cz.PhiPoly.build(F3, [])
    with pytest.raises(ValueError):
        cz.PhiPoly.build(F3, [(1, 0), (1,)])
    with pytest.raises(ValueError):
        cz.PhiPoly.build(F3, [(1, 0)], basis="weird")


def test_phi_text_round_trip(F3, worked):
    text = worked.phi_cc.to_text()
    assert text.splitlines()[0] == "3 4 3 monomial"
    assert cz.PhiPoly.from_text(F3, text) == worked.phi_cc
    inline = text.replace("\n", ";")
    assert cz.PhiPoly.from_text(F3, inline) == worked.phi_cc
    with pytest.raises(ValueError):
        cz.PhiPoly.from_text(F3, "2 4 3 monomial;0 0 0;0 0 0;0 0 0;0 0 0")


def test_row_col_polys(worked):
    assert cz.poly_to_text(worked.phi_cc.row_poly(0)) == "0,2,1"
    assert cz.poly_to_text(worked.phi_cc.col_poly(0)) == "0,1,1"
    assert worked.phi_cc.col_poly(1).degree == 0


def test_phi_over_extension_base_keeps_entries():
    # entries over GF(4) are raw field values; none may be read back as an integer
    gf4 = cz.parse_field_spec("2^2:1,1,1")
    rng = random.Random(3)
    entries = [[gf4.random_element(rng) for _ in range(3)] for _ in range(2)]
    entries[1][2] = gf4.generator()
    phi = cz.PhiPoly.build(gf4, entries)
    for i, row in enumerate(entries):
        assert phi.row_poly(i) == cz.Polynomial(gf4, row)
    for j in range(3):
        assert phi.col_poly(j) == cz.Polynomial(gf4, [row[j] for row in entries])
    assert cz.PhiPoly.from_text(gf4, phi.to_text()) == phi
    drawn = cz.PhiPoly.random(gf4, 2, 3, rng)
    rebuilt = [[drawn.row_poly(i).coefficient(j) for j in range(3)] for i in range(2)]
    assert cz.PhiPoly.build(gf4, rebuilt) == drawn
    lin = cz.PhiPoly.build(gf4, entries, cz.LINEARIZED)
    st = cz.staircase(lin)
    assert [st.coefficient(k) for k in range(6)] == [entries[k % 2][k % 3] for k in range(6)]


# -- binding and evaluation -------------------------------------------------------


def test_equivariance_phi_and_table(F3):
    rng = random.Random(3)
    f = cz.random_irreducible(F3, 2, seed=1)
    g = cz.random_irreducible(F3, 4, seed=2)
    pair = cz.RootPair.build(f, g, seed=0)
    for basis in ("monomial", "linearized"):
        phi = cz.PhiPoly.random(F3, 2, 4, rng, basis=basis)
        bd = cz.DiamondSpec.from_phi(phi).bind(pair)
        for i in range(2):
            for j in range(4):
                assert bd.value(i + 1, j + 1) == bd.value(i, j).frobenius(1)
    values = [pair.ctx.random_element(rng) for _ in range(2)]
    bd = cz.DiamondSpec.from_table(2, 4, values).bind(pair)
    for i in range(2):
        for j in range(4):
            assert bd.value(i + 1, j + 1) == bd.value(i, j).frobenius(1)
    assert bd.value(0, 0) == values[0] and bd.value(0, 1) == values[1]


def test_table_reproduces_phi_values(F2):
    rng = random.Random(5)
    for m, n in ((2, 3), (4, 6), (3, 3)):
        f = cz.random_irreducible(F2, m, rng=rng)
        g = cz.random_irreducible(F2, n, rng=rng)
        pair = cz.RootPair.build(f, g, seed=1)
        phi = cz.PhiPoly.random(F2, m, n, rng)
        bd = cz.DiamondSpec.from_phi(phi).bind(pair)
        table = cz.DiamondSpec.from_table(m, n, [bd.value(0, j) for j in range(math.gcd(m, n))])
        assert table.bind(pair).vals == cz.DiamondSpec.from_phi(phi).bind(pair).vals


def test_phi_evaluate_matches_grid(F3):
    rng = random.Random(9)
    f = cz.random_irreducible(F3, 3, seed=4)
    g = cz.random_irreducible(F3, 4, seed=5)
    pair = cz.RootPair.build(f, g, seed=2)
    for basis in ("monomial", "linearized"):
        phi = cz.PhiPoly.random(F3, 3, 4, rng, basis=basis)
        bd = cz.DiamondSpec.from_phi(phi).bind(pair)
        a2 = pair.alpha.frobenius(2)
        b1 = pair.beta.frobenius(1)
        assert phi.evaluate(a2, b1) == bd.value(2, 1)


@pytest.mark.parametrize(
    "field, m, n",
    [("2", 3, 4), ("3", 2, 5), ("2", 4, 6), ("3", 3, 6), ("2^2:1,1,1", 3, 2), ("2^2:1,1,1", 2, 4),
     ("2", 4, 8), ("3", 3, 3)],
)
def test_grid_matches_oracle(field, m, n):
    # every cell of the bound grid against the independent evaluator, for phi
    # shapes equal to, smaller than and larger than (m, n) and a table spec
    base = cz.parse_field_spec(field)
    rng = random.Random(f"{field} {m} {n}")
    f = cz.random_irreducible(base, m, rng=rng)
    g = cz.random_irreducible(base, n, rng=rng)
    pair = cz.RootPair.build(f, g, seed=1)
    specs = [
        cz.DiamondSpec.from_phi(cz.PhiPoly.random(base, pm, pn, rng, basis=basis))
        for basis in (cz.MONOMIAL, cz.LINEARIZED)
        for pm, pn in ((m, n), (m - 1, 1), (m + 1, n + 2))
    ]
    specs.append(
        cz.DiamondSpec.from_table(
            m, n, [pair.ctx.random_element(rng) for _ in range(math.gcd(m, n))]
        )
    )
    for spec in specs:
        bd = spec.bind(pair)
        ref = _grid_from_scratch(spec, pair)
        assert [list(row) for row in bd.vals] == ref


def test_bind_rejects_phi_over_another_base(F3, small):
    phi = cz.PhiPoly.build(F3, ((0, 0, 0), (0, 1, 1)))
    with pytest.raises(cz.ContextMismatchError):
        cz.DiamondSpec.from_phi(phi).bind(small.pair)
    gf4 = cz.parse_field_spec("2^2:1,1,1")
    f = cz.random_irreducible(gf4, 2, seed=1)
    g = cz.random_irreducible(gf4, 3, seed=2)
    pair = cz.RootPair.build(f, g)
    with pytest.raises(cz.ContextMismatchError):
        cz.DiamondSpec.from_phi(small.phi).bind(pair)


def test_table_validation(F3):
    ctx = cz.extension_field(F3, 4, seed=0)
    v = ctx.one
    with pytest.raises(ValueError):
        cz.DiamondSpec.from_table(2, 4, [v])  # needs gcd = 2 values
    other = cz.extension_field(F3, 4, seed=9)
    with pytest.raises(cz.ContextMismatchError):
        cz.DiamondSpec.from_table(2, 4, [v, other.one])
    with pytest.raises(ValueError):
        cz.DiamondSpec.from_table(2, 3, [ctx.one])  # lcm 6 does not divide 4


def test_bind_table_shape_mismatch(F3, worked):
    ctx = cz.extension_field(F3, 12, seed=0)
    spec = cz.DiamondSpec.from_table(3, 4, [ctx.one])
    with pytest.raises(ValueError):
        spec.bind(worked.pair)


def test_phi_shape_larger_than_degrees(F3, worked):
    # a phi with X-degree above deg(f) still defines a diamond product; its
    # grid agrees with direct evaluation at the conjugates
    rng = random.Random(14)
    phi = cz.PhiPoly.random(F3, 6, 5, rng)
    bd = cz.DiamondSpec.from_phi(phi).bind(worked.pair)
    assert bd.value(1, 2) == phi.evaluate(
        worked.pair.alpha.frobenius(1), worked.pair.beta.frobenius(2)
    )


# -- composed products -------------------------------------------------------------


def test_worked_products(worked):
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    prod = cz.composed_product(worked.f, worked.g, spec, pair=worked.pair)
    assert prod == worked.product_cc
    assert cz.is_irreducible(prod)
    spec2 = cz.DiamondSpec.from_phi(worked.phi_no_cc)
    prod2 = cz.composed_product(worked.f, worked.g, spec2, pair=worked.pair)
    assert prod2 == worked.factor_no_cc * worked.factor_no_cc


def test_linear_sum_product(F3):
    # phi = X + Y on two linear polynomials gives X - (a + b)
    f = cz.poly_from_text(F3, "1,1")  # root 2
    g = cz.poly_from_text(F3, "2,1")  # root 1
    phi = cz.PhiPoly.build(F3, [(0, 1), (1, 0)])
    prod = cz.composed_product(f, g, cz.DiamondSpec.from_phi(phi))
    assert prod == cz.poly_from_text(F3, "0,1")  # X - 3 = X


def test_root_choice_independence(F2, small):
    spec = cz.DiamondSpec.from_phi(small.phi)
    reference = cz.composed_product(small.f, small.g, spec, pair=small.pair)
    ctx = small.pair.ctx
    for i in range(2):
        for j in range(3):
            pair = cz.RootPair(
                small.f,
                small.g,
                ctx,
                small.pair.alpha.frobenius(i),
                small.pair.beta.frobenius(j),
            )
            assert spec.bind(pair).composed() == reference


def test_composed_independent_of_ambient_modulus(worked):
    # a different random modulus for GF(3^12) must give the same product
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    alt = cz.composed_product(
        worked.f, worked.g, spec, pair=cz.RootPair.build(worked.f, worked.g, seed=123)
    )
    assert alt == worked.product_cc


PAIR_TAKERS = {
    "composed_product": lambda f, g, spec, pair: cz.composed_product(f, g, spec, pair=pair),
    "factor_report": lambda f, g, spec, pair: cz.factor_report(f, g, spec, pair=pair),
    "intermediate_factorization": lambda f, g, spec, pair: cz.intermediate_factorization(
        f, g, spec, 1, 1, pair=pair
    ),
    "exhaustive_cc": lambda f, g, spec, pair: cz.exhaustive_cc(f, g, spec, pair=pair),
}


@pytest.mark.parametrize("name", sorted(PAIR_TAKERS))
def test_entry_points_check_the_pair_they_are_given(worked, F3, name):
    call = PAIR_TAKERS[name]
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    f2 = cz.poly_from_text(F3, "1,0,1")  # X^2 + 1
    g2 = cz.random_irreducible(F3, 5, seed=0)
    for f, g in ((f2, g2), (worked.f, g2), (f2, worked.g), (worked.g, worked.f)):
        with pytest.raises(ValueError, match="pair does not hold roots of f and g"):
            call(f, g, spec, worked.pair)
    # the pair of f and g itself is taken, and gives what a fresh pair gives
    assert call(worked.f, worked.g, spec, worked.pair) == call(worked.f, worked.g, spec, None)


def _grid_expansion(bd):
    # reference: multiply out (X - v) over every cell, then move to the base
    ctx = bd.pair.ctx
    product = cz.Polynomial.one(ctx)
    for i in range(bd.pair.m):
        for j in range(bd.pair.n):
            product = product * cz.Polynomial(ctx, [-bd.value(i, j), ctx.one])
    return project_poly_to_base(product)


@pytest.mark.parametrize(
    "field, m, n",
    [("2", 2, 3), ("3", 3, 4), ("2", 4, 6), ("3", 2, 4), ("2", 3, 6), ("3", 3, 3),
     ("2^2:1,1,1", 2, 3), ("2^2:1,1,1", 2, 4)],
)
def test_composed_matches_grid_expansion(field, m, n):
    base = cz.parse_field_spec(field)
    rng = random.Random(f"composed {field} {m} {n}")
    f = cz.random_irreducible(base, m, rng=rng)
    g = cz.random_irreducible(base, n, rng=rng)
    pair = cz.RootPair.build(f, g, seed=2)
    gmn = math.gcd(m, n)
    specs = [
        cz.DiamondSpec.from_phi(cz.PhiPoly.random(base, m, n, rng, basis=basis))
        for basis in (cz.MONOMIAL, cz.LINEARIZED)
        for _ in range(2)
    ]
    specs.append(cz.DiamondSpec.from_phi(cz.PhiPoly.build(base, [[0] * n, [1] + [0] * (n - 1)])))
    specs.append(cz.DiamondSpec.from_table(m, n, [pair.ctx.zero] * gmn))
    specs.append(
        cz.DiamondSpec.from_table(m, n, [pair.ctx.random_element(rng) for _ in range(gmn)])
    )
    for spec in specs:
        bd = spec.bind(pair)
        product = bd.composed()
        assert product.ctx == base and product.degree == m * n
        assert product == _grid_expansion(bd)
        entries = cz.factor_report(f, g, spec, pair=pair).entries
        assert [e.min_poly for e in entries] == [
            orbit_expansion(bd.value(0, j)) for j in range(gmn)
        ]


def _element_of_degree(ctx, d):
    return next(x for x in ctx.all_elements() if cz.degree_over_base(x) == d)


def test_composed_table_value_outside_lcm_field(F2):
    # a (2, 3) table inside GF(2^12): a value of degree 4 does not lie in
    # GF(2^6), so no diamond takes it; a value of degree 6 or less does
    ctx = cz.extension_field(F2, 12, seed=0)
    with pytest.raises(ValueError, match=r"lie in GF\(q\^lcm\)"):
        cz.DiamondSpec.from_table(2, 3, [_element_of_degree(ctx, 4)])
    for d in (1, 2, 3, 6):
        cz.DiamondSpec.from_table(2, 3, [_element_of_degree(ctx, d)])


def test_composed_table_values_outside_lcm_field_that_close_up(F2):
    # a (2, 4) table inside GF(2^8), L = 4: values of degree 8 are rejected
    # even where their segments together make one whole conjugate cycle
    ctx = cz.extension_field(F2, 8, seed=0)
    v = _element_of_degree(ctx, 8)
    for w in (v.frobenius(4), v, v.frobenius(1), ctx.one):
        with pytest.raises(ValueError, match=r"lie in GF\(q\^lcm\)"):
            cz.DiamondSpec.from_table(2, 4, [v, w])
        with pytest.raises(ValueError, match=r"lie in GF\(q\^lcm\)"):
            cz.DiamondSpec.from_table(2, 4, [w, v])


def test_distinct_values_when_cc_holds(worked, small):
    for f, g, phi, pair in (
        (worked.f, worked.g, worked.phi_cc, worked.pair),
        (small.f, small.g, small.phi, small.pair),
    ):
        bd = cz.DiamondSpec.from_phi(phi).bind(pair)
        assert cz.cc_direct(bd).holds
        m = pair.m
        values = [bd.value(i, 0) for i in range(m)]
        assert len(set(values)) == m


# -- factor reports -----------------------------------------------------------------


def test_factor_report_worked(worked):
    rep = cz.factor_report(
        worked.f, worked.g, cz.DiamondSpec.from_phi(worked.phi_no_cc), pair=worked.pair
    )
    assert len(rep.entries) == 1
    e = rep.entries[0]
    assert e.degree == 6 and e.multiplicity == 2
    assert e.min_poly == worked.factor_no_cc
    assert not rep.cc_holds and not rep.all_factors_max_degree
    assert rep.distinct_factor_count == 1

    rep2 = cz.factor_report(
        worked.f, worked.g, cz.DiamondSpec.from_phi(worked.phi_cc), pair=worked.pair
    )
    assert [(e.degree, e.multiplicity) for e in rep2.entries] == [(12, 1)]
    assert rep2.cc_holds


def test_factor_report_single_orbit_when_coprime(F2, small):
    rng = random.Random(2)
    for _ in range(5):
        phi = cz.PhiPoly.random(F2, 2, 3, rng)
        rep = cz.factor_report(
            small.f, small.g, cz.DiamondSpec.from_phi(phi), pair=small.pair
        )
        assert len(rep.entries) == 1


def test_factor_report_reconstruction_gcd2(F3):
    rng = random.Random(8)
    f = cz.random_irreducible(F3, 2, seed=1)
    g = cz.random_irreducible(F3, 4, seed=2)
    pair = cz.RootPair.build(f, g, seed=0)
    for _ in range(10):
        phi = cz.PhiPoly.random(F3, 2, 4, rng)
        rep = cz.factor_report(f, g, cz.DiamondSpec.from_phi(phi), pair=pair)
        assert sum(e.degree * e.multiplicity for e in rep.entries) == 8
        assert all(8 % 1 == 0 and 4 % math.gcd(e.degree, 4) == 0 for e in rep.entries)
        product = cz.Polynomial.one(F3)
        for e in rep.entries:
            product = product * e.min_poly**e.multiplicity
        assert product == cz.composed_product(f, g, cz.DiamondSpec.from_phi(phi), pair=pair)


def test_factor_report_collapses_coinciding_orbits(F2):
    # conjugate table values give equal minimal polynomials on both orbits;
    # the entries stay per-orbit but the distinct count collapses
    f = cz.random_irreducible(F2, 2, seed=0)
    g = cz.random_irreducible(F2, 4, seed=1)
    pair = cz.RootPair.build(f, g, seed=0)
    gamma = cz.random_normal_element(pair.ctx, seed=3)
    spec = cz.DiamondSpec.from_table(2, 4, [gamma, gamma.frobenius(1)])
    rep = cz.factor_report(f, g, spec, pair=pair)
    assert len(rep.entries) == 2
    assert rep.entries[0].min_poly == rep.entries[1].min_poly
    assert rep.distinct_factor_count == 1


def _mutant(fn, old, new):
    """fn recompiled in its own module with one source edit applied."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, old
    namespace = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec"),
         vars(inspect.getmodule(fn)), namespace)
    return namespace[fn.__name__]


def _full_degree_reports(field, m, n):
    """factor_report calls on a fixed pair whose orbits all have degree lcm(m, n)."""
    base = cz.parse_field_spec(field)
    rng = random.Random(f"full degree {field} {m} {n}")
    f = cz.random_irreducible(base, m, rng=rng)
    g = cz.random_irreducible(base, n, rng=rng)
    pair = cz.RootPair.build(f, g)
    reports = []
    while len(reports) < 4:
        spec = cz.DiamondSpec.from_phi(cz.PhiPoly.random(base, m, n, rng))
        if cz.factor_report(f, g, spec, pair=pair).all_factors_max_degree:
            reports.append(lambda spec=spec: cz.factor_report(f, g, spec, pair=pair))
    return reports


@pytest.mark.parametrize(
    "field, old, new",
    [
        pytest.param("2", "_powers(K, a, 2 * d)", "_powers(K, a, d)",
                     id="half-the-terms"),
        # over a base of characteristic 2, add and sub are the same map
        pytest.param("3^2:1,0,1", "_submul(C, shift, coef, B)",
                     "_submul(C, shift, lo._neg(coef), B)", id="add-for-sub-generic"),
    ],
)
def test_factor_report_certificate_catches_bm_mutation(field, old, new, monkeypatch):
    # the mutant also feeds composed(), so the product check alone would agree
    reports = _full_degree_reports(field, 2, 3)
    monkeypatch.setattr(diamond, "_pminpoly", _mutant(ff._pminpoly, old, new))
    for report in reports:
        with pytest.raises(RuntimeError, match="certificate"):
            report()


def test_factor_report_catches_composed_exponent_mutation(F2, monkeypatch):
    # two orbits with one minimal polynomial: composed() must raise it to
    # twice L / degree; only the product check sees an exponent that does not
    f = cz.random_irreducible(F2, 2, seed=0)
    g = cz.random_irreducible(F2, 4, seed=1)
    pair = cz.RootPair.build(f, g, seed=0)
    gamma = cz.random_normal_element(pair.ctx, seed=3)
    spec = cz.DiamondSpec.from_table(2, 4, [gamma, gamma.frobenius(1)])
    cz.factor_report(f, g, spec, pair=pair)
    mutant = _mutant(
        diamond.BoundDiamond.composed, "L * count // (len(mu) - 1)", "L // (len(mu) - 1)"
    )
    monkeypatch.setattr(diamond.BoundDiamond, "composed", mutant)
    with pytest.raises(RuntimeError, match="does not reconstruct"):
        cz.factor_report(f, g, spec, pair=pair)


def test_factor_report_doc_is_sorted(worked):
    doc = cz.factor_report(
        worked.f, worked.g, cz.DiamondSpec.from_phi(worked.phi_cc), pair=worked.pair
    ).to_doc()
    assert doc["schema"] == "compoz/1"
    degrees = [f["degree"] for f in doc["factors"]]
    assert degrees == sorted(degrees)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_report_matches_sympy(p):
    # the report's minimal polynomials, grouped with summed multiplicities,
    # are the monic irreducible factors of the product found by sympy
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    F = cz.prime_field(p)
    rng = random.Random(f"sympy factor:{p}")
    for m, n in ((2, 3), (2, 4), (3, 3), (4, 6), (1, 3)):
        if p ** (m * n) > 2**40:
            continue
        f = cz.random_irreducible(F, m, rng=rng)
        g = cz.random_irreducible(F, n, rng=rng)
        pair = cz.RootPair.build(f, g)
        specs = [
            cz.DiamondSpec.from_phi(cz.PhiPoly.random(F, m, n, rng, basis=basis))
            for basis in (cz.MONOMIAL, cz.LINEARIZED)
        ]
        specs.append(cz.DiamondSpec.from_table(
            m, n, [pair.ctx.random_element(rng) for _ in range(math.gcd(m, n))]
        ))
        for spec in specs:
            rep = cz.factor_report(f, g, spec, pair=pair)
            grouped = {}
            for e in rep.entries:
                key = tuple(c.to_int() for c in reversed(e.min_poly.coefficients()))
                grouped[key] = grouped.get(key, 0) + e.multiplicity
            high_first = [c.to_int() for c in reversed(rep.product.coefficients())]
            lc, factors = gf_factor(high_first, p, ZZ)
            assert lc == 1
            assert grouped == {tuple(int(c) for c in h): k for h, k in factors}


# -- intermediate factorization -----------------------------------------------------


def test_intermediate_trivial(worked):
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    outs = cz.intermediate_factorization(worked.f, worked.g, spec, 1, 1, pair=worked.pair)
    assert outs == [worked.product_cc]


def test_intermediate_full_left(worked):
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    outs = cz.intermediate_factorization(worked.f, worked.g, spec, 4, 1, pair=worked.pair)
    assert len(outs) == 4 and all(h.degree == 3 for h in outs)
    ctx = outs[0].ctx
    assert ctx.degree == 4
    acc = cz.Polynomial.one(ctx)
    for h in outs:
        acc = acc * h
    assert project_poly_to_base(acc) == worked.product_cc
    # cancellation holds here, so each piece is irreducible and generating
    for h in outs:
        assert cz.is_irreducible(h)
        assert max(cz.degree_over_base(c) for c in h.coefficients()) == 4
    # consecutive pieces are coefficient-wise Frobenius images
    assert outs[1] == outs[0].map_coefficients(lambda c: c.frobenius(1))


def test_intermediate_two_sextics(worked):
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    outs = cz.intermediate_factorization(worked.f, worked.g, spec, 2, 1, pair=worked.pair)
    assert len(outs) == 2 and all(h.degree == 6 for h in outs)
    acc = cz.Polynomial.one(outs[0].ctx)
    for h in outs:
        acc = acc * h
    assert project_poly_to_base(acc) == worked.product_cc


def test_intermediate_mixed(worked):
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    outs = cz.intermediate_factorization(worked.f, worked.g, spec, 2, 3, pair=worked.pair)
    assert len(outs) == 6 and all(h.degree == 2 for h in outs)
    acc = cz.Polynomial.one(outs[0].ctx)
    for h in outs:
        acc = acc * h
    assert project_poly_to_base(acc) == worked.product_cc
    assert all(cz.is_irreducible(h) for h in outs)


@pytest.mark.parametrize(
    "field, m, n, wide",
    [("2", 2, 3, False), ("3", 4, 3, False), ("2", 3, 4, False), ("3", 2, 5, False),
     ("2^2:1,1,1", 3, 2, False), ("2", 2, 3, True), ("3", 3, 2, True)],
)
def test_intermediate_matches_cell_expansion(field, m, n, wide):
    # every (k, l) against the per-cell expansion, for phis that cancel and
    # phis that do not and a table spec; a wide pair has its roots in
    # GF(q^(2 m n)), twice the field RootPair.build picks
    base = cz.parse_field_spec(field)
    rng = random.Random(f"intermediate {field} {m} {n} {wide}")
    f = cz.random_irreducible(base, m, rng=rng)
    g = cz.random_irreducible(base, n, rng=rng)
    if wide:
        ext = cz.extension_field(base, 2 * m * n, seed=3)
        pair = cz.RootPair.from_elements(cz.find_root(f, ext), cz.find_root(g, ext))
        assert pair.ctx.degree == 2 * m * n
    else:
        pair = cz.RootPair.build(f, g, seed=1)
    specs = [cz.DiamondSpec.from_phi(phi) for phi in cz.sample_cc_phi_matrices(f, g, 2, rng=rng)]
    while len(specs) < 4:
        spec = cz.DiamondSpec.from_phi(cz.PhiPoly.random(base, m, n, rng))
        if not cz.cc_direct(spec.bind(pair)).holds:
            specs.append(spec)
    value = pair.ctx.random_element(rng)
    if wide:
        value = value + value.frobenius(m * n)  # the trace down to GF(q^(m n))
    specs.append(cz.DiamondSpec.from_table(m, n, [value]))
    for spec in specs:
        bd = spec.bind(pair)
        for k in divisors(m):
            for l in divisors(n):
                hs = cz.intermediate_factorization(f, g, spec, k, l, pair=pair)
                assert hs == intermediate_by_cells(bd, k, l, hs[0].ctx)


def test_intermediate_expands_one_orbit_product(worked, monkeypatch):
    calls = []
    real = diamond._orbit_factors

    def spy(emb, a, count):
        calls.append(count)
        return real(emb, a, count)

    monkeypatch.setattr(diamond, "_orbit_factors", spy)
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    outs = cz.intermediate_factorization(worked.f, worked.g, spec, 2, 3, pair=worked.pair)
    assert len(outs) == 6 and calls == [2]


def test_intermediate_rejects_bad_divisors(worked):
    spec = cz.DiamondSpec.from_phi(worked.phi_cc)
    with pytest.raises(ValueError):
        cz.intermediate_factorization(worked.f, worked.g, spec, 3, 1, pair=worked.pair)
    with pytest.raises(ValueError):
        cz.intermediate_factorization(worked.f, worked.g, spec, 1, 2, pair=worked.pair)


def test_intermediate_rejects_common_factor(F3):
    f = cz.random_irreducible(F3, 2, seed=1)
    g = cz.random_irreducible(F3, 4, seed=2)
    with pytest.raises(ValueError):
        cz.intermediate_factorization(f, g, cz.DiamondSpec.from_phi(
            cz.PhiPoly.random(F3, 2, 4, random.Random(0))), 2, 1)
