import math
import random

import pytest
from hypothesis import given, strategies as st

import compoz as cz
from compoz import ff
from compoz.ff import ContextMismatchError, _check_minpoly, _pminpoly
from compoz.oracle import _grid_from_scratch
from compoz.orbits import divisors
from conftest import MEMO_FIELDS, conjugate_factors_by_roots, memo_field, orbit_expansion


def _contexts():
    F2 = cz.prime_field(2)
    F3 = cz.prime_field(3)
    gf8 = F2.extension(cz.poly_from_text(F2, "1,1,0,1"))
    gf9 = F3.extension(cz.poly_from_text(F3, "1,0,1"))
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    tower = cz.extension_field(gf4, 3, seed=0)
    return [F3, gf8, gf9, tower]


@given(st.data())
def test_field_axioms(data):
    ctx = data.draw(st.sampled_from(_contexts()))
    idx = st.integers(min_value=0, max_value=ctx.order - 1)
    a = ctx.nth_element(data.draw(idx))
    b = ctx.nth_element(data.draw(idx))
    c = ctx.nth_element(data.draw(idx))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == ctx.zero
    if not a.is_zero:
        assert a * (ctx.one / a) == ctx.one
        assert (a / a) == ctx.one


@given(st.data())
def test_frobenius_power_order(data):
    ctx = data.draw(st.sampled_from(_contexts()))
    a = ctx.nth_element(data.draw(st.integers(0, ctx.order - 1)))
    q = ctx.subfield_order
    assert a ** (q**ctx.degree) == a
    assert a.frobenius(0) == a
    assert a.frobenius(ctx.degree) == a
    assert a.frobenius(1) == a**q


@given(st.data())
def test_frobenius_composes(data):
    ctx = data.draw(st.sampled_from(_contexts()))
    a = ctx.nth_element(data.draw(st.integers(0, ctx.order - 1)))
    i = data.draw(st.integers(-3, 8))
    j = data.draw(st.integers(-3, 8))
    assert a.frobenius(i).frobenius(j) == a.frobenius(i + j)


def test_mod3_sum(F3):
    assert F3.element(2) + F3.element(2) == F3.element(1)


def test_frobenius_on_quadratic_generator(F2):
    ctx = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    alpha = ctx.generator()
    assert alpha.frobenius(1) == alpha + 1


def test_division_by_zero(F3):
    with pytest.raises(ZeroDivisionError):
        F3.one / F3.zero


def test_context_mismatch(F2, F3):
    with pytest.raises(ContextMismatchError):
        F2.one + F3.one
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    with pytest.raises(ContextMismatchError):
        gf4.one + F2.one  # base elements need an explicit from_base
    # a polynomial evaluates in its own field and one level above, nowhere else
    x_plus_1 = cz.poly_from_text(F2, "1,1")
    assert x_plus_1.evaluate(F2.one).is_zero and x_plus_1.evaluate(gf4.one).is_zero
    tower = cz.extension_field(gf4, 2, seed=0)
    for x in (F3.one, tower.one):
        with pytest.raises(ContextMismatchError):
            x_plus_1.evaluate(x)


def test_from_base_to_base_round_trip(F3):
    gf9 = F3.extension(cz.poly_from_text(F3, "1,0,1"))
    for v in range(3):
        lifted = gf9.from_base(F3.element(v))
        assert gf9.to_base(lifted) == F3.element(v)
    with pytest.raises(ValueError):
        gf9.to_base(gf9.generator())


# -- irreducibility ------------------------------------------------------------


def test_irreducible_known_cases(F2, F3):
    assert cz.is_irreducible(cz.poly_from_text(F2, "1,1,1"))
    assert not cz.is_irreducible(cz.poly_from_text(F2, "1,0,1"))  # (X+1)^2
    assert cz.is_irreducible(cz.poly_from_text(F3, "2,0,1,0,1"))


def test_irreducible_requires_monic(F3):
    with pytest.raises(ValueError):
        cz.is_irreducible(cz.poly_from_text(F3, "1,2"))
    with pytest.raises(ValueError):
        cz.is_irreducible(cz.Polynomial(F3, [1]))


@given(st.data())
def test_irreducible_agrees_with_trial_division(data):
    # monic polynomials with q^deg up to 2^14
    ctx = data.draw(st.sampled_from([cz.prime_field(2), cz.prime_field(3)]))
    deg = data.draw(st.integers(2, 14 if ctx.p == 2 else 8))
    idx = data.draw(st.integers(0, ctx.order**deg - 1))
    coeffs = []
    v = idx
    for _ in range(deg):
        coeffs.append(v % ctx.order)
        v //= ctx.order
    f = cz.Polynomial(ctx, coeffs + [1])
    factors = cz.naive_factor(f)
    brute = len(factors) == 1 and factors[0][1] == 1
    assert cz.is_irreducible(f) == brute


def test_irreducibility_verdict_is_kept_on_the_polynomial(F3, monkeypatch):
    # RootPair.build and find_root both test f, and the coeffs and matrix
    # routes work in F3[X]/(f); only the first test builds that ring
    f = cz.poly_from_text(F3, "2,0,1,0,1")
    g = cz.poly_from_text(F3, "1,2,0,1")
    rings = []
    init = ff.FieldContext.__init__

    def counting_init(self, p, lower=None, modulus=None):
        if lower == F3 and modulus == f.coeffs:
            rings.append(modulus)
        init(self, p, lower, modulus)

    monkeypatch.setattr(ff.FieldContext, "__init__", counting_init)
    cz.RootPair.build(f, g)
    assert len(rings) == 1
    phi = cz.PhiPoly.random(F3, 4, 3, random.Random(0))
    cz.cc_by_coefficient_polys(f, g, phi)
    cz.matrix_cc_test(f, g, phi)
    assert cz.is_irreducible(f) and len(rings) == 1
    square = cz.poly_from_text(F3, "1,2,1")  # (X+1)^2
    assert not cz.is_irreducible(square) and not cz.is_irreducible(square)


def test_random_irreducible_contract(F2):
    f = cz.random_irreducible(F2, 6, seed=3)
    assert f.degree == 6 and f.is_monic and cz.is_irreducible(f)
    assert f == cz.random_irreducible(F2, 6, seed=3)
    g = cz.random_irreducible(F2, 1, seed=0)
    assert g.degree == 1


@pytest.mark.parametrize(
    "base_spec, degree, seed",
    [("2", 12, 0), ("2", 16, 0), ("3", 14, 2), ("5", 2, 3), ("2^2:1,1,1", 5, 2)],
)
def test_random_irreducible_builds_one_ring_per_candidate(base_spec, degree, seed, monkeypatch):
    # the sieve and the Rabin test share one quotient ring per candidate, and
    # extension_field returns the last candidate's ring as the field
    base = cz.parse_field_spec(base_spec)
    draws, rings = [], []
    random_raw, init = ff.FieldContext._random_raw, ff.FieldContext.__init__

    def counting_random_raw(self, rng):
        draws.append(self)
        return random_raw(self, rng)

    def counting_init(self, p, lower=None, modulus=None):
        init(self, p, lower, modulus)
        rings.append(self)

    monkeypatch.setattr(ff.FieldContext, "_random_raw", counting_random_raw)
    monkeypatch.setattr(ff.FieldContext, "__init__", counting_init)
    f = cz.random_irreducible(base, degree, seed=seed)
    candidates, rest = divmod(len(draws), degree)
    assert rest == 0 and len(rings) == candidates
    assert all(r.lower == base and r.degree == degree for r in rings)
    assert rings[-1].modulus == f.coeffs
    draws.clear()
    rings.clear()
    ext = cz.extension_field(base, degree, seed=seed)
    assert ext.modulus == f.coeffs
    assert len(draws) == candidates * degree and len(rings) == candidates
    assert rings[-1] is ext


def test_extension_returns_the_ring_kept_on_its_modulus(F2):
    f = cz.random_irreducible(F2, 5, seed=0)
    ext = F2.extension(f)
    assert F2.extension(f) is ext
    assert ext.modulus_poly()._field is ext and F2.extension(ext.modulus_poly()) is ext
    # a ring built directly, even on an irreducible modulus, carries no verdict
    ring = ff.FieldContext(2, lower=F2, modulus=f.coeffs)
    assert not hasattr(ring.modulus_poly(), "_field")


def test_embeddings_test_no_modulus_twice(F3, monkeypatch):
    small = cz.extension_field(F3, 2, seed=0)
    big = cz.extension_field(F3, 6, seed=1)
    cubic = cz.extension_field(F3, 3, seed=2)
    tested = []
    rabin = ff._rabin

    def counting_rabin(f, sieve=0):
        tested.append(f)
        return rabin(f, sieve)

    monkeypatch.setattr(ff, "_rabin", counting_rabin)
    cz.Embedding.find(small, big)
    assert tested == []
    # embed_pair tests only candidates for the degree-6 common field's modulus
    a, b = cz.embed_pair(small.generator(), cubic.generator())
    assert tested and all(f.degree == 6 for f in tested)
    assert tested[-1].coeffs == a.ctx.modulus and b.ctx is a.ctx


@pytest.mark.parametrize("spec, degree, muls", [("2", 12, 1), ("3", 10, 2)])
def test_frobenius_step_squares_from_the_top_bit(spec, degree, muls, monkeypatch):
    # a^q from the top bit of q: one squaring for q = 2, a square and a
    # multiply for q = 3
    K = cz.extension_field(cz.parse_field_spec(spec), degree, seed=0)
    a = K._random_raw(random.Random(1))
    calls = []
    mul = ff.FieldContext._mul

    def counting_mul(self, x, y):
        calls.append(self)
        return mul(self, x, y)

    monkeypatch.setattr(ff.FieldContext, "_mul", counting_mul)
    b = K._frob(a, 1)
    assert len(calls) == muls
    monkeypatch.undo()
    expected = 1
    for _ in range(K.p):
        expected = K._mul(expected, a)
    assert b == expected


@pytest.mark.parametrize("spec, degree", [("2", 12), ("3", 10), ("2^2:1,1,1", 3)])
def test_pow_matches_repeated_multiplication(spec, degree):
    K = cz.extension_field(cz.parse_field_spec(spec), degree, seed=0)
    rng = random.Random(2)
    for a in (0, 1, K._gen_raw(), K._random_raw(rng), K._random_raw(rng)):
        acc = 1
        for e in range(41):
            assert K._pow(a, e) == acc
            if a and e:
                assert K._mul(K._pow(a, -e), acc) == 1
            acc = K._mul(acc, a)


# -- primality -----------------------------------------------------------------

PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981


def test_is_prime_rejects_strong_pseudoprimes():
    # psi_12 passes Miller-Rabin on the prime bases 2..37, psi_13 on 2..41
    for n in (PSI12, PSI13, (2**61 - 1) * (2**89 - 1)):
        assert not ff._is_prime(n)
        assert not ff._is_prime_power(n)
    for n in (2**61 - 1, 2**89 - 1, 2**127 - 1):
        assert ff._is_prime(n) and ff._is_prime_power(n)
        assert ff._is_prime_power(n**3)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(3000):
        assert ff._is_prime(n) == sympy.isprime(n), n
    rng = random.Random("primes")
    for _ in range(400):
        n = rng.getrandbits(rng.randrange(12, 140)) | 1
        assert ff._is_prime(n) == sympy.isprime(n), n
        p = sympy.nextprime(n)
        assert ff._is_prime(p), p
        assert not ff._is_prime(p * sympy.nextprime(p)), p


# -- roots, minimal polynomials, degrees ----------------------------------------


def test_find_root_linear(F3):
    ctx = cz.extension_field(F3, 4, seed=0)
    f = cz.poly_from_text(F3, "1,1")  # X + 1
    r = cz.find_root(f, ctx)
    assert r == ctx.from_base(F3.element(2))


@pytest.mark.parametrize(
    "base_spec, degree, f_degree, small",
    [
        pytest.param("2", 6, 2, True, id="gf2_6"),
        pytest.param("3", 4, 2, True, id="gf3_4"),
        pytest.param("2^2:1,1,1", 3, 3, True, id="gf4_3"),
        pytest.param("3", 12, 4, False, id="gf3_12"),
        pytest.param("2", 20, 5, False, id="gf2_20"),
    ],
)
def test_find_root_smallest_conjugate(base_spec, degree, f_degree, small):
    # the root is the smallest-index conjugate whatever seed drives the splits
    base = cz.parse_field_spec(base_spec)
    ctx = cz.extension_field(base, degree, seed=0)
    f = cz.random_irreducible(base, f_degree, seed=1)
    roots = [cz.find_root(f, ctx, seed=s) for s in (0, 1, 7)]
    rho = roots[0]
    assert f.evaluate(rho).is_zero
    conjugates = {rho.frobenius(k) for k in range(f_degree)}
    assert len(conjugates) == f_degree
    smallest = min(conjugates, key=lambda x: x.to_int())
    assert roots == [smallest] * 3
    if small:
        # reference: the first root in canonical order, by brute force
        scan = next(
            x for x in map(ctx.nth_element, range(ctx.order))
            if f.evaluate(x).is_zero
        )
        assert rho == scan


def test_find_root_split_path(F3):
    # GF(3^12) has more than 2^16 elements; isolating a root takes several splits
    ctx = cz.extension_field(F3, 12, seed=0)
    assert ctx.order > 1 << 16
    f = cz.poly_from_text(F3, "2,0,1,0,1")
    rho = cz.find_root(f, ctx)
    assert f.evaluate(rho).is_zero
    assert rho == cz.find_root(f, ctx)  # deterministic
    roots = {rho.frobenius(k) for k in range(4)}
    assert len(roots) == 4


def test_find_root_split_path_even_characteristic(F2):
    # GF(2^20) has more than 2^16 elements; splitting uses the trace map there
    ctx = cz.extension_field(F2, 20, seed=0)
    assert ctx.order > 1 << 16
    f = cz.random_irreducible(F2, 4, seed=1)
    rho = cz.find_root(f, ctx)
    assert f.evaluate(rho).is_zero
    assert rho == cz.find_root(f, ctx)


def _root_by_splitting_in_ext(f, ext, rng):
    """Reference: split f over all of ext (Cantor-Zassenhaus on Polynomial
    pow_mod and gcd) and return the smallest-index conjugate of the root."""
    h = f.map_coefficients(ext.from_base, ext)
    Q = ext.order
    while h.degree > 1:
        u = cz.Polynomial(ext, [ext.random_element(rng) for _ in range(h.degree)])
        if Q % 2:
            w = u.pow_mod((Q - 1) // 2, h) - 1
        else:
            w = s = u  # the trace u + u^2 + ... + u^(Q/2)
            for _ in range(Q.bit_length() - 2):
                s = s.pow_mod(2, h)
                w = w + s
        d = h.gcd(w)
        if 0 < d.degree < h.degree:
            h = d
    root = -h.coefficient(0)
    return min((root.frobenius(k) for k in range(f.degree)), key=lambda x: x.to_int())


@pytest.mark.parametrize(
    "base_spec, m, n",
    [
        pytest.param("3", 1, 4, id="gf3_m1"),
        pytest.param("2", 4, 4, id="gf2_m_eq_L"),
        pytest.param("2", 6, 9, id="gf2_6_9"),
        pytest.param("3", 4, 6, id="gf3_4_6"),
        pytest.param("5", 2, 3, id="gf5_2_3"),
        pytest.param("2^2:1,1,1", 2, 3, id="gf4_2_3"),
        pytest.param("2^2:1,1,1", 3, 4, id="gf4_3_4"),
        pytest.param("2", 7, 9, id="gf2_7_9"),
    ],
)
def test_find_root_matches_split_in_full_extension(base_spec, m, n):
    # find_root isolates a root of f in GF(q^m) when 1 < m < L; splitting in
    # GF(q^L) itself must give the same smallest-index root
    base = cz.parse_field_spec(base_spec)
    L = m * n // math.gcd(m, n)
    ext = cz.extension_field(base, L, seed=0)
    rng = random.Random(f"roots:{base_spec}:{m}:{n}")
    for poly in (cz.random_irreducible(base, m, rng=rng), cz.random_irreducible(base, n, rng=rng)):
        expected = _root_by_splitting_in_ext(poly, ext, rng)
        assert poly.evaluate(expected).is_zero
        for seed in (0, 3):
            assert cz.find_root(poly, ext, seed=seed) == expected


@pytest.mark.parametrize(
    "base_spec, degree, seed",
    [
        ("2", 1, 0), ("2", 3, 1), ("2", 13, 0), ("2", 16, 0), ("2", 20, 0),
        ("3", 2, 0), ("3", 12, 3), ("3", 14, 2), ("5", 8, 5),
        ("2^2:1,1,1", 6, 6), ("2^2:1,1,1", 13, 7),
    ],
)
def test_random_irreducible_matches_plain_rejection(base_spec, degree, seed):
    # the small-factor sieve changes neither the verdicts nor the draws; at
    # degrees 16 and 20 over GF(2) and 14 over GF(3) these seeds draw
    # reducible candidates with no factor of degree <= 6, which only the
    # full test rejects
    base = cz.parse_field_spec(base_spec)
    rng, ref_rng = random.Random(seed), random.Random(seed)

    def first_irreducible():
        while True:
            cs = [base.random_element(ref_rng) for _ in range(degree)] + [base.one]
            f = cz.Polynomial(base, cs)
            if degree == 1 or cz.is_irreducible(f):
                return f

    for _ in range(2):  # the second draw checks that the rng streams stay in step
        assert cz.random_irreducible(base, degree, rng=rng) == first_irreducible()


def test_find_root_divisibility_error(F2):
    ctx = cz.extension_field(F2, 4, seed=0)
    f = cz.poly_from_text(F2, "1,1,0,1")
    with pytest.raises(ValueError):
        cz.find_root(f, ctx)


def test_minimal_polynomial_round_trip(F2):
    f = cz.poly_from_text(F2, "1,1,0,1")
    ctx = cz.extension_field(F2, 6, seed=1)
    rho = cz.find_root(f, ctx)
    assert cz.minimal_polynomial(rho) == f
    assert cz.minimal_polynomial(rho).evaluate(rho).is_zero


def test_minimal_polynomial_base_element(F3):
    gf9 = cz.extension_field(F3, 2, seed=0)
    a = gf9.from_base(F3.element(2))
    assert cz.minimal_polynomial(a) == cz.poly_from_text(F3, "1,1")
    assert cz.degree_over_base(a) == 1


@pytest.mark.parametrize(
    "base_spec, degrees",
    [
        pytest.param("2", (12,), id="2^12"),
        pytest.param("3", (10,), id="3^10"),
        pytest.param("5", (6,), id="5^6"),
        pytest.param("2^2:1,1,1", (4,), id="4^4"),
        pytest.param("3^2:1,0,1", (4,), id="9^4"),
        pytest.param("2^2:1,1,1", (2, 2), id="4^2^2"),
    ],
)
def test_pminpoly_matches_minimal_polynomial(base_spec, degrees):
    # Berlekamp-Massey (and minimal_polynomial, which wraps it) against the
    # expansion of the conjugate orbit
    K = cz.parse_field_spec(base_spec)
    for d in degrees:
        K = cz.extension_field(K, d, seed=0)
    lo = K.lower
    rng = random.Random(f"{base_spec} {degrees}")
    elements = [K.zero, K.one]
    elements += [K.from_base(lo.random_element(rng)) for _ in range(4)]
    # norms down to each proper subfield GF(Q^d), d | degree
    Q, D = lo.order, K.degree
    proper = [d for d in range(2, D) if D % d == 0]
    for d in proper:
        for _ in range(2):
            elements.append(K.random_element(rng) ** ((Q**D - 1) // (Q**d - 1)))
    elements += [K.random_element(rng) for _ in range(12)]
    found = set()
    for a in elements:
        want = orbit_expansion(a)
        for d in (want.degree, D):
            assert _pminpoly(K, a.raw, d) == want.coeffs, (a, d)
        assert cz.minimal_polynomial(a) == want, a
        found.add(want.degree)
    assert 1 in found and D in found
    if proper:
        assert any(1 < d < D for d in found)


def test_minpoly_certificate_rejects_wrong_polynomials():
    # the certificate passes minpoly(a) and rejects a polynomial of the
    # wrong degree, one that does not vanish at a, and a non-monic one
    K = cz.extension_field(cz.prime_field(3), 6, seed=0)
    a = next(x for x in K.all_elements() if cz.degree_over_base(x) == 6)
    h = _pminpoly(K, a.raw, 6)
    _check_minpoly(K, a.raw, h, 6)
    lo = K.lower
    for bad in (
        ff._pmul(lo, h, (1, 1)),  # h * (X + 1): vanishes at a, one degree too many
        (lo._add(h[0], 1),) + h[1:],  # right degree, h(a) != 0
        ff._pscale(lo, 2, h),  # 2h vanishes at a but is not monic
    ):
        with pytest.raises(RuntimeError, match="certificate"):
            _check_minpoly(K, a.raw, bad, 6)


# -- facts kept on an element -------------------------------------------------


@pytest.mark.parametrize("base_spec, degrees", MEMO_FIELDS)
def test_minimal_polynomial_is_kept_on_the_element(base_spec, degrees, monkeypatch):
    # one Berlekamp-Massey run per element, however often it is asked; the
    # kept polynomial is the one a fresh element with the same raw gets
    K = memo_field(base_spec, degrees)
    calls = []

    def spy(K, a, d):
        calls.append(a)
        return _pminpoly(K, a, d)

    monkeypatch.setattr(ff, "_pminpoly", spy)
    elements = list(K.all_elements())
    for a in elements:
        h = cz.minimal_polynomial(a)
        assert cz.minimal_polynomial(a) is h
        assert cz.degree_over_base(a) == h.degree == len(ff._orbit(K, a.raw))
    assert calls == [a.raw for a in elements]
    for a in elements:
        fresh = ff.FieldElement._wrap(K, a.raw)
        assert cz.minimal_polynomial(fresh) == cz.minimal_polynomial(a)
    assert len(calls) == 2 * len(elements)


def test_minimal_polynomial_kept_only_after_its_certificate(monkeypatch):
    K = cz.extension_field(cz.prime_field(3), 4, seed=0)
    a = K.generator()

    def wrong(K, a, d):
        h = _pminpoly(K, a, d)
        return (K.lower._add(h[0], 1),) + h[1:]  # right degree, h(a) != 0

    monkeypatch.setattr(ff, "_pminpoly", wrong)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="certificate"):
            cz.minimal_polynomial(a)
        assert getattr(a, "_minpoly", None) is None
    monkeypatch.undo()
    assert cz.minimal_polynomial(a) == K.modulus_poly()


def test_find_root_subfield_minpoly_is_orbit_expansion(F2, monkeypatch):
    # for 1 < m < L, find_root splits f in GF(q)[Y]/(h) with h = minpoly(gamma)
    # of the trace gamma it drew; h must be the expansion of gamma's orbit
    calls = []

    def spy(K, a, d):
        h = _pminpoly(K, a, d)
        calls.append((ff.FieldElement._wrap(K, a), h))
        return h

    monkeypatch.setattr(ff, "_pminpoly", spy)
    ext = cz.extension_field(F2, 63, seed=0)
    for m in (7, 9):
        f = cz.random_irreducible(F2, m, seed=m)
        calls.clear()
        root = cz.find_root(f, ext)
        assert f.evaluate(root).is_zero
        gamma, h = calls[-1]
        assert len(h) - 1 == m
        assert h == orbit_expansion(gamma).coeffs
        # every earlier draw was redrawn because its degree was not m
        assert all(len(h0) - 1 != m for _, h0 in calls[:-1])


@given(st.data())
def test_degree_divides_extension(data):
    ctx = cz.extension_field(cz.prime_field(2), 6, seed=0)
    a = ctx.nth_element(data.draw(st.integers(0, ctx.order - 1)))
    r = cz.degree_over_base(a)
    assert ctx.degree % r == 0
    assert cz.minimal_polynomial(a).degree == r
    assert cz.degree_over_base(a.frobenius(1)) == r


def test_degree_of_zero(F3):
    gf9 = cz.extension_field(F3, 2, seed=0)
    assert cz.degree_over_base(gf9.zero) == 1


def test_degree_of_cubic_generator(F2):
    ctx = F2.extension(cz.poly_from_text(F2, "1,1,0,1"))
    assert cz.degree_over_base(ctx.generator()) == 3


# -- subfield conjugate factorization --------------------------------------------


@pytest.mark.parametrize("field, m", [("2", 6), ("3", 4), ("2", 8), ("2^2:1,1,1", 4)])
def test_conjugate_factor_matches_root_expansion(field, m):
    # the orbit product of a root of f splits f over every subfield GF(q^k),
    # k | m, into k conjugate factors
    base = cz.parse_field_spec(field)
    f = cz.random_irreducible(base, m, seed=m)
    ctx = base.extension(f)
    for k in divisors(m)[1:]:
        sub = cz.extension_field(base, k)
        parts = ff._orbit_factors(cz.Embedding.find(sub, ctx), ctx._gen_raw(), m // k)
        assert parts == conjugate_factors_by_roots(f, k, sub)
        assert all(h.degree == m // k and cz.is_irreducible(h) for h in parts)
        # factor t + 1 is factor t with its coefficients raised to the q-th power
        assert parts[1:] == [h.map_coefficients(lambda c: c.frobenius(1)) for h in parts[:-1]]
        product = cz.Polynomial.one(sub)
        for h in parts:
            product = product * h
        assert product == cz.Polynomial(sub, [sub.from_base(c) for c in f.coefficients()])


# -- embeddings and towers --------------------------------------------------------


def test_embedding_round_trip():
    # over GF(3), GF(4) and GF(9): over GF(4) and GF(9), project eliminates
    # depth-2 rows of depth-1 raw values
    for spec in ("3", "2^2:1,1,1", "3^2:2,2,1"):
        base = cz.parse_field_spec(spec)
        small = cz.extension_field(base, 2, seed=0)
        big = cz.extension_field(base, 6, seed=1)
        emb = cz.Embedding.find(small, big)
        rng = random.Random(0)
        for a in small.all_elements():
            b = small.random_element(rng)
            assert emb.project(emb(a)) == a
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(a + b) == emb(a) + emb(b)
        with pytest.raises(ValueError):  # the generator has degree 6
            emb.project(big.generator())


def test_extension_of_two_level_tower(F2):
    # extending T = GF(4^2) over GF(4) puts a third level on top of T
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    tower = cz.extension_field(gf4, 2, seed=0)
    h = cz.random_irreducible(tower, 2, seed=2)
    ext = tower.extension(h)
    assert ext.lower == tower and ext.depth == 3 and ext.order == tower.order**2
    assert h.evaluate(cz.find_root(h, ext)).is_zero
    rng = random.Random(1)
    for _ in range(5):
        a, b = tower.random_element(rng), tower.random_element(rng)
        assert ext.to_base(ext.from_base(a) * ext.from_base(b)) == a * b
    # composed products over T: the roots live in the degree-6 extension of T
    f = cz.random_irreducible(tower, 2, rng=rng)
    g = cz.random_irreducible(tower, 3, rng=rng)
    pair = cz.RootPair.build(f, g)
    assert pair.ctx.lower == tower and pair.ctx.degree == 6
    phis = [cz.PhiPoly.random(tower, 2, 3, rng, basis=basis)
            for basis in (cz.MONOMIAL, cz.LINEARIZED) for _ in range(5)]
    phis.append(cz.PhiPoly.build(tower, ((0, 0, 0), (1, 0, 0))))  # phi = x cancels
    for phi in phis:
        spec = cz.DiamondSpec.from_phi(phi)
        bd = spec.bind(pair)
        assert [list(row) for row in bd.vals] == _grid_from_scratch(spec, pair)
        product = bd.composed()
        assert product.ctx == tower and product.degree == 6
        assert cz.is_irreducible(product) == cz.cc_direct(bd).holds


# -- zero polynomial and text formats ----------------------------------------------


def test_repr_of_deep_tower(F2):
    # depth 3 has no text format; str and repr list the coordinates over the
    # depth-2 field T, each in T's text format
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    tower = cz.extension_field(gf4, 2, seed=0)
    ext = tower.extension(cz.random_irreducible(tower, 2, seed=2))
    a = tower.nth_element(11)
    assert str(a) == cz.element_to_text(a) == "1:1/0:1"
    assert repr(a) == "FieldElement(GF(4^2), '1:1/0:1')"
    x = ext.from_base(a)
    assert str(x) == "[1:1/0:1, 0:0/0:0]"
    assert repr(x) == "FieldElement(GF(16^2), '[1:1/0:1, 0:0/0:0]')"
    assert str(x) == "[" + ", ".join(map(str, x.coords())) + "]"
    assert repr(cz.Polynomial(ext, [x, ext.one])) == (
        "Polynomial(GF(16^2), '[1:1/0:1, 0:0/0:0],[1:0/0:0, 0:0/0:0]')"
    )
    assert str(cz.Polynomial(ext, [])) == "0"
    with pytest.raises(ValueError, match="too deep"):
        cz.element_to_text(x)


def test_zero_polynomial_degree_sentinel(F3):
    z = cz.Polynomial(F3, [0, 0])
    assert z.degree is None and z.is_zero
    assert cz.poly_to_text(z) == "0"


def test_poly_text_example(F3):
    f = cz.poly_from_text(F3, "2,1,0,1")
    assert f.degree == 3
    assert f.coefficient(0) == F3.element(2)
    assert cz.poly_to_text(f) == "2,1,0,1"


@given(st.data())
def test_poly_text_round_trip(data):
    ctx = data.draw(st.sampled_from(_contexts()))
    deg = data.draw(st.integers(0, 5))
    coeffs = [
        ctx.nth_element(data.draw(st.integers(0, ctx.order - 1)))
        for _ in range(deg + 1)
    ]
    f = cz.Polynomial(ctx, coeffs)
    assert cz.poly_from_text(ctx, cz.poly_to_text(f)) == f


def test_element_text_round_trip(F2):
    gf4 = F2.extension(cz.poly_from_text(F2, "1,1,1"))
    tower = cz.extension_field(gf4, 3, seed=0)
    for i in (0, 1, 17, 63):
        a = tower.nth_element(i)
        assert cz.element_from_text(tower, cz.element_to_text(a)) == a


def test_parse_field_spec():
    assert cz.parse_field_spec("3").order == 3
    gf4 = cz.parse_field_spec("2^2:1,1,1")
    assert gf4.order == 4 and gf4.degree == 2
    with pytest.raises(ValueError):
        cz.parse_field_spec("4")
    with pytest.raises(ValueError):
        cz.parse_field_spec("2^2:1,1,1,1")
    with pytest.raises(ValueError):
        cz.parse_field_spec("2^3")


def test_polynomial_divmod_gcd(F3):
    f = cz.poly_from_text(F3, "2,0,1,0,1")
    g = cz.poly_from_text(F3, "1,2,0,1")
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert f.gcd(g).degree == 0
    h = f * g
    assert h.gcd(f) == f


# -- packed kernel against a schoolbook reference -----------------------------------
#
# The reference works on nested coordinate lists (ints at the bottom) and
# shares no code with FieldContext: it multiplies by the schoolbook rule and
# reduces by the monic modulus one leading term at a time.


class _RefField:
    """GF(p) when lower is None, else lower[X]/(modulus) on coordinate lists."""

    def __init__(self, p, lower=None, modulus=None):
        self.p, self.lower, self.modulus = p, lower, modulus
        self.k = 1 if lower is None else len(modulus) - 1
        self.order = p if lower is None else lower.order**self.k

    def zero(self):
        return 0 if self.lower is None else [self.lower.zero()] * self.k

    def one(self):
        return 1 if self.lower is None else [self.lower.one()] + self.zero()[1:]

    def add(self, a, b):
        if self.lower is None:
            return (a + b) % self.p
        return [self.lower.add(x, y) for x, y in zip(a, b)]

    def neg(self, a):
        if self.lower is None:
            return -a % self.p
        return [self.lower.neg(x) for x in a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        lo = self.lower
        if lo is None:
            return a * b % self.p
        k = self.k
        t = [lo.zero() for _ in range(2 * k - 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                t[i + j] = lo.add(t[i + j], lo.mul(x, y))
        for d in range(2 * k - 2, k - 1, -1):
            c = t[d]
            for i, m in enumerate(self.modulus):
                t[d - k + i] = lo.sub(t[d - k + i], lo.mul(c, m))
        return t[:k]

    def pow(self, a, e):
        out = self.one()
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def index(self, a):
        if self.lower is None:
            return a
        return sum(self.lower.index(c) * self.lower.order**i for i, c in enumerate(a))

    def random(self, rng):
        if self.lower is None:
            return rng.randrange(self.p)
        return [self.lower.random(rng) for _ in range(self.k)]

    def top(self):
        """Every coordinate at its largest value p - 1: the fullest slots."""
        return self.p - 1 if self.lower is None else [self.lower.top()] * self.k


def _nested_coords(x):
    assert type(x.raw) is int  # one int at every depth
    if x.ctx.lower is None:
        return x.to_int()
    return [_nested_coords(c) for c in x.coords()]


def _ref_field(ctx):
    if ctx.lower is None:
        return _RefField(ctx.p)
    modulus = [_nested_coords(c) for c in ctx.modulus_poly().coefficients()]
    return _RefField(ctx.p, _ref_field(ctx.lower), modulus)


KERNEL_FIELDS = [
    ("2", 1), ("2", 2), ("2", 12), ("2", 63),
    ("2", 4), ("2", 27), ("2", 28),  # slot widths 4, 5 and 6 bits
    ("3", 2), ("3", 12), ("3", 20),
    ("5", 6), ("7", 3),
    ("2^2:1,1,1", 3), ("3^2:2,2,1", 2),
    ("2^2:1,1,1", (2, 2)),  # three levels: GF(4) -> GF(4^2) -> GF(16^2)
    ("3^2:2,2,1", (2, 2)),  # odd characteristic: a - b and -a differ from a + b
]


def _degrees(degree):
    return degree if isinstance(degree, tuple) else (degree,)


def _assert_canonical(ctx, raw):
    """Every slot of raw holds a value below p, and no bit lies at or above
    slot `degree`."""
    w, top = ctx._w, ctx._stride * ctx.degree
    assert raw >> top == 0
    assert all(raw >> s & ((1 << w) - 1) < ctx.p for s in range(0, top, w))


@pytest.mark.parametrize(
    "spec, degree",
    KERNEL_FIELDS,
    ids=["_".join([s.split(":")[0], *map(str, _degrees(d))]) for s, d in KERNEL_FIELDS],
)
def test_kernel_matches_schoolbook(spec, degree):
    ctx = cz.parse_field_spec(spec)
    for d in _degrees(degree):
        ctx = cz.extension_field(ctx, d, seed=0)
    level = ctx
    while level is not None:  # zero and one are the ints 0 and 1 at every depth
        assert level.zero.raw == 0 and level.one.raw == 1
        level = level.lower
    ref = _ref_field(ctx)
    rng = random.Random(f"kernel:{spec}:{degree}")
    values = [ref.zero(), ref.one(), ref.top()] + [ref.random(rng) for _ in range(10)]
    one = ref.one()
    q = ctx.subfield_order
    for u, v in zip(values, values[1:] + values[:1]):
        a, b = ctx.element(u), ctx.element(v)
        # coordinates, index and text
        assert _nested_coords(a) == u
        i = ref.index(u)
        assert a.to_int() == i and ctx.nth_element(i) == a
        if ctx.depth <= 2:  # the text formats have two coordinate separators
            assert cz.element_from_text(ctx, cz.element_to_text(a)) == a
        # ring operations
        assert _nested_coords(a + b) == ref.add(u, v)
        assert _nested_coords(a - b) == ref.sub(u, v)
        assert _nested_coords(-a) == ref.neg(u)
        assert _nested_coords(a * b) == ref.mul(u, v)
        e = rng.randrange(40)
        assert _nested_coords(a**e) == ref.pow(u, e)
        for j in (1, 2):
            assert _nested_coords(a.frobenius(j)) == ref.pow(u, q**j)
        # a scalar from the next-lower level: coordinate 0 of b
        c = b.coords()[0]
        scaled = ctx._scalar_mul(c.raw, a.raw)
        assert _nested_coords(ff.FieldElement._wrap(ctx, scaled)) == ref.mul(
            _nested_coords(ctx.from_base(c)), u
        )
        results = [a + b, a - b, -a, a * b, a.frobenius(1), a.frobenius(2)]
        if u == ref.zero():
            with pytest.raises(ZeroDivisionError):
                a**-1
        else:
            assert ref.mul(_nested_coords(a**-1), u) == one
            assert ref.mul(_nested_coords(a**-3), ref.pow(u, 3)) == one
            results.append(a**-1)
        for x in results:
            _assert_canonical(ctx, x.raw)
        _assert_canonical(ctx, scaled)


def test_inverse_in_a_reducible_ring():
    # GF(2)[X]/(X^2): X is a zero divisor, X + 1 is its own inverse
    R = ff.FieldContext(2, lower=cz.prime_field(2), modulus=(0, 0, 1))
    x = R._pack((0, 1))
    with pytest.raises(ZeroDivisionError):
        R._inv(x)
    assert R._inv(x | 1) == x | 1


# -- prime-field polynomials against sympy --------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducible_and_gcd_match_sympy(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcd, gf_irreducible_p

    F = cz.prime_field(p)
    rng = random.Random(f"sympy:{p}")

    def draw(degree, monic):
        cs = [rng.randrange(p) for _ in range(degree)]
        return cs + [1 if monic else rng.randrange(1, p)]

    for degree in range(1, 13):
        for _ in range(6):
            cs = draw(degree, True)
            assert cz.is_irreducible(cz.Polynomial(F, cs)) == gf_irreducible_p(
                cs[::-1], p, ZZ
            )
            # a shared factor makes most gcds nontrivial
            common = draw(rng.randrange(0, 4), False)
            f = cz.Polynomial(F, draw(rng.randrange(0, degree + 1), False))
            g = cz.Polynomial(F, draw(degree, False))
            if rng.randrange(2):
                f, g = f * cz.Polynomial(F, common), g * cz.Polynomial(F, common)
            expected = gf_gcd([c.to_int() for c in f.coefficients()][::-1],
                              [c.to_int() for c in g.coefficients()][::-1], p, ZZ)
            assert [c.to_int() for c in f.gcd(g).coefficients()] == expected[::-1]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**61 - 1, 2**127 - 1])
def test_product_and_division_match_sympy(p):
    # the packed GF(p) product reads each column from a byte slot sized by
    # min(len) (p - 1)^2; the lengths cross the size where the slot grows
    # by a byte, and the divisors are not monic
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_div, gf_mul

    F = cz.prime_field(p)
    rng = random.Random(f"sympy mul div:{p}")

    def draw(length):
        return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)]

    lengths = (1, 2, 3, 4, 5, 8, 9, 16, 17, 36, 64, 65, 256, 257, 300)
    widths = set()
    for la in lengths:
        for lb in (la, rng.randrange(1, 301)):
            a, b = draw(la), draw(lb)
            widths.add(((min(la, lb) * (p - 1) ** 2).bit_length() + 7) // 8)
            A, B = cz.Polynomial(F, a), cz.Polynomial(F, b)
            assert list((A * B).coeffs) == gf_mul(a[::-1], b[::-1], p, ZZ)[::-1]
            q, r = divmod(A, B)
            want_q, want_r = gf_div(a[::-1], b[::-1], p, ZZ)
            assert (list(q.coeffs), list(r.coeffs)) == (want_q[::-1], want_r[::-1])
    assert len(widths) == 2


# -- pow_mod against the power and remainder operators ------------------------------


def _pow_mod_cases(spec):
    """(base, e, modulus) over the field spec: constant, monic and non-monic
    moduli, zero bases and bases of degree below, at and above the modulus."""
    K = cz.parse_field_spec(spec)
    rng = random.Random(f"pow_mod:{spec}")
    nonzero = [a for a in K.all_elements() if not a.is_zero]

    def draw(degree, lead):
        return cz.Polynomial(K, [K.random_element(rng) for _ in range(degree)] + [lead])

    moduli = [cz.Polynomial.constant(K, c) for c in nonzero]  # residues mod a unit are 0
    for degree in (1, 2, 3, 5):
        moduli += [draw(degree, K.one), draw(degree, rng.choice(nonzero))]
    if K.order > 2:
        moduli.append(draw(4, nonzero[-1]))  # nonzero[-1] is not 1: non-monic
    cases = []
    for modulus in moduli:
        d = modulus.degree
        for e in (0, 1, rng.randrange(2, 60)):
            cases.append((cz.Polynomial(K), e, modulus))
            for base_degree in (max(d - 1, 0), d, 2 * d + 3):
                cases.append((draw(base_degree, rng.choice(nonzero)), e, modulus))
    return cases


@pytest.mark.parametrize("spec", ["2", "3", "5", "2^2:1,1,1", "3^2:1,0,1"])
def test_pow_mod_matches_power_then_remainder(spec):
    for base, e, modulus in _pow_mod_cases(spec):
        assert base.pow_mod(e, modulus) == (base**e) % modulus, (base, e, modulus)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pow_mod_matches_sympy(p):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    def dense(f):
        return [c.to_int() for c in f.coefficients()][::-1]

    # gf_pow_mod returns [1] for e = 0 even mod a constant, so only proper moduli
    for base, e, modulus in _pow_mod_cases(str(p)):
        if modulus.degree >= 1:
            got = base.pow_mod(e, modulus)
            assert dense(got) == gf_pow_mod(dense(base), e, dense(modulus), p, ZZ)
