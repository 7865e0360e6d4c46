import math

import pytest
from hypothesis import given, strategies as st

from compoz import orbits


def test_nu_p_examples():
    assert orbits.nu_p(2, 12) == 2
    assert orbits.nu_p(3, 12) == 1
    assert orbits.nu_p(5, 12) == 0


def test_nu_p_rejects_composite():
    with pytest.raises(ValueError):
        orbits.nu_p(4, 12)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 10_000))
def test_nu_p_definition(p, a):
    v = orbits.nu_p(p, a)
    assert a % p**v == 0 and a % p ** (v + 1) != 0


# -- coprime decomposition --------------------------------------------------------


def test_decomposition_frozen_cases():
    d = orbits.coprime_decomposition(12, 18)
    assert (d.o, d.m1, d.m2, d.n1, d.n2) == (1, 4, 3, 9, 2)
    assert d.admissible_degrees() == (36,)

    d = orbits.coprime_decomposition(6, 6)
    assert d.o == 6 and d.m1 == d.n1 == 1
    assert d.admissible_degrees() == (1, 2, 3, 6)

    d = orbits.coprime_decomposition(4, 2)
    assert (d.o, d.m1, d.n2) == (1, 4, 2)
    assert d.admissible_degrees() == (4,)


@given(st.integers(1, 60), st.integers(1, 60))
def test_decomposition_invariants(m, n):
    d = orbits.coprime_decomposition(m, n)
    assert d.o * d.m1 * d.m2 == m
    assert d.o * d.n1 * d.n2 == n
    assert math.gcd(d.o, d.m1) == math.gcd(d.o, d.m2) == math.gcd(d.m1, d.m2) == 1
    assert math.gcd(d.o, d.n1) == math.gcd(d.o, d.n2) == math.gcd(d.n1, d.n2) == 1
    assert d.o * d.n1 * d.m1 == math.lcm(m, n)
    for p in orbits.divisors(d.n1):
        if p > 1 and all(p % r for r in range(2, p)):
            assert orbits.nu_p(p, n) > orbits.nu_p(p, m)


def test_admissible_matches_brute_force_up_to_60():
    for m in range(1, 61):
        for n in range(1, 61):
            L = math.lcm(m, n)
            brute = tuple(
                r
                for r in orbits.divisors(L)
                if math.lcm(r, m) == L and math.lcm(r, n) == L
            )
            assert orbits.coprime_decomposition(m, n).admissible_degrees() == brute


def test_valuations_all_distinct():
    assert orbits.valuations_all_distinct(4, 2)
    assert not orbits.valuations_all_distinct(6, 6)
    assert orbits.valuations_all_distinct(9, 8)
    assert not orbits.valuations_all_distinct(2, 6)


@given(st.integers(2, 50), st.integers(2, 50))
def test_valuations_distinct_matches_definition(m, n):
    expected = all(
        orbits.nu_p(p, m) != orbits.nu_p(p, n)
        for p in range(2, m * n + 1)
        if all(p % r for r in range(2, p)) and (m * n) % p == 0
    )
    assert orbits.valuations_all_distinct(m, n) == expected
