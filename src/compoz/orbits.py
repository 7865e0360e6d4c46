"""Integer bookkeeping for the factor degrees of composed products.

Pairs (i, j) in Z_m x Z_n fall into gcd(m, n) orbits of length lcm(m, n)
under the shift by (1, 1) (Brawley-Carlitz, 1987); BoundDiamond lays its
value grid out along them.  This module holds the arithmetic on m and n
that the factor-structure checks use: divisors, p-adic valuations and the
coprime decomposition that gives the admissible factor degrees.
Everything here is plain integer arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .ff import _is_prime, distinct_prime_factors


def divisors(n):
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = [1]
    for p in distinct_prime_factors(n):
        out = [d * p**k for d in out for k in range(nu_p(p, n) + 1)]
    return sorted(out)


def nu_p(p, a):
    """The exact p-adic valuation of a: p^v | a and p^(v+1) does not."""
    if a < 1:
        raise ValueError("a must be >= 1")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


class CoprimeDecomposition(NamedTuple):
    """Pairwise-coprime splitting m = o*m1*m2 and n = o*n1*n2.

    o carries the primes where the valuations of m and n agree, m1 the
    primes where m dominates (at m's full power), n1 those where n
    dominates.  lcm(m, n) = o*m1*n1.
    """

    m: int
    n: int
    o: int
    m1: int
    m2: int
    n1: int
    n2: int

    def admissible_degrees(self):
        """Divisors r of lcm(m, n) with lcm(r, m) = lcm(r, n) = lcm(m, n)."""
        return tuple(sorted(d * self.n1 * self.m1 for d in divisors(self.o)))


def coprime_decomposition(m, n):
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    o = m1 = n1 = 1
    primes = set(distinct_prime_factors(m)) | set(distinct_prime_factors(n))
    for p in primes:
        vm = nu_p(p, m)
        vn = nu_p(p, n)
        if vm == vn:
            o *= p**vm
        elif vm > vn:
            m1 *= p**vm
        else:
            n1 *= p**vn
    return CoprimeDecomposition(
        m=m, n=n, o=o, m1=m1, m2=m // (o * m1), n1=n1, n2=n // (o * n1)
    )


def valuations_all_distinct(m, n):
    """True when no prime divides m and n to the same positive power."""
    return coprime_decomposition(m, n).o == 1
