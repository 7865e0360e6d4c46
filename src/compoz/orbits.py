"""Integer bookkeeping for simultaneous-Frobenius orbits of exponent pairs.

Pairs (i, j) in Z_m x Z_n are equivalent when they differ by a multiple of
(1, 1).  There are gcd(m, n) orbits, each of length lcm(m, n), and the
family {(0, j) : j < gcd(m, n)} is a transversal.  Everything in this
module is plain integer arithmetic.
"""

from __future__ import annotations

import math
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


def crt_general(a1, m, a2, n):
    """Solve x = a1 (mod m), x = a2 (mod n) for possibly non-coprime moduli.

    Returns the unique solution modulo lcm(m, n), or None when
    gcd(m, n) does not divide a1 - a2.
    """
    if m < 1 or n < 1:
        raise ValueError("moduli must be >= 1")
    g = math.gcd(m, n)
    if (a1 - a2) % g != 0:
        return None
    lcm = m // g * n
    m_, n_ = m // g, n // g
    t = (a2 - a1) // g * pow(m_, -1, n_) % n_
    return (a1 + m * t) % lcm


class OrbitStructure(NamedTuple):
    """Transversal data for the (1,1)-shift action on Z_m x Z_n."""

    m: int
    n: int
    gcd: int
    lcm: int
    representatives: tuple

    def representative_of(self, i, j):
        """The transversal member (0, j') in the orbit of (i, j)."""
        return (0, (j - i) % self.gcd)

    def cells(self, rep):
        """All lcm(m, n) cells of the orbit of the representative, walk order."""
        _, j0 = rep
        return [((t) % self.m, (j0 + t) % self.n) for t in range(self.lcm)]


def orbit_reps(m, n):
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    g = math.gcd(m, n)
    return OrbitStructure(
        m=m,
        n=n,
        gcd=g,
        lcm=m // g * n,
        representatives=tuple((0, j) for j in range(g)),
    )


def same_orbit(u, v, i, j, m, n):
    """Whether (u, v) and (i, j) share an orbit: gcd(m, n) | (u - i) + (v - j)."""
    return ((u - i) + (v - j)) % math.gcd(m, n) == 0


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
