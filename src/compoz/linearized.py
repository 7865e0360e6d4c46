"""Normal elements and bilinear (q-linearized) diamond products.

A bilinear phi has the shape sum c_ij X^(q^i) Y^(q^j); its cancellation
behaviour on pairs of normal elements is read off the coefficient matrix
with nothing but entry comparisons, and normality of phi(alpha, beta) is
governed by the staircase polynomial e with e_k = c_(k mod m, k mod n).

The staircase sum starts at k = 0.  The product case phi = XY forces this:
its staircase must be the constant 1 (alpha*beta is normal for normal
inputs), which only the k = 0 term can supply.

The twisted binomial alpha^(q^k) beta +- alpha beta^(q^l), whose parameters
are a TwistedParams, has a closed-form normality predicate.  The shifted
sum alpha + beta + d takes its shift d as an argument of
shifted_sum_is_normal.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from . import linalg
from .diamond import LINEARIZED, PhiPoly, RootPair
from .ff import (
    DEFAULT_SEED,
    ContextMismatchError,
    Embedding,
    FieldElement,
    Polynomial,
    _is_prime_power,
    _orbit,
    degree_over_base,
    distinct_prime_factors,
)
from .orbits import nu_p


# -- normality ----------------------------------------------------------------


def is_normal(gamma, degree=None):
    """Whether gamma is a normal element of the degree-`degree` subfield.

    degree defaults to the context degree.  Normal means gamma has exactly
    `degree` distinct conjugates and they are independent over the base, so
    an element of any other degree is never normal.  The orbit length and
    the rank of the conjugates are kept on gamma (FieldElement._normality),
    so a later call, for any degree, walks and eliminates nothing.
    """
    ctx = gamma.ctx
    if ctx.lower is None:
        raise ValueError("normality is relative to an extension field")
    known = getattr(gamma, "_normality", None)
    if known is None:
        conjs = _orbit(ctx, gamma.raw)
        known = gamma._normality = (len(conjs), linalg.mat_rank(ctx, conjs))
    r = ctx.degree if degree is None else degree
    return known == (r, r)


def random_normal_element(ctx, *, rng=None, seed=DEFAULT_SEED):
    """Seeded rejection sampling from the normal elements of the context."""
    if ctx.lower is None:
        raise ValueError("normality is relative to an extension field")
    if rng is None:
        rng = random.Random(seed)
    while True:
        a = ctx.random_element(rng)
        if is_normal(a):
            return a


def embed_pair(alpha, beta, *, seed=DEFAULT_SEED):
    """Embed elements of two extensions of one base into a common field.

    Returns the pair of images in the field of RootPair.build on the two
    moduli: degree lcm(deg(alpha ctx), deg(beta ctx)), drawn with seed, each
    modulus' generator sent to its smallest-index root there.
    """
    am, bn = alpha.ctx, beta.ctx
    if am.lower is None or bn.lower is None or am.lower != bn.lower:
        raise ContextMismatchError("need elements of two extensions of one base field")
    pair = RootPair.build(am.modulus_poly(), bn.modulus_poly(), seed=seed)
    ea = Embedding(am, pair.ctx, pair.alpha)
    eb = Embedding(bn, pair.ctx, pair.beta)
    return ea(alpha), eb(beta)


# -- cancellation for bilinear products ---------------------------------------


def bilinear_cc_test(phi):
    """Cancellation of a linearized phi on all pairs of normal elements.

    In normal bases the q-power map is the cyclic coordinate shift, so the
    matrix condition degenerates to shift-invariance checks on the
    coefficient grid: the test holds iff no row shift by m/p and no column
    shift by n/p fixes the matrix.  Only entry comparisons are used.
    """
    if phi.basis != LINEARIZED:
        raise ValueError("expected a linearized-basis phi")
    m, n = phi.m, phi.n
    if math.gcd(m, n) != 1:
        raise ValueError("bilinear cancellation test needs coprime degrees")
    C = phi.rows
    for p in distinct_prime_factors(m):
        d = m // p
        if all(C[(i - d) % m][j] == C[i][j] for i in range(m) for j in range(n)):
            return False
    for p in distinct_prime_factors(n):
        d = n // p
        if all(C[i][(j - d) % n] == C[i][j] for i in range(m) for j in range(n)):
            return False
    return True


def linearized_degree_criterion(psi, m):
    """Sufficient: a q-polynomial of degree below q^(m - m1) maps every
    normal element of GF(q^m) to a generator of GF(q^m).

    psi is the conventional associate of the q-polynomial sum c_i X^(q^i):
    the Polynomial over the base whose coefficient i is c_i, so the
    q-degree is psi.degree.  m1 is the largest proper divisor of m.  False
    is inconclusive.
    """
    if m < 2:
        raise ValueError("criterion needs m > 1")
    if psi.degree is None:
        return False
    m1 = m // distinct_prime_factors(m)[0]
    return psi.degree < m - m1


# -- staircase polynomials -----------------------------------------------------


def staircase(phi):
    """The staircase polynomial of a linearized phi with coprime dimensions.

    A Polynomial over phi's field with coefficient c_(k mod m, k mod n) at
    X^k for k = 0 .. mn-1.
    """
    if phi.basis != LINEARIZED:
        raise ValueError("staircase polynomials read the linearized basis")
    m, n = phi.m, phi.n
    if math.gcd(m, n) != 1:
        raise ValueError("staircase needs coprime dimensions")
    coeffs = [phi.rows[k % m][k % n] for k in range(m * n)]
    return Polynomial._from_raw(phi.ctx, coeffs)


def staircase_normal_test(phi, alpha, beta):
    """Whether phi(alpha, beta) is normal, via gcd(e, X^(mn) - 1) = 1.

    alpha and beta must be normal elements of the degree-m and degree-n
    subfields, presented inside a common extension of degree m*n.
    """
    st = staircase(phi)
    m, n = phi.m, phi.n
    _check_normal_pair(alpha, beta, m, n)
    xmn = Polynomial(phi.ctx, [-1] + [0] * (m * n - 1) + [1])
    return st.gcd(xmn).degree == 0


def _check_normal_pair(alpha, beta, m, n):
    # is_normal(x, r) is False unless x has exactly r conjugates
    if alpha.ctx != beta.ctx:
        raise ContextMismatchError("the pair must live in one context")
    if not is_normal(alpha, m):
        raise ValueError("first argument is not normal in its subfield")
    if not is_normal(beta, n):
        raise ValueError("second argument is not normal in its subfield")


def evaluate_bilinear(phi, alpha, beta):
    """phi(alpha, beta) for a pair embedded in a common extension."""
    return phi.evaluate(alpha, beta)


# -- twisted binomial products --------------------------------------------------


class _TwistedFields(NamedTuple):
    q: int
    m: int
    n: int
    k: int
    l: int
    sign: str = "+"


class TwistedParams(_TwistedFields):
    """Parameters of the binomial product alpha^(q^k) beta +- alpha beta^(q^l)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not _is_prime_power(self.q):
            raise ValueError(f"q = {self.q} is not a prime power")
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if math.gcd(self.m, self.n) != 1:
            raise ValueError("m and n must be coprime")
        if not (0 <= self.k < self.m and 0 <= self.l < self.n):
            raise ValueError("twists must satisfy 0 <= k < m and 0 <= l < n")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would otherwise skip __new__
        return cls(*iterable)


def twisted_product_phi(ctx, params):
    """The coefficient grid of the twisted binomial as a linearized PhiPoly."""
    m, n = params.m, params.n
    rows = [[0] * n for _ in range(m)]
    rows[params.k][0] += 1
    rows[0][params.l] += 1 if params.sign == "+" else -1
    return PhiPoly.build(ctx, rows, LINEARIZED)


def twisted_normal_predicate(params):
    """Closed form for normality of the twisted value on normal pairs.

    The minus family is never normal.  The plus family is normal iff q is
    odd and either both m and n are odd, or the even one of them has its
    2-adic valuation bounded by that of its twist exponent.  No field
    arithmetic is involved.
    """
    if params.sign == "-":
        return False
    if params.q % 2 == 0:
        return False
    m, n = params.m, params.n
    if m % 2 == 1 and n % 2 == 1:
        return True
    # a zero twist has valuation infinity, so its bound holds
    if m % 2 == 0:
        return params.k == 0 or nu_p(2, m) <= nu_p(2, params.k)
    return params.l == 0 or nu_p(2, n) <= nu_p(2, params.l)


def shifted_sum_is_normal(alpha, beta, d=0):
    """is_normal(alpha + beta + d) for normal alpha, beta of coprime degrees.

    Returns the plain truth value; the shifted sum is in fact never normal,
    which the property suite asserts over its whole grid.
    """
    ctx = alpha.ctx
    for x in (alpha, beta):
        if x.ctx.lower is not None:  # a prime-field value has degree 1
            is_normal(x)  # keeps the orbit length that degree_over_base reads
    m = degree_over_base(alpha)
    n = degree_over_base(beta)
    if m < 2 or n < 2 or math.gcd(m, n) != 1:
        raise ValueError("need coprime degrees above 1")
    _check_normal_pair(alpha, beta, m, n)
    if ctx.degree != m * n:
        raise ValueError("ambient context must have degree m*n")
    if isinstance(d, FieldElement):
        if d.ctx != ctx.lower:
            raise ContextMismatchError("shift constant must come from the base field")
        shift = ctx.from_base(d)
    else:
        shift = ctx.element(d)
    return is_normal(alpha + beta + shift)
