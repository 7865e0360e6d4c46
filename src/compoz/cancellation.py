"""Conjugate-cancellation checks.

Four routes decide whether a diamond product cancels conjugate shifts on a
pair of roots: exhausting the value grid (cc_direct), reading subfield
degrees of the values (cc_oracle), verifying that the coefficient
polynomials of a phi generate both extensions (cc_by_coefficient_polys),
and a Frobenius-matrix formulation (matrix_cc_test).  All four agree; the
matrix and coefficient routes need a monomial phi of shape deg f x deg g
and coprime degrees.  ROUTES maps each route name, in report order, to a
callable on a BoundDiamond; run_routes(bd) runs every route that applies
(a table spec has no phi, so only direct and oracle) and is the one place
callers take route verdicts from.

A failing verdict carries a witness (k, side, orbit), whose k each route
reads off its own computation:

  * direct: the smallest exponent k such that shifting the argument on
    that side by the q^k-Frobenius leaves the value at (0, orbit) fixed
    without fixing the argument, a literal shift;
  * oracle: for the first orbit j whose value has degree r_j with
    lcm(n, r_j) or lcm(m, r_j) short of lcm(m, n), that lcm, on side
    alpha or beta respectively;
  * coeffs and matrix: m/p on side alpha, or n/p on side beta, for the
    smallest prime p whose subfield test fails, with orbit 0.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from . import linalg
from .diamond import MONOMIAL, PhiPoly, _check_root_polys
from .ff import (
    DEFAULT_SEED,
    FieldContext,
    _powers,
    degree_over_base,
    distinct_prime_factors,
)

ROUTE_DIRECT = "direct"
ROUTE_ORACLE = "oracle"
ROUTE_COEFFS = "coeffs"
ROUTE_MATRIX = "matrix"


class CcWitness(NamedTuple):
    k: int
    side: str
    orbit: int


class CcVerdict(NamedTuple):
    holds: bool
    route: str
    witness: CcWitness = None

    def to_doc(self):
        doc = {"holds": self.holds, "route": self.route}
        if self.witness is not None:
            doc["witness"] = {
                "k": self.witness.k,
                "side": self.witness.side,
                "orbit": self.witness.orbit,
            }
        return doc


def petr_berlekamp_matrix(f):
    """Matrix of the q-power map in the basis 1, alpha, ..., alpha^(m-1).

    Column j holds the coordinates of (alpha^j)^q where alpha is a root of
    the monic irreducible f.  Rows are tuples of raw base-field values.
    """
    ring = f.ctx.extension(f)
    cols = _powers(ring, ring._frob(ring._gen_raw(), 1), ring.degree)
    return tuple(zip(*(ring._unpack(c) for c in cols)))


# -- direct and degree-based routes -----------------------------------------


def cc_direct(bd):
    """Exhaustive check of the cancellation implications on the value grid.

    Tests every representative pair (0, j) against every shift k that is a
    multiple of gcd(m, n) in [0, lcm(m, n)); conjugating the equations moves
    any violating pair onto a representative, so this covers the whole grid.
    """
    m, n = bd.pair.m, bd.pair.n
    g = math.gcd(m, n)
    L = m // g * n
    vals = bd.vals
    for k in range(0, L, g):
        for j in range(g):
            ref = vals[0][j]
            if k % m and vals[k % m][j] == ref:
                return CcVerdict(False, ROUTE_DIRECT, CcWitness(k, "alpha", j))
            if k % n and vals[0][(j + k) % n] == ref:
                return CcVerdict(False, ROUTE_DIRECT, CcWitness(k, "beta", j))
    return CcVerdict(True, ROUTE_DIRECT)


def cc_oracle(bd):
    """Decide cancellation from the subfield degrees of the orbit values.

    Holds iff every value at (0, j) generates a field of degree r_j with
    lcm(m, r_j) = lcm(n, r_j) = lcm(m, n).
    """
    m, n = bd.pair.m, bd.pair.n
    g = math.gcd(m, n)
    L = m // g * n
    for j in range(g):
        r = degree_over_base(bd.value(0, j))
        ln, lm = math.lcm(n, r), math.lcm(m, r)
        if ln != L:
            return CcVerdict(False, ROUTE_ORACLE, CcWitness(ln, "alpha", j))
        if lm != L:
            return CcVerdict(False, ROUTE_ORACLE, CcWitness(lm, "beta", j))
    return CcVerdict(True, ROUTE_ORACLE)


# -- coefficient-polynomial route --------------------------------------------


def _surviving_primes(f, polys):
    """Primes p | m for which every u has u(alpha) inside GF(q^(m/p))."""
    m = f.degree
    ring = f.ctx.extension(f)
    values = []
    for u in polys:
        d = u.degree
        if d is not None and d >= m:
            raise ValueError("coefficient polynomials must have degree < deg f")
        values.append(ring._pack(u.coeffs))
    remaining = distinct_prime_factors(m)
    for v in values:
        remaining = [p for p in remaining if ring._frob(v, m // p) == v]
        if not remaining:
            break
    return tuple(remaining)


def verify_extension_degree(f, polys):
    """Whether the values u(alpha), u in polys, generate all of GF(q^m).

    Exactly the subfield sieve: alpha is a root of the monic irreducible f,
    and the values generate GF(q^m) iff for every prime p | m some u(alpha)
    moves under the q^(m/p)-power map.  GF(q)[X]/(f) is the field that f's
    Rabin test built and kept on f, whose elements are the values u(alpha):
    u is its own coordinate vector there, and the test of a prime p is
    whether the Frobenius power _frob(u, m/p) fixes u.  The sieve exits as
    soon as every prime is ruled out, so on average only the first couple
    of polynomials are touched.
    """
    return not _surviving_primes(f, polys)


def _phi_route_error(f, g, phi, label="phi"):
    """Why the coeffs or matrix route (named by label) cannot run, or None."""
    if phi is None or phi.basis != MONOMIAL:
        return f"{label} route needs the monomial basis"
    m, n = f.degree, g.degree
    if (phi.m, phi.n) != (m, n):
        return "phi shape does not match the degrees of f and g"
    if math.gcd(m, n) != 1:
        return f"{label} route needs coprime degrees"
    return None


def _require_phi_route(f, g, phi, label):
    error = _phi_route_error(f, g, phi, label)
    if error is not None:
        raise ValueError(error)


def cc_by_coefficient_polys(f, g, phi):
    """Cancellation via the row/column polynomials of a monomial-basis phi."""
    _require_phi_route(f, g, phi, "coefficient-polynomial")
    m, n = f.degree, g.degree
    surviving_a = _surviving_primes(f, [phi.col_poly(j) for j in range(n)])
    if surviving_a:
        return CcVerdict(
            False, ROUTE_COEFFS, CcWitness(m // surviving_a[0], "alpha", 0)
        )
    surviving_b = _surviving_primes(g, [phi.row_poly(i) for i in range(m)])
    if surviving_b:
        return CcVerdict(
            False, ROUTE_COEFFS, CcWitness(n // surviving_b[0], "beta", 0)
        )
    return CcVerdict(True, ROUTE_COEFFS)


def sample_cc_phi_matrices(f, g, count, *, rng=None, seed=DEFAULT_SEED):
    """Rejection-sample phi matrices whose products cancel conjugates.

    Draws uniform m x n coefficient matrices and keeps those passing the
    extension-degree check on both sides, in the fields kept on f and g.
    """
    _check_root_polys(f, g)
    m, n = f.degree, g.degree
    if math.gcd(m, n) != 1:
        raise ValueError("sampling needs coprime degrees")
    if rng is None:
        rng = random.Random(seed)
    base = f.ctx
    out = []
    while len(out) < count:
        phi = PhiPoly.random(base, m, n, rng)
        if verify_extension_degree(f, [phi.col_poly(j) for j in range(n)]) and \
                verify_extension_degree(g, [phi.row_poly(i) for i in range(m)]):
            out.append(phi)
    return out


# -- matrix route -------------------------------------------------------------


def matrix_cc_test(f, g, phi):
    """Cancellation via Frobenius matrices in the power bases of f and g.

    Fails at the smallest prime p | m with A^(m/p) C == C, A the Frobenius
    matrix of f (witness m/p on side alpha), else at the smallest p | n
    with B^(n/p) C^T == C^T, B that of g (n/p on side beta); holds
    otherwise.  Each matrix is a list of columns packed into the field kept
    on f or g: C's columns on the alpha side, its rows on the beta side.
    """
    _require_phi_route(f, g, phi, "matrix")
    C = phi.rows
    for h, cols, side in ((f, zip(*C), "alpha"), (g, C, "beta")):
        V, d = h.ctx.extension(h), h.degree
        A = [V._pack(a) for a in zip(*petr_berlekamp_matrix(h))]
        C_cols = [V._pack(c) for c in cols]
        for p in distinct_prime_factors(d):
            if linalg.mat_mul(V, linalg.mat_pow(V, A, d // p), C_cols) == C_cols:
                return CcVerdict(False, ROUTE_MATRIX, CcWitness(d // p, side, 0))
    return CcVerdict(True, ROUTE_MATRIX)


# -- route table --------------------------------------------------------------


# Every cancellation route, in report order, as a callable on a BoundDiamond.
ROUTES = {
    ROUTE_DIRECT: cc_direct,
    ROUTE_ORACLE: cc_oracle,
    ROUTE_COEFFS: lambda bd: cc_by_coefficient_polys(bd.pair.f, bd.pair.g, bd.spec.phi),
    ROUTE_MATRIX: lambda bd: matrix_cc_test(bd.pair.f, bd.pair.g, bd.spec.phi),
}


def run_routes(bd, route="all"):
    """Verdicts of one route, or of every route that applies, by route name.

    "all" runs direct and oracle, plus coeffs and matrix when their
    precondition holds: a monomial-basis phi of shape deg f x deg g over
    coprime degrees.  A single named route runs unconditionally and raises
    ValueError when it does not apply.
    """
    if route != "all":
        if route not in ROUTES:
            raise ValueError(f"unknown cancellation route {route!r}")
        return {route: ROUTES[route](bd)}
    pair = bd.pair
    phi_routes = _phi_route_error(pair.f, pair.g, bd.spec.phi) is None
    return {
        name: run(bd)
        for name, run in ROUTES.items()
        if phi_routes or name in (ROUTE_DIRECT, ROUTE_ORACLE)
    }


# -- sufficient criteria ------------------------------------------------------


def rank_criterion(phi):
    """Sufficient: rank(C) above max(m/m1, n/n1) forces cancellation everywhere.

    m1, n1 are the smallest prime divisors.  A False answer is inconclusive.
    """
    m, n = phi.m, phi.n
    if m < 2 or n < 2 or math.gcd(m, n) != 1:
        raise ValueError("rank criterion needs coprime m, n > 1")
    m1 = distinct_prime_factors(m)[0]
    n1 = distinct_prime_factors(n)[0]
    V = FieldContext(phi.ctx.p, lower=phi.ctx, modulus=(0,) * n + (1,))  # rows in K[X]/(X^n)
    return linalg.mat_rank(V, map(V._pack, phi.rows)) > max(m // m1, n // n1)


def degree_criterion(phi):
    """Sufficient: one nonconstant chi_i of degree below n1 and one
    nonconstant psi_j of degree below m1 force cancellation everywhere.

    Constants are excluded because a constant value generates nothing; a
    False answer is inconclusive.
    """
    if phi.basis != MONOMIAL:
        raise ValueError("degree criterion reads the monomial basis")
    m, n = phi.m, phi.n
    if m < 2 or n < 2 or math.gcd(m, n) != 1:
        raise ValueError("degree criterion needs coprime m, n > 1")
    m1 = distinct_prime_factors(m)[0]
    n1 = distinct_prime_factors(n)[0]
    good_chi = any(
        (d := phi.row_poly(i).degree) is not None and 1 <= d < n1 for i in range(m)
    )
    good_psi = any(
        (d := phi.col_poly(j).degree) is not None and 1 <= d < m1 for j in range(n)
    )
    return good_chi and good_psi
