"""Diamond products, composed products of polynomials, and factor reports.

A diamond product on the conjugates of two fixed roots is described either
by a bivariate coefficient matrix (PhiPoly, in the monomial basis X^i Y^j
or the linearized basis X^(q^i) Y^(q^j)) or by an explicit table of values
on orbit representatives.  Binding a spec to a concrete pair of roots in a
common extension produces the full m x n value grid, from which composed
products and their factorizations are read off.  Both kinds bind the same
way: the values at the gcd(m, n) representatives (0, j) are evaluated
(phi) or given (table), and every other cell follows by walking its orbit
with the q-power map, since (a diamond b)^q = a^q diamond b^q.

The composed product is never expanded from its m*n linear factors: each
orbit contributes a power of its representative's minimal polynomial, found
by Berlekamp-Massey over the base.  factor_report checks each of those by
a certificate (degree = orbit length, h(gamma) = 0) and checks that the
product of its factors agrees with composed().
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .ff import (
    DEFAULT_SEED,
    ContextMismatchError,
    Embedding,
    FieldElement,
    Polynomial,
    _check_minpoly,
    _orbit_factors,
    _pminpoly,
    _raw_from_text,
    _raw_to_text,
    extension_field,
    find_root,
    is_irreducible,
    minimal_polynomial,
    poly_to_text,
)
from .linalg import combine

MONOMIAL = "monomial"
LINEARIZED = "linearized"

SCHEMA = "compoz/1"


class PhiPoly(NamedTuple):
    """Bivariate polynomial over the base field as an m x n coefficient grid.

    rows[i][j] is the coefficient of X^i Y^j (monomial basis) or of
    X^(q^i) Y^(q^j) (linearized basis).  Rows read as polynomials in Y are
    the chi_i, columns read as polynomials in X are the psi_j.
    """

    ctx: object
    rows: tuple
    basis: str = MONOMIAL

    @classmethod
    def build(cls, ctx, rows, basis=MONOMIAL):
        """A phi from entries that are elements of ctx, ints or coordinate lists.

        An int entry is an integer mod p, also over an extension base, not a
        raw value: rebuilding from raw rows such as phi.rows maps each raw to
        its residue mod p.  To keep raws, use _from_raw or _replace(rows=...).
        """
        return cls._from_raw(
            ctx, tuple(tuple(ctx._coerce(c) for c in row) for row in rows), basis
        )

    @classmethod
    def _from_raw(cls, ctx, rows, basis):
        if basis not in (MONOMIAL, LINEARIZED):
            raise ValueError(f"unknown basis {basis!r}")
        if not rows or not rows[0]:
            raise ValueError("coefficient matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged coefficient matrix")
        return cls(ctx=ctx, rows=rows, basis=basis)

    @classmethod
    def random(cls, ctx, m, n, rng, basis=MONOMIAL):
        rows = tuple(
            tuple(ctx._random_raw(rng) for _ in range(n)) for _ in range(m)
        )
        return cls._from_raw(ctx, rows, basis)

    @property
    def m(self):
        return len(self.rows)

    @property
    def n(self):
        return len(self.rows[0])

    def row_poly(self, i):
        """chi_i as a univariate polynomial (monomial basis only)."""
        if self.basis != MONOMIAL:
            raise ValueError("row_poly reads the monomial basis")
        return Polynomial._from_raw(self.ctx, self.rows[i])

    def col_poly(self, j):
        """psi_j as a univariate polynomial (monomial basis only)."""
        if self.basis != MONOMIAL:
            raise ValueError("col_poly reads the monomial basis")
        return Polynomial._from_raw(self.ctx, tuple(r[j] for r in self.rows))

    def evaluate(self, x, y):
        """Evaluate at two elements of a common extension of the base field."""
        ext = x.ctx
        if y.ctx != ext:
            raise ContextMismatchError("arguments must share a context")
        if ext.lower is None or ext.lower != self.ctx:
            raise ContextMismatchError("arguments must lie in an extension of the base")
        # sum_i x_i (sum_j c_ij y_j), with x_i = x^i, y_j = y^j (monomial)
        # or x_i = x^(q^i), y_j = y^(q^j) (linearized)
        mul, add = ext._mul, ext._add
        mono = self.basis == MONOMIAL

        def terms(a, count):
            out = [1 if mono else a]
            for _ in range(1, count):
                out.append(mul(out[-1], a) if mono else ext._frob(out[-1], 1))
            return out

        ys = terms(y.raw, self.n)
        acc = 0
        for xi, row in zip(terms(x.raw, self.m), self.rows):
            inner = combine(ext, ys, row)
            if inner:
                acc = add(acc, inner if xi == 1 else mul(xi, inner))
        return FieldElement._wrap(ext, acc)

    def to_text(self):
        """Header "q m n basis", then one line of n space-separated entries per row.

        An entry over an extension base lists its coordinates separated by
        ':' ("1:0" over GF(4)), the separator one level below the '/' of a
        polynomial coefficient ("1/0").
        """
        head = f"{self.ctx.order} {self.m} {self.n} {self.basis}"
        lines = [head]
        for row in self.rows:
            lines.append(" ".join(_raw_to_text(self.ctx, c, 1) for c in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, ctx, text):
        """Inverse of to_text; ';' may stand for a newline.

        Entries over an extension base take ':' between coordinates ("1:0"
        over GF(4)), where a polynomial coefficient takes '/' ("1/0").
        """
        lines = [ln.strip() for ln in text.replace(";", "\n").splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty phi description")
        head = lines[0].split()
        if len(head) != 4:
            raise ValueError("phi header must be 'q m n basis'")
        q, m, n, basis = int(head[0]), int(head[1]), int(head[2]), head[3]
        if q != ctx.order:
            raise ValueError(f"phi header field order {q} does not match {ctx.order}")
        if len(lines) - 1 != m:
            raise ValueError(f"expected {m} coefficient rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != n:
                raise ValueError(f"expected {n} entries per row, got {len(parts)}")
            rows.append(tuple(_raw_from_text(ctx, p, 1) for p in parts))
        return cls._from_raw(ctx, tuple(rows), basis)


class RootPair:
    """Roots of f and g fixed in a common extension."""

    __slots__ = ("base", "f", "g", "m", "n", "ctx", "alpha", "beta")

    def __init__(self, f, g, ctx, alpha, beta):
        self.base = f.ctx
        self.f = f
        self.g = g
        self.m = f.degree
        self.n = g.degree
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def build(cls, f, g, *, seed=DEFAULT_SEED):
        _check_root_polys(f, g)
        m, n = f.degree, g.degree
        ctx = extension_field(f.ctx, m // math.gcd(m, n) * n, seed=seed)
        alpha = find_root(f, ctx, seed=seed)
        beta = find_root(g, ctx, seed=seed)
        return cls(f, g, ctx, alpha, beta)

    @classmethod
    def from_elements(cls, alpha, beta):
        """Use two explicit elements of a common extension as the roots."""
        if alpha.ctx != beta.ctx:
            raise ContextMismatchError("roots must live in one context")
        return cls(minimal_polynomial(alpha), minimal_polynomial(beta),
                   alpha.ctx, alpha, beta)


def _check_root_polys(f, g):
    """Refuse f and g unless both are monic irreducible over one field."""
    if f.ctx != g.ctx:
        raise ContextMismatchError("f and g must share a coefficient field")
    for poly, name in ((f, "f"), (g, "g")):
        if poly.degree is None or poly.degree < 1 or not poly.is_monic:
            raise ValueError(f"{name} must be monic of degree >= 1")
        if not is_irreducible(poly):
            raise ValueError(f"{name} is reducible")


def _pair_for(f, g, pair, seed=DEFAULT_SEED):
    """pair, checked to hold roots of f and g, or else a new pair of f and g."""
    if pair is None:
        return RootPair.build(f, g, seed=seed)
    if pair.f != f or pair.g != g:
        raise ValueError("pair does not hold roots of f and g")
    return pair


class DiamondSpec(NamedTuple):
    """Either a PhiPoly or a table of values on orbit representatives (0, j)."""

    kind: str
    phi: PhiPoly = None
    m: int = None
    n: int = None
    values: tuple = None

    @classmethod
    def from_phi(cls, phi):
        return cls(kind="phi", phi=phi, m=phi.m, n=phi.n)

    @classmethod
    def from_table(cls, m, n, values):
        values = tuple(values)
        g = math.gcd(m, n)
        if len(values) != g:
            raise ValueError(f"need gcd(m, n) = {g} table values, got {len(values)}")
        ctx = values[0].ctx
        for v in values:
            if not isinstance(v, FieldElement) or v.ctx != ctx:
                raise ContextMismatchError("table values must share one context")
        L = m // g * n
        if ctx.lower is None or ctx.degree % L != 0:
            raise ValueError("table values must lie in a field containing GF(q^lcm)")
        # (a diamond b)^q = a^q diamond b^q, so every value is fixed by x -> x^(q^L)
        if any(ctx._frob(v.raw, L) != v.raw for v in values):
            raise ValueError("table values must lie in GF(q^lcm)")
        return cls(kind="table", m=m, n=n, values=values)

    def bind(self, pair):
        return BoundDiamond(self, pair)


class BoundDiamond:
    """A diamond spec evaluated on the full conjugate grid of a root pair."""

    __slots__ = ("spec", "pair", "vals", "_composed", "_mins")

    def __init__(self, spec, pair):
        m, n = pair.m, pair.n
        if spec.kind == "table" and (spec.m != m or spec.n != n):
            raise ValueError(
                f"table shape {spec.m} x {spec.n} does not match degrees {m} x {n}"
            )
        self.spec = spec
        self.pair = pair
        self._composed = self._mins = None
        ctx = pair.ctx
        g = math.gcd(m, n)
        if spec.kind == "phi":
            # phi may have any shape; only the grid follows the pair degrees
            reps = [
                spec.phi.evaluate(pair.alpha, pair.beta.frobenius(j)).raw
                for j in range(g)
            ]
        else:
            for v in spec.values:
                if v.ctx != ctx:
                    raise ContextMismatchError("table values are not in the root context")
            reps = [v.raw for v in spec.values]
        # the value at (t, j0 + t) is the q^t-th power of the value at (0, j0)
        grid = [[None] * n for _ in range(m)]
        for j0, raw in enumerate(reps):
            for t in range(m // g * n):
                grid[t % m][(j0 + t) % n] = raw
                raw = ctx._frob(raw, 1)
        self.vals = tuple(tuple(row) for row in grid)

    def value(self, i, j):
        """alpha^(q^i) diamond beta^(q^j)."""
        return FieldElement._wrap(
            self.pair.ctx, self.vals[i % self.pair.m][j % self.pair.n]
        )

    def composed(self):
        """The product of (X - value) over the grid, as a polynomial over the base.

        The grid is gcd(m, n) orbit segments gamma_j^(q^t), t < L = lcm(m, n),
        so the product is prod_j minpoly(gamma_j)^(L / deg), with each
        minimal polynomial found by Berlekamp-Massey over the base instead of
        expanding the m*n linear factors (Brawley-Carlitz, 1987); equal
        minimal polynomials are raised to one combined power.  The raw
        minimal polynomials, one per orbit representative, stay in _mins for
        the factor report to certify.
        """
        if self._composed is None:
            ctx, base = self.pair.ctx, self.pair.base
            m, n = self.pair.m, self.pair.n
            L = math.lcm(m, n)
            self._mins = tuple(_pminpoly(ctx, raw, L) for raw in self.vals[0][: math.gcd(m, n)])
            product = Polynomial.one(base)
            for mu, count in Counter(self._mins).items():
                power = L * count // (len(mu) - 1)
                product = product * Polynomial._wrap(base, mu) ** power
            self._composed = product
        return self._composed


def composed_product(f, g, spec, *, pair=None):
    """The polynomial whose roots are all diamond values of roots of f and g.

    Monic of degree deg(f) * deg(g) with coefficients in the base field; the
    result does not depend on which roots the binding step picked.  It is
    BoundDiamond.composed(): a product of powers of minimal polynomials, one
    per orbit of the value grid.
    """
    return spec.bind(_pair_for(f, g, pair)).composed()


class FactorEntry(NamedTuple):
    orbit: int
    degree: int
    multiplicity: int
    min_poly: Polynomial


class FactorReport(NamedTuple):
    """Structure of f diamond g over the base field, one entry per orbit."""

    q: int
    m: int
    n: int
    gcd: int
    lcm: int
    entries: tuple
    product: Polynomial
    cc_holds: bool
    all_factors_max_degree: bool
    distinct_factor_count: int

    def to_doc(self):
        factors = sorted(
            self.entries,
            key=lambda e: (e.degree, tuple(e.min_poly.ctx._to_int(c) for c in e.min_poly.coeffs)),
        )
        return {
            "schema": SCHEMA,
            "kind": "factor-report",
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "gcd": self.gcd,
            "lcm": self.lcm,
            "cc_holds": self.cc_holds,
            "all_factors_max_degree": self.all_factors_max_degree,
            "distinct_factor_count": self.distinct_factor_count,
            "product": poly_to_text(self.product),
            "factors": [
                {
                    "orbit": e.orbit,
                    "degree": e.degree,
                    "multiplicity": e.multiplicity,
                    "min_poly": poly_to_text(e.min_poly),
                }
                for e in factors
            ],
        }


def factor_report(f, g, spec, *, pair=None, seed=DEFAULT_SEED):
    """Per-orbit factors of f diamond g with degrees and multiplicities.

    Entry j describes the minimal polynomial of the value at (0, j); its
    multiplicity is lcm(m, n) / degree.  Each minimal polynomial is the one
    composed() found by Berlekamp-Massey, checked by a certificate (degree =
    orbit length, h(gamma) = 0) that shares no code with it, and the product
    of the entries is checked against composed(), which groups equal
    minimal polynomials; a failed certificate or a mismatch is a hard error
    (RuntimeError).
    """
    return _factor_report(spec.bind(_pair_for(f, g, pair, seed)))


def _factor_report(bd):
    """factor_report of a diamond already bound to its root pair."""
    pair = bd.pair
    m, n = pair.m, pair.n
    g_ = math.gcd(m, n)
    L = m // g_ * n
    composed = bd.composed()
    entries = []
    for j, (raw, h) in enumerate(zip(bd.vals[0][:g_], bd._mins)):
        _check_minpoly(pair.ctx, raw, h)
        r = len(h) - 1
        entries.append(
            FactorEntry(orbit=j, degree=r, multiplicity=L // r,
                        min_poly=Polynomial._wrap(pair.base, h))
        )
    product = Polynomial.one(pair.base)
    for e in entries:
        product = product * e.min_poly**e.multiplicity
    if product != composed:
        raise RuntimeError("factor report does not reconstruct the composed product")
    cc = all(
        math.lcm(e.degree, m) == L and math.lcm(e.degree, n) == L for e in entries
    )
    return FactorReport(
        q=pair.base.order,
        m=m,
        n=n,
        gcd=g_,
        lcm=L,
        entries=tuple(entries),
        product=product,
        cc_holds=cc,
        all_factors_max_degree=all(e.degree == L for e in entries),
        distinct_factor_count=len({e.min_poly for e in entries}),
    )


def intermediate_factorization(f, g, spec, k, l, *, pair=None, seed=DEFAULT_SEED):
    """Factor f diamond g over GF(q^(k*l)) for k | m and l | n, gcd(m, n) = 1.

    Returns the k*l factors of degree m*n/(k*l); their product is the
    composed product with coefficients embedded upward.  When the diamond
    satisfies conjugate cancellation the factors are irreducible and their
    coefficients generate GF(q^(k*l)).  The factors are Frobenius conjugates
    of one another, so one of them is multiplied out in the root field and
    projected, and the rest follow by applying the q-power map to its
    coefficients.
    """
    pair = _pair_for(f, g, pair, seed)
    m, n = pair.m, pair.n
    if math.gcd(m, n) != 1:
        raise ValueError("intermediate factorization needs coprime degrees")
    if k < 1 or m % k != 0:
        raise ValueError(f"{k} does not divide {m}")
    if l < 1 or n % l != 0:
        raise ValueError(f"{l} does not divide {n}")
    bd = spec.bind(pair)
    if k * l == 1:
        return [bd.composed()]
    ctx_kl = extension_field(pair.base, k * l, seed=seed)
    emb = Embedding.find(ctx_kl, pair.ctx, seed=seed)
    # cell (t mod m, t mod n) holds gamma^(q^t), so factor t < k*l collects
    # the cells with t = mu (mod k) and t = nu (mod l); pair.ctx may be larger
    # than GF(q^(m n)), so the orbit length is m*n, not its degree
    try:
        hs = _orbit_factors(emb, bd.vals[0][0], m * n // (k * l))
    except ValueError as exc:
        raise RuntimeError(
            "intermediate factor has a coefficient outside GF(q^(k*l))"
        ) from exc
    factors = [None] * (k * l)
    for t, h in enumerate(hs):
        factors[t % k * l + t % l] = h
    return factors

