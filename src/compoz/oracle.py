"""Independent exhaustive verifiers and sweep runners.

Everything here re-derives its answers from definitions: factoring by trial
division over all monic candidates, cancellation by checking every
conjugate pair against every admissible shift on a value grid whose
conjugates come from repeated q-th powers and whose phi values are summed
term by term at every cell, normality through the gcd characterization
instead of the rank test.  Agreement with the main modules is evidence
precisely because the code paths are separate; only the base field
arithmetic is shared.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .cancellation import ROUTE_DIRECT, ROUTES, run_routes
from .diamond import MONOMIAL, SCHEMA, DiamondSpec, PhiPoly, _factor_report, _pair_for
from .ff import (
    DEFAULT_SEED,
    Polynomial,
    is_irreducible,
    parse_field_spec,
    poly_to_text,
    random_irreducible,
)
from .orbits import coprime_decomposition, divisors, valuations_all_distinct

_FACTOR_CANDIDATE_CAP = 65536
_SWEEP_SIZE_CAP = 1 << 24  # largest q^lcm(m, n) of a sweep instance


def naive_factor(f):
    """Factor a monic polynomial by trial division over all monic candidates.

    Candidates are enumerated ascending by degree and canonical index, and
    divided out with full multiplicity, so every divisor found is
    irreducible.  Exponential by design; guarded by a candidate cap.
    """
    if f.degree is None or f.degree < 1 or not f.is_monic:
        raise ValueError("expected a monic polynomial of degree >= 1")
    K = f.ctx
    budget = sum(K.order**d for d in range(1, f.degree // 2 + 1))
    if budget > _FACTOR_CANDIDATE_CAP:
        raise ValueError("field and degree too large for exhaustive factoring")
    out = []
    remaining = f
    d = 1
    while remaining.degree > 0 and d <= remaining.degree // 2:
        for idx in range(K.order**d):
            digits = []
            v = idx
            for _ in range(d):
                digits.append(K._nth(v % K.order))
                v //= K.order
            h = Polynomial._wrap(K, (*digits, 1))
            quo, rem = divmod(remaining, h)
            if rem.is_zero:
                e = 1
                remaining = quo
                while True:
                    quo, rem = divmod(remaining, h)
                    if not rem.is_zero:
                        break
                    e += 1
                    remaining = quo
                out.append((h, e))
                if remaining.degree == 0:
                    break
        d += 1
    if remaining.degree and remaining.degree > 0:
        out.append((remaining, 1))
    out.sort(key=lambda t: (t[0].degree, tuple(K._to_int(c) for c in t[0].coeffs)))
    return out


def _grid_from_scratch(spec, pair):
    # value grid recomputed with plain loops: conjugates and orbit walks by
    # repeated q-th powers, phi by summing every term at every cell
    ctx = pair.ctx
    m, n = pair.m, pair.n
    q = ctx.subfield_order

    def q_powers(raw, count):
        out = [raw]
        for _ in range(1, count):
            out.append(ctx._pow(out[-1], q))
        return out

    vals = [[None] * n for _ in range(m)]
    if spec.kind == "phi":
        phi = spec.phi
        pm, pn = phi.m, phi.n
        alphas = q_powers(pair.alpha.raw, m)
        betas = q_powers(pair.beta.raw, n)
        if phi.basis == MONOMIAL:
            def terms(raw, count):
                out = [1]
                for _ in range(1, count):
                    out.append(ctx._mul(out[-1], raw))
                return out
        else:
            terms = q_powers
        xs = [terms(a, pm) for a in alphas]
        ys = [terms(b, pn) for b in betas]
        for i in range(m):
            for j in range(n):
                acc = 0
                for a in range(pm):
                    for b in range(pn):
                        c = phi.rows[a][b]
                        if c:
                            acc = ctx._add(
                                acc, ctx._scalar_mul(c, ctx._mul(xs[i][a], ys[j][b]))
                            )
                vals[i][j] = acc
    else:
        L = m // math.gcd(m, n) * n
        for j0, v in enumerate(spec.values):
            for t, raw in enumerate(q_powers(v.raw, L)):
                vals[t % m][(j0 + t) % n] = raw
    if any(v is None for row in vals for v in row):
        raise RuntimeError("value grid has holes; orbit bookkeeping is broken")
    return vals


def exhaustive_cc(f, g, spec, *, pair=None):
    """Ground-truth cancellation verdict straight from the definition.

    Recomputes every diamond value and checks both implications for every
    conjugate pair and every shift k that is a multiple of gcd(m, n).
    """
    pair = _pair_for(f, g, pair)
    m, n = pair.m, pair.n
    gmn = math.gcd(m, n)
    L = m // gmn * n
    vals = _grid_from_scratch(spec, pair)
    for i in range(m):
        for j in range(n):
            ref = vals[i][j]
            for k in range(0, L, gmn):
                if k % m and vals[(i + k) % m][j] == ref:
                    return False
                if k % n and vals[i][(j + k) % n] == ref:
                    return False
    return True


def normal_by_gcd(gamma):
    """Normality through coprimality with X^m - 1 instead of the rank test."""
    ctx = gamma.ctx
    if ctx.lower is None:
        raise ValueError("normality is relative to an extension field")
    m = ctx.degree
    conj = []
    raw = gamma.raw
    for _ in range(m):
        conj.append(raw)
        raw = ctx._pow(raw, ctx.subfield_order)
    coeffs = [conj[m - 1 - t] for t in range(m)]
    gpoly = Polynomial._from_raw(ctx, coeffs)
    xm1 = Polynomial(ctx, [-1] + [0] * (m - 1) + [1])
    return gpoly.gcd(xm1).degree == 0


def brute_admissible_degrees(m, n):
    """Divisors r of lcm(m, n) with lcm(r, m) = lcm(r, n) = lcm(m, n), by scan."""
    L = math.lcm(m, n)
    return tuple(
        r for r in divisors(L) if math.lcm(r, m) == L and math.lcm(r, n) == L
    )


# -- sweep runners -------------------------------------------------------------


class SweepConfig(NamedTuple):
    """Grid of base fields and degree pairs for the agreement sweeps."""

    fields: tuple
    pairs: tuple
    phi_count: int = 50
    table_count: int = 0
    seed: int = DEFAULT_SEED

    def instances(self):
        """(rng, pair, head) per instance: the instance's seeded rng, after
        drawing f and g from it, the root pair of f and g, and the report
        head q, m, n, f, g."""
        for field_spec in self.fields:
            base = parse_field_spec(str(field_spec))
            q = base.order
            for m, n in self.pairs:
                if q ** math.lcm(m, n) > _SWEEP_SIZE_CAP:
                    raise ValueError(
                        f"instance q={q}, (m, n)=({m}, {n}) exceeds the size cap"
                    )
                rng = random.Random(f"{self.seed}:{q}:{m}:{n}")
                f = random_irreducible(base, m, rng=rng)
                g = random_irreducible(base, n, rng=rng)
                pair = _pair_for(f, g, None, self.seed)
                head = {"q": q, "m": m, "n": n, "f": poly_to_text(f), "g": poly_to_text(g)}
                yield rng, pair, head


def run_route_agreement_sweep(config):
    """Compare every cancellation route on random phi products.

    For each instance one seeded (f, g) pair is fixed and phi_count random
    coefficient matrices are pushed through every cancellation route
    (run_routes), the exhaustive oracle, and the irreducibility
    equivalence.  Returns a JSON-ready report.  Tables have no phi for the
    coeffs and matrix routes, so table_count must be 0.
    """
    if config.phi_count < 1 or config.table_count:
        raise ValueError("route agreement sweep needs phi_count >= 1 and table_count = 0")
    instances = []
    total = disagreements = holds_total = 0
    for rng, pair, head in config.instances():
        base, f, g, m, n = pair.base, pair.f, pair.g, pair.m, pair.n
        if math.gcd(m, n) != 1:
            raise ValueError("route agreement sweep needs coprime degree pairs")
        bad = []
        holds_count = 0
        for trial in range(config.phi_count):
            phi = PhiPoly.random(base, m, n, rng)
            spec = DiamondSpec.from_phi(phi)
            bd = spec.bind(pair)
            verdicts = {name: v.holds for name, v in run_routes(bd).items()}
            verdicts["exhaustive"] = exhaustive_cc(f, g, spec, pair=pair)
            verdicts["irreducible"] = is_irreducible(bd.composed())
            if verdicts[ROUTE_DIRECT]:
                holds_count += 1
            if len(set(verdicts.values())) != 1:
                bad.append(
                    {"trial": trial, "phi": phi.to_text(), "verdicts": verdicts}
                )
        total += config.phi_count
        holds_total += holds_count
        disagreements += len(bad)
        instances.append(
            head | {"trials": config.phi_count, "holds": holds_count, "disagreements": bad}
        )
    return {
        "schema": SCHEMA,
        "kind": "route-agreement-sweep",
        "seed": config.seed,
        "instances": instances,
        "total_trials": total,
        "total_holds": holds_total,
        "total_disagreements": disagreements,
    }


def run_factor_structure_sweep(config):
    """Check factor reports of random diamonds against first principles.

    Per instance: the admissible degree set is compared with the brute
    scan, each report must reproduce the trial-division factorization with
    identical multiplicities, every factor degree must divide lcm(m, n),
    admissible degrees must match the decomposition law, and on pairs with
    all valuations distinct the cancellation flag must coincide with
    maximality of every factor degree and with the exhaustive verdict.
    """
    if min(config.phi_count, config.table_count) < 0 or not config.phi_count + config.table_count:
        raise ValueError("factor structure sweep needs counts >= 0 and at least one diamond")
    instances = []
    violations_total = 0
    for rng, pair, head in config.instances():
        base, f, g, m, n = pair.base, pair.f, pair.g, pair.m, pair.n
        L = math.lcm(m, n)
        gmn = math.gcd(m, n)
        nu_distinct = valuations_all_distinct(m, n)
        admissible = set(coprime_decomposition(m, n).admissible_degrees())
        violations = []
        if admissible != set(brute_admissible_degrees(m, n)):
            violations.append({"kind": "admissible-set-mismatch"})
        specs = []
        for _ in range(config.phi_count):
            specs.append(DiamondSpec.from_phi(PhiPoly.random(base, m, n, rng)))
        for _ in range(config.table_count):
            values = [pair.ctx.random_element(rng) for _ in range(gmn)]
            specs.append(DiamondSpec.from_table(m, n, values))
        for idx, spec in enumerate(specs):
            bd = spec.bind(pair)
            report = _factor_report(bd)
            expected = {}
            for entry in report.entries:
                expected[entry.min_poly] = expected.get(entry.min_poly, 0) + entry.multiplicity
            actual = dict(naive_factor(report.product))
            if expected != actual:
                violations.append({"kind": "factorization-mismatch", "spec": idx})
            if any(L % e.degree for e in report.entries):
                violations.append({"kind": "degree-divisibility", "spec": idx})
            for e in report.entries:
                if math.lcm(e.degree, m) == L and math.lcm(e.degree, n) == L:
                    if e.degree not in admissible:
                        violations.append({"kind": "admissible-membership", "spec": idx})
            exh = exhaustive_cc(f, g, spec, pair=pair)
            direct = ROUTES[ROUTE_DIRECT](bd).holds
            if not (report.cc_holds == direct == exh):
                violations.append({"kind": "cc-route-mismatch", "spec": idx})
            if nu_distinct and report.cc_holds != report.all_factors_max_degree:
                violations.append({"kind": "valuation-equivalence", "spec": idx})
        violations_total += len(violations)
        instances.append(head | {"diamonds": len(specs), "violations": violations})
    return {
        "schema": SCHEMA,
        "kind": "factor-structure-sweep",
        "seed": config.seed,
        "instances": instances,
        "total_violations": violations_total,
    }
