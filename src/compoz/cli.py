"""Command-line surface: construction, verification, and reporting.

Every run is deterministic given its flags; seeds default to a fixed
constant rather than entropy.  Exit codes: 0 when the computation succeeds
and the checked property holds, 1 when the property fails, 2 on malformed
input, 3 when an internal invariant breaks (routes that disagree, a failed
minimal-polynomial certificate, a reconstruction mismatch).  Structured
output is single-line JSON with sorted keys so reports can be diffed byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from .cancellation import ROUTES, run_routes, sample_cc_phi_matrices
from .diamond import (
    LINEARIZED,
    SCHEMA,
    DiamondSpec,
    PhiPoly,
    RootPair,
    factor_report,
)
from .ff import (
    DEFAULT_SEED,
    element_from_text,
    element_to_text,
    extension_field,
    is_irreducible,
    parse_field_spec,
    poly_from_text,
    poly_to_text,
)
from .linearized import (
    TwistedParams,
    embed_pair,
    evaluate_bilinear,
    is_normal,
    random_normal_element,
    staircase,
    staircase_normal_test,
    twisted_normal_predicate,
)


# Largest field order that compose, check-cc, factor and sample-phi
# (q^lcm(m, n)), staircase (q^(m n)) and normal (q^deg(mod)) accept.
# lcm(m, n) = 100 over GF(3) (about 2^159) stays well inside.  The cap
# bounds the field size, not the running time: inputs under it can still
# take minutes, over a non-prime base such as GF(4) above all.
MAX_FIELD_ORDER = 2**256

# Largest --count that sample-phi accepts.  Each sample is a rejection loop
# over random phi matrices, so the count bounds the running time.
MAX_SAMPLE_COUNT = 1000


def _read_arg(value):
    """Inline string or, when it names an existing file, the file's content."""
    if "\n" not in value and ";" not in value and os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _load_poly(ctx, value):
    return poly_from_text(ctx, _read_arg(value))


def _load_phi(ctx, value):
    return PhiPoly.from_text(ctx, _read_arg(value))


def _check_size_cap(q, degree, what):
    """Refuse GF(q^degree) past MAX_FIELD_ORDER; what names the bound."""
    cap_bits = MAX_FIELD_ORDER.bit_length() - 1
    # q >= 2, so degree > cap_bits exceeds the cap without forming q^degree
    if degree > cap_bits or q**degree > MAX_FIELD_ORDER:
        raise ValueError(
            f"GF({q}^{degree}) exceeds the field size cap 2^{cap_bits} on {what}"
        )


def _parse_field(spec):
    """parse_field_spec, refusing GF(p^e) past the size cap before its modulus
    is tested; a malformed spec is left for parse_field_spec to reject."""
    p_text, caret, e_text = spec.partition(":")[0].partition("^")
    try:
        p, e = int(p_text), int(e_text) if caret else 1
    except ValueError:
        p = e = 0
    if p >= 2 and e >= 1:
        _check_size_cap(p, e, "p^e, the field spec")
    return parse_field_spec(spec)


def _load_fg(args):
    """Base field, f and g of a run that binds roots of f and g.

    The size cap is checked as soon as f and g are known, before any
    extension field is built.
    """
    base = _parse_field(args.q)
    f = _load_poly(base, args.f)
    g = _load_poly(base, args.g)
    if f.degree and g.degree:
        _check_size_cap(
            base.order,
            math.lcm(f.degree, g.degree),
            "q^lcm(m, n), f of degree m and g of degree n",
        )
    return base, f, g


def _load_instance(args):
    """Base field, f, g and phi of a compose / check-cc / factor run."""
    base, f, g = _load_fg(args)
    return base, f, g, _load_phi(base, args.phi)


def _emit(args, doc, text_lines):
    if args.format == "structured":
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_compose(args):
    base, f, g, phi = _load_instance(args)
    pair = RootPair.build(f, g, seed=args.seed)
    product = DiamondSpec.from_phi(phi).bind(pair).composed()
    irreducible = is_irreducible(product)
    doc = {
        "schema": SCHEMA,
        "kind": "composed-product",
        "q": base.order,
        "f": poly_to_text(f),
        "g": poly_to_text(g),
        "degree": product.degree,
        "product": poly_to_text(product),
        "irreducible": irreducible,
    }
    _emit(args, doc, [
        f"product: {poly_to_text(product)}",
        f"degree: {product.degree}",
        f"irreducible: {str(irreducible).lower()}",
    ])
    return 0


def _cmd_check_cc(args):
    base, f, g, phi = _load_instance(args)
    bd = DiamondSpec.from_phi(phi).bind(RootPair.build(f, g, seed=args.seed))
    verdicts = run_routes(bd, args.route)
    answers = {r: v.holds for r, v in verdicts.items()}
    extras = {}
    if args.route == "all" and math.gcd(f.degree, g.degree) == 1:
        extras["irreducible-product"] = is_irreducible(bd.composed())
    if len(set(answers.values()) | set(extras.values())) > 1:
        raise RuntimeError(
            f"cancellation routes disagree: {answers | extras}"
        )
    holds = next(iter(answers.values()))
    doc = {
        "schema": SCHEMA,
        "kind": "cc-check",
        "q": base.order,
        "f": poly_to_text(f),
        "g": poly_to_text(g),
        "holds": holds,
        "routes": {r: v.to_doc() for r, v in verdicts.items()},
    }
    if extras:
        doc["cross_checks"] = extras
    lines = [f"conjugate cancellation: {'holds' if holds else 'fails'}"]
    for r, v in verdicts.items():
        detail = ""
        if v.witness is not None:
            w = v.witness
            detail = f" (witness k={w.k}, side={w.side}, orbit={w.orbit})"
        lines.append(f"  route {r}: {'holds' if v.holds else 'fails'}{detail}")
    for name, value in extras.items():
        lines.append(f"  cross-check {name}: {str(value).lower()}")
    _emit(args, doc, lines)
    return 0 if holds else 1


def _cmd_factor(args):
    base, f, g, phi = _load_instance(args)
    report = factor_report(f, g, DiamondSpec.from_phi(phi), seed=args.seed)
    doc = report.to_doc()
    lines = [
        f"product: {poly_to_text(report.product)}",
        f"cc_holds: {str(report.cc_holds).lower()}",
        f"distinct factors: {report.distinct_factor_count}",
    ]
    for e in report.entries:
        lines.append(
            f"  orbit {e.orbit}: degree {e.degree}, multiplicity {e.multiplicity}, "
            f"min_poly {poly_to_text(e.min_poly)}"
        )
    _emit(args, doc, lines)
    return 0


def _cmd_sample_phi(args):
    if not 1 <= args.count <= MAX_SAMPLE_COUNT:
        raise ValueError(f"--count must be between 1 and {MAX_SAMPLE_COUNT}, got {args.count}")
    base, f, g = _load_fg(args)
    phis = sample_cc_phi_matrices(f, g, args.count, seed=args.seed)
    doc = {
        "schema": SCHEMA,
        "kind": "phi-sample",
        "q": base.order,
        "f": poly_to_text(f),
        "g": poly_to_text(g),
        "count": args.count,
        "seed": args.seed,
        "phis": [phi.to_text() for phi in phis],
    }
    _emit(args, doc, [phi.to_text().rstrip("\n") + "\n" for phi in phis])
    return 0


def _cmd_normal(args):
    base = _parse_field(args.q)
    mod = _load_poly(base, args.mod)
    if mod.degree:
        _check_size_cap(base.order, mod.degree, "q^deg(mod)")
    ctx = base.extension(mod)
    if args.random:
        elem = random_normal_element(ctx, seed=args.seed)
        verdict = True
        lines = [element_to_text(elem)]
    elif args.element is None:
        raise ValueError("provide --element or --random")
    else:
        elem = element_from_text(ctx, args.element)
        verdict = is_normal(elem)
        lines = [f"normal: {str(verdict).lower()}"]
    doc = {
        "schema": SCHEMA,
        "kind": "normal",
        "field": f"{base.order}^{ctx.degree}",
        "element": element_to_text(elem),
        "normal": verdict,
    }
    _emit(args, doc, lines)
    return 0 if verdict else 1


def _cmd_staircase(args):
    base = _parse_field(args.q)
    phi = _load_phi(base, args.phi)
    if phi.basis != LINEARIZED:
        raise ValueError("staircase needs a linearized-basis phi")
    st = staircase(phi)  # rejects non-coprime dimensions before any field is built
    m, n = phi.m, phi.n
    _check_size_cap(base.order, m * n, "q^(m n), phi of shape m x n")
    ctx_m = extension_field(base, m, seed=args.seed)
    ctx_n = extension_field(base, n, seed=args.seed)
    rng = random.Random(args.seed)
    alpha = random_normal_element(ctx_m, rng=rng)
    beta = random_normal_element(ctx_n, rng=rng)
    a, b = embed_pair(alpha, beta, seed=args.seed)
    verdict = staircase_normal_test(phi, a, b)
    direct = is_normal(evaluate_bilinear(phi, a, b))
    if verdict != direct:
        raise RuntimeError("staircase test disagrees with the direct normality check")
    doc = {
        "schema": SCHEMA,
        "kind": "staircase",
        "q": base.order,
        "m": m,
        "n": n,
        "staircase": poly_to_text(st),
        "normal": verdict,
    }
    _emit(args, doc, [
        f"staircase: {poly_to_text(st)}",
        f"value normal: {str(verdict).lower()}",
    ])
    return 0 if verdict else 1


def _cmd_twisted(args):
    # a plain-integer q past the cap is refused from its length, before int()
    digits = args.q.strip().removeprefix("+").replace("_", "").lstrip("0")
    if digits.isdecimal() and (
        len(digits) > len(str(MAX_FIELD_ORDER)) or int(digits) > MAX_FIELD_ORDER
    ):
        raise ValueError(f"q exceeds the field size cap 2^{MAX_FIELD_ORDER.bit_length() - 1}")
    try:
        q = int(args.q)
    except ValueError:
        q = _parse_field(args.q).order
    sign = {"plus": "+", "minus": "-", "+": "+", "-": "-"}[args.sign]
    params = TwistedParams(q=q, m=args.m, n=args.n, k=args.k, l=args.l, sign=sign)
    verdict = twisted_normal_predicate(params)
    doc = {
        "schema": SCHEMA,
        "kind": "twisted",
        "q": q,
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "l": args.l,
        "sign": sign,
        "normal": verdict,
    }
    _emit(args, doc, [f"normal on normal pairs: {str(verdict).lower()}"])
    return 0 if verdict else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="compoz",
        description="composed products over finite fields, cancellation checks, "
        "and normal-element tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, phi=False, fg=False, mod=False):
        p.add_argument("--q", required=True, help="field spec: 'p' or 'p^e:modulus'")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument(
            "--format", choices=("text", "structured"), default="text"
        )
        if fg:
            p.add_argument("--f", required=True, help="polynomial, inline or a file path")
            p.add_argument("--g", required=True, help="polynomial, inline or a file path")
        if phi:
            p.add_argument(
                "--phi",
                required=True,
                help="phi matrix ('q m n basis' header plus rows), inline with ';' or a file path",
            )
        if mod:
            p.add_argument("--mod", required=True, help="extension modulus polynomial")

    p = sub.add_parser("compose", help="compute the composed product f diamond g")
    common(p, phi=True, fg=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("check-cc", help="decide conjugate cancellation")
    common(p, phi=True, fg=True)
    p.add_argument(
        "--route",
        choices=(*ROUTES, "all"),
        default="all",
    )
    p.set_defaults(func=_cmd_check_cc)

    p = sub.add_parser("factor", help="factor structure of the composed product")
    common(p, phi=True, fg=True)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("sample-phi", help="sample phi matrices with cancellation")
    common(p, fg=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_sample_phi)

    p = sub.add_parser("normal", help="test or sample normal elements")
    common(p, mod=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--element", help="element coordinates, '/'-separated")
    which.add_argument("--random", action="store_true")
    p.set_defaults(func=_cmd_normal)

    p = sub.add_parser("staircase", help="staircase normality of a bilinear phi")
    common(p, phi=True)
    p.set_defaults(func=_cmd_staircase)

    p = sub.add_parser("twisted", help="normality of the twisted binomial product")
    p.add_argument("--q", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus", "+", "-"), default="plus")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=_cmd_twisted)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except RuntimeError as exc:  # a broken invariant, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
