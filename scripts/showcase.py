#!/usr/bin/env python3
"""End-to-end walkthrough of the GF(3) showcase instance.

Builds f = x^4 + x^2 + 2 and g = x^3 + 2x + 1 over GF(3), takes one phi
whose product cancels conjugates and one whose product does not, and prints
the Frobenius matrices, the composed products, every cancellation route,
and the factorization over the intermediate field GF(3^4).
"""

import sys

sys.path.insert(0, "src")

import compoz as cz  # noqa: E402


def show_matrix(label, rows):
    print(f"{label}:")
    for row in rows:
        print("   ", row)


def main():
    F3 = cz.prime_field(3)
    f = cz.poly_from_text(F3, "2,0,1,0,1")
    g = cz.poly_from_text(F3, "1,2,0,1")
    print(f"f = {f}   g = {g}   over GF(3)")

    show_matrix("Frobenius matrix of f (power basis)", cz.petr_berlekamp_matrix(f))
    show_matrix("Frobenius matrix of g (power basis)", cz.petr_berlekamp_matrix(g))

    pair = cz.RootPair.build(f, g)
    for label, rows in (
        ("phi = z1^2 + z2^2 + z1 + 2 z2", ((0, 2, 1), (1, 0, 0), (1, 0, 0), (0, 0, 0))),
        ("phi = z1^2 + z2^2 + 2 z2", ((0, 2, 1), (0, 0, 0), (1, 0, 0), (0, 0, 0))),
    ):
        phi = cz.PhiPoly.build(F3, rows)
        spec = cz.DiamondSpec.from_phi(phi)
        bd = spec.bind(pair)
        print(f"\n{label}")
        print("  product      :", bd.composed())
        print("  irreducible  :", cz.is_irreducible(bd.composed()))
        print("  cc direct    :", cz.cc_direct(bd).holds)
        print("  cc oracle    :", cz.cc_oracle(bd).holds)
        print("  cc coeffs    :", cz.cc_by_coefficient_polys(f, g, phi).holds)
        print("  cc matrix    :", cz.matrix_cc_test(f, g, phi).holds)
        report = cz.factor_report(f, g, spec, pair=pair)
        for e in report.entries:
            print(f"  factor       : degree {e.degree} multiplicity {e.multiplicity}  {e.min_poly}")
        if report.cc_holds:
            hs = cz.intermediate_factorization(f, g, spec, 4, 1, pair=pair)
            print("  over GF(3^4) :", " * ".join(f"({h})" for h in hs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
