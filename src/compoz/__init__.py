"""Composed products over finite fields and conjugate-cancellation tooling."""

from .ff import (
    DEFAULT_SEED,
    ContextMismatchError,
    Embedding,
    FieldContext,
    FieldElement,
    Polynomial,
    degree_over_base,
    element_from_text,
    element_to_text,
    evaluate_in_extension,
    extension_field,
    find_root,
    is_irreducible,
    minimal_polynomial,
    parse_field_spec,
    poly_from_text,
    poly_to_text,
    prime_field,
    random_irreducible,
)
from .orbits import (
    CoprimeDecomposition,
    coprime_decomposition,
    nu_p,
    valuations_all_distinct,
)
from .diamond import (
    LINEARIZED,
    MONOMIAL,
    BoundDiamond,
    DiamondSpec,
    FactorEntry,
    FactorReport,
    PhiPoly,
    RootPair,
    composed_product,
    factor_report,
    intermediate_factorization,
    rank_decomposition,
)
from .cancellation import (
    CcVerdict,
    CcWitness,
    cc_by_coefficient_polys,
    cc_direct,
    cc_oracle,
    degree_criterion,
    matrix_cc_test,
    petr_berlekamp_matrix,
    rank_criterion,
    sample_cc_phi_matrices,
    verify_extension_degree,
)
from .linearized import (
    QPolynomial,
    StaircasePoly,
    TwistedParams,
    bilinear_cc_test,
    embed_pair,
    evaluate_bilinear,
    is_normal,
    linearized_degree_criterion,
    random_normal_element,
    shifted_sum_is_normal,
    staircase,
    staircase_normal_test,
    twisted_normal_predicate,
    twisted_product_phi,
)
from .oracle import (
    SweepConfig,
    brute_admissible_degrees,
    exhaustive_cc,
    exhaustive_normal_scan,
    naive_factor,
    normal_by_gcd,
    run_factor_structure_sweep,
    run_route_agreement_sweep,
)

__version__ = "0.1.0"
