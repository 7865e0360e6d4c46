"""The frozen result types are NamedTuples: their reprs, validation and
documents are the ones they had as frozen dataclasses."""

import pytest

import compoz as cz
from compoz.cancellation import run_routes

TWISTED_FIELDS = ("q", "m", "n", "k", "l", "sign")


def test_result_type_reprs(worked):
    phi = worked.phi_no_cc
    assert repr(phi) == (
        "PhiPoly(ctx=<FieldContext GF(3)>, rows=((0, 2, 1), (0, 0, 0), (1, 0, 0), "
        "(0, 0, 0)), basis='monomial')"
    )
    spec = cz.DiamondSpec.from_phi(phi)
    verdict = run_routes(spec.bind(worked.pair), "direct")["direct"]
    assert repr(verdict) == (
        "CcVerdict(holds=False, route='direct', witness=CcWitness(k=2, side='alpha', orbit=0))"
    )
    assert repr(cz.CcVerdict(True, "matrix")) == (
        "CcVerdict(holds=True, route='matrix', witness=None)"
    )
    entry = cz.factor_report(worked.f, worked.g, spec, pair=worked.pair).entries[0]
    assert repr(entry) == (
        "FactorEntry(orbit=0, degree=6, multiplicity=2, "
        "min_poly=Polynomial(GF(3), '1,2,1,1,0,2,1'))"
    )
    assert repr(cz.TwistedParams(3, 2, 3, 1, 0)) == (
        "TwistedParams(q=3, m=2, n=3, k=1, l=0, sign='+')"
    )
    assert repr(cz.TwistedParams(q=5, m=3, n=4, k=2, l=3, sign="-")) == (
        "TwistedParams(q=5, m=3, n=4, k=2, l=3, sign='-')"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        ((6, 2, 3, 0, 0), "q = 6 is not a prime power"),
        ((3, 2, 3, 0, 0, "x"), "sign must be '+' or '-'"),
        ((3, 2, 4, 0, 0), "m and n must be coprime"),
        ((3, 2, 3, 2, 0), "twists must satisfy 0 <= k < m and 0 <= l < n"),
        ((3, 2, 3, 0, 3), "twists must satisfy 0 <= k < m and 0 <= l < n"),
        ((3, 2, 3, -1, 0), "twists must satisfy 0 <= k < m and 0 <= l < n"),
    ],
)
def test_twisted_params_rejects_positionally_and_by_keyword(args, message):
    with pytest.raises(ValueError) as positional:
        cz.TwistedParams(*args)
    with pytest.raises(ValueError) as keyword:
        cz.TwistedParams(**dict(zip(TWISTED_FIELDS, args)))
    assert str(positional.value) == str(keyword.value) == message


def test_result_types_are_immutable_tuples():
    params = cz.TwistedParams(3, 2, 3, 1, 0)
    assert params == (3, 2, 3, 1, 0, "+") and hash(params) == hash(tuple(params))
    q, m, n, k, l, sign = params
    assert (q, k, sign) == (3, 1, "+") and len(params) == 6
    with pytest.raises(AttributeError):
        params.q = 5
    assert params._replace(k=0) == (3, 2, 3, 0, 0, "+")
    with pytest.raises(ValueError, match="twists must satisfy"):
        params._replace(k=2)
    assert cz.CcWitness(2, "alpha", 0) == (2, "alpha", 0)


def test_cc_verdict_and_factor_report_documents(worked):
    expected = [
        (
            worked.phi_cc,
            {"holds": True, "route": "oracle"},
            {
                "schema": "compoz/1", "kind": "factor-report", "q": 3, "m": 4, "n": 3,
                "gcd": 1, "lcm": 12, "cc_holds": True, "all_factors_max_degree": True,
                "distinct_factor_count": 1, "product": "2,1,2,1,0,1,1,2,1,0,1,1,1",
                "factors": [{"orbit": 0, "degree": 12, "multiplicity": 1,
                             "min_poly": "2,1,2,1,0,1,1,2,1,0,1,1,1"}],
            },
        ),
        (
            worked.phi_no_cc,
            {"holds": False, "route": "oracle", "witness": {"k": 6, "side": "alpha", "orbit": 0}},
            {
                "schema": "compoz/1", "kind": "factor-report", "q": 3, "m": 4, "n": 3,
                "gcd": 1, "lcm": 12, "cc_holds": False, "all_factors_max_degree": False,
                "distinct_factor_count": 1, "product": "1,1,0,0,2,0,2,2,0,2,1,1,1",
                "factors": [{"orbit": 0, "degree": 6, "multiplicity": 2,
                             "min_poly": "1,2,1,1,0,2,1"}],
            },
        ),
    ]
    for phi, verdict_doc, report_doc in expected:
        spec = cz.DiamondSpec.from_phi(phi)
        assert run_routes(spec.bind(worked.pair), "oracle")["oracle"].to_doc() == verdict_doc
        report = cz.factor_report(worked.f, worked.g, spec, pair=worked.pair)
        assert report.to_doc() == report_doc
