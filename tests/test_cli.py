import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from compoz import cli, ff
from compoz.cli import MAX_SAMPLE_COUNT, main
from conftest import PRODUCT_CC

DATA = Path(__file__).resolve().parent / "data"

PHI_CC = "3 4 3 monomial;0 2 1;1 0 0;1 0 0;0 0 0"
PHI_NO_CC = "3 4 3 monomial;0 2 1;0 0 0;1 0 0;0 0 0"
WORKED = ["--q", "3", "--f", "2,0,1,0,1", "--g", "1,2,0,1"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose_worked_example(capsys):
    code, out, _ = run(capsys, "compose", *WORKED, "--phi", PHI_CC)
    assert code == 0
    assert f"product: {PRODUCT_CC}" in out
    assert "irreducible: true" in out


def test_compose_structured_stable(capsys):
    code1, out1, _ = run(capsys, "compose", *WORKED, "--phi", PHI_CC, "--format", "structured")
    code2, out2, _ = run(capsys, "compose", *WORKED, "--phi", PHI_CC, "--format", "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "compoz/1"
    assert doc["product"] == PRODUCT_CC
    assert doc["irreducible"] is True
    assert list(doc) == sorted(doc)


def test_compose_reads_phi_from_file(capsys, tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text(PHI_CC.replace(";", "\n") + "\n")
    code, out, _ = run(capsys, "compose", *WORKED, "--phi", str(path))
    assert code == 0 and PRODUCT_CC in out


def test_compose_rejects_reducible(capsys):
    code, _, err = run(
        capsys, "compose", "--q", "3", "--f", "2,0,1", "--g", "1,2,0,1", "--phi", PHI_CC
    )
    assert code == 2
    assert "reducible" in err


def test_check_cc_holds(capsys):
    code, out, _ = run(capsys, "check-cc", *WORKED, "--phi", PHI_CC, "--route", "all")
    assert code == 0
    assert "holds" in out


def test_check_cc_fails_with_route_agreement(capsys):
    code, out, _ = run(
        capsys, "check-cc", *WORKED, "--phi", PHI_NO_CC, "--route", "all",
        "--format", "structured",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    assert set(doc["routes"]) == {"direct", "oracle", "coeffs", "matrix"}
    assert all(not v["holds"] for v in doc["routes"].values())
    assert doc["cross_checks"]["irreducible-product"] is False


def test_check_cc_single_route(capsys):
    code, out, _ = run(capsys, "check-cc", *WORKED, "--phi", PHI_CC, "--route", "matrix")
    assert code == 0 and "route matrix: holds" in out


def test_factor_report(capsys):
    code, out, _ = run(
        capsys, "factor", *WORKED, "--phi", PHI_NO_CC, "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "factor-report"
    assert doc["factors"] == [
        {"orbit": 0, "degree": 6, "multiplicity": 2, "min_poly": "1,2,1,1,0,2,1"}
    ]
    assert doc["cc_holds"] is False


def test_sample_phi_deterministic(capsys):
    args = ["sample-phi", *WORKED, "--count", "3", "--format", "structured"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert len(doc["phis"]) == 3


# lcm(m, n) = 99 over GF(3): f of degree 9, g of degree 11 and phi = y^3 + xy + x^2 + 2 x^2 y^10
LCM99 = [
    "--q", "3", "--f", "2,1,1,2,0,2,0,1,0,1", "--g", "2,0,2,2,0,1,2,1,2,2,1,1",
    "--phi", "3 9 11 monomial;0 0 0 1 0 0 0 0 0 0 0;0 1 0 0 0 0 0 0 0 0 0;"
    "1 0 0 0 0 0 0 0 0 0 2" + ";0 0 0 0 0 0 0 0 0 0 0" * 6,
]


@pytest.mark.parametrize(
    "argv, golden",
    [
        pytest.param(["check-cc", "--route", "all"], "cli_lcm99_check_cc.txt", id="check_cc"),
        pytest.param(["factor", "--format", "structured"], "cli_lcm99_factor.json", id="factor"),
    ],
)
def test_lcm99_output_is_golden(capsys, argv, golden):
    code, out, err = run(capsys, *argv, *LCM99)
    assert (code, err) == (0, "")
    assert out == (DATA / golden).read_text(encoding="utf-8")


def _goldens(name):
    cases = json.loads((DATA / name).read_text(encoding="utf-8"))
    return [pytest.param(c, id=f"{i}") for i, c in enumerate(cases)]


# check-cc on the worked instance with phi_cc, phi_no_cc and a linearized phi,
# every --route in text and structured form
@pytest.mark.parametrize("case", _goldens("cli_check_cc_routes.json"))
def test_check_cc_routes_are_golden(capsys, case):
    assert list(run(capsys, *case["argv"])) == [case["code"], case["stdout"], case["stderr"]]


# staircase --format structured at (q, m, n) = (3, 4, 5) and (2, 7, 9)
@pytest.mark.parametrize("case", _goldens("cli_staircase.json"))
def test_staircase_is_golden(capsys, case):
    assert list(run(capsys, *case["argv"])) == [case["code"], case["stdout"], case["stderr"]]


def test_check_cc_all_skips_phi_routes_on_shape_mismatch(capsys):
    # a 2 x 2 monomial phi on degrees 4 x 3: the diamond is well defined, but
    # the coeffs and matrix routes read a deg f x deg g coefficient matrix
    phi = "3 2 2 monomial;0 2;1 0"
    code, out, err = run(capsys, "check-cc", *WORKED, "--phi", phi, "--route", "all")
    assert (code, err) == (0, "")
    assert out == (
        "conjugate cancellation: holds\n"
        "  route direct: holds\n"
        "  route oracle: holds\n"
        "  cross-check irreducible-product: true\n"
    )
    assert run(capsys, "check-cc", *WORKED, "--phi", phi, "--route", "direct")[0] == 0
    assert run(capsys, "compose", *WORKED, "--phi", phi)[0] == 0
    for route in ("coeffs", "matrix"):
        code, out, err = run(capsys, "check-cc", *WORKED, "--phi", phi, "--route", route)
        assert (code, out) == (2, "")
        assert err == "error: phi shape does not match the degrees of f and g\n"


def test_normal_element_check(capsys):
    code, out, _ = run(
        capsys, "normal", "--q", "2", "--mod", "1,1,1", "--element", "0/1"
    )
    assert code == 0 and "normal: true" in out
    code, out, _ = run(
        capsys, "normal", "--q", "2", "--mod", "1,1,1", "--element", "1/0"
    )
    assert code == 1 and "normal: false" in out


def test_normal_random_round_trip(capsys):
    code, out, _ = run(
        capsys, "normal", "--q", "2", "--mod", "1,1,0,1", "--random", "--seed", "4"
    )
    assert code == 0
    element = out.strip()
    code2, out2, _ = run(
        capsys, "normal", "--q", "2", "--mod", "1,1,0,1", "--element", element
    )
    assert code2 == 0


def test_staircase_command(capsys):
    code, out, _ = run(
        capsys, "staircase", "--q", "2", "--phi", "2 2 3 linearized;0 1 0;1 0 0"
    )
    assert code == 1  # even q twisted binomial is never normal
    assert "staircase: 0,0,0,1,1" in out
    code, out, _ = run(
        capsys, "staircase", "--q", "3", "--phi", "3 2 3 linearized;1 0 0;0 0 0"
    )
    assert code == 0  # plain product of normal elements


def test_twisted_command(capsys):
    code, out, _ = run(
        capsys, "twisted", "--q", "3", "--m", "3", "--n", "5", "--k", "1",
        "--l", "2", "--sign", "plus", "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["normal"] is True
    code, _, _ = run(
        capsys, "twisted", "--q", "3", "--m", "3", "--n", "5", "--k", "1",
        "--l", "2", "--sign", "minus",
    )
    assert code == 1


def test_twisted_refuses_a_plain_q_past_the_cap(capsys):
    # refused from the length of the text, before int() or the prime-power test
    for q in (str(10**1000 + 1), "7" * 5000):
        code, out, err = run(
            capsys, "twisted", "--q", q, "--m", "3", "--n", "5", "--k", "1", "--l", "2"
        )
        assert (code, out, err) == (2, "", "error: q exceeds the field size cap 2^256\n")
    # 3^161 < 2^256 still gets an answer
    code, out, err = run(
        capsys, "twisted", "--q", str(3**161), "--m", "3", "--n", "5", "--k", "1", "--l", "2"
    )
    assert code == 0 and out == "normal on normal pairs: true\n" and err == ""


def test_field_spec_with_a_q_past_the_cap_names_only_the_bound(capsys):
    # past 4,300 digits int() refuses the text; below, the error would print q
    big = str(10**1000 + 1)
    for spec in (big, "7" * 5000, f"{big}^2:1,1,1"):
        code, out, err = run(
            capsys, "compose", "--q", spec, "--f", "1,1", "--g", "1,1,1", "--phi", "x"
        )
        assert (code, out, err) == (2, "", "error: q exceeds the field size cap 2^256\n")


def test_compose_decides_irreducibility_by_degree_when_gcd_exceeds_1(capsys, monkeypatch):
    # m = 2, n = 4: every root lies in GF(2^4), so the degree-8 product is
    # reducible, and no Rabin test runs on it
    rabin, degrees = ff._rabin, []

    def spy(f, *args):
        degrees.append(f.degree)
        return rabin(f, *args)

    monkeypatch.setattr(ff, "_rabin", spy)
    phi = "2 2 4 monomial;0 0 0 0;0 1 0 0"
    code, out, _ = run(
        capsys, "compose", "--q", "2", "--f", "1,1,1", "--g", "1,1,0,0,1", "--phi", phi,
        "--format", "structured",
    )
    doc = json.loads(out)
    assert code == 0 and doc["degree"] == 8 and doc["irreducible"] is False
    assert 8 not in degrees
    monkeypatch.setattr(ff, "_rabin", rabin)
    assert not ff.is_irreducible(ff.poly_from_text(ff.prime_field(2), doc["product"]))


def test_broken_invariant_exits_3(capsys, monkeypatch):
    # routes that disagree are a fault of the library, not of the input
    run_routes = cli.run_routes

    def disagreeing(bd, route):
        verdicts = run_routes(bd, route)
        first = next(iter(verdicts))
        verdicts[first] = verdicts[first]._replace(holds=not verdicts[first].holds)
        return verdicts

    monkeypatch.setattr(cli, "run_routes", disagreeing)
    code, out, err = run(capsys, "check-cc", *WORKED, "--phi", PHI_CC, "--route", "all")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "disagree" in err and len(err.splitlines()) == 1


def test_usage_errors(capsys):
    assert run(capsys, "compose", "--q", "3")[0] == 2        # missing flags
    assert run(capsys, "no-such-command")[0] == 2
    code, _, err = run(
        capsys, "compose", "--q", "4", "--f", "1,1", "--g", "1,1,1", "--phi", "x"
    )
    assert code == 2 and "not prime" in err
    code, _, err = run(
        capsys, "compose", *WORKED, "--phi", "2 4 3 monomial;0;0;0;0"
    )
    assert code == 2
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
    psi12 = "318665857834031151167461"
    code, out, err = run(
        capsys, "compose", "--q", psi12, "--f", "1,1", "--g", "2,1",
        "--phi", f"{psi12} 1 1 monomial;1",
    )
    assert code == 2 and out == "" and "not prime" in err
    for q in ("6", "1", "-3", psi12):
        code, out, err = run(
            capsys, "twisted", "--q", q, "--m", "3", "--n", "5", "--k", "1", "--l", "2"
        )
        assert code == 2 and out == "" and "not a prime power" in err
    # normal takes either --element or --random
    code, out, _ = run(
        capsys, "normal", "--q", "2", "--mod", "1,1,1", "--element", "0/1", "--random"
    )
    assert code == 2 and out == ""
    # q^lcm(m, n) past the cap: 3^202 > 2^256, refused before any field is built
    big_f = ",".join(["1"] * 101 + ["1"])
    for command in ("compose", "check-cc", "factor"):
        code, out, err = run(
            capsys, command, "--q", "3", "--f", big_f, "--g", "1,0,1", "--phi", PHI_CC
        )
        assert code == 2 and out == "" and "size cap" in err
    # staircase: 3^165 > 2^256 is refused, and so are non-coprime dimensions
    code, out, err = run(
        capsys, "staircase", "--q", "3",
        "--phi", "3 11 15 linearized;" + ";".join(["1" + " 0" * 14] * 11),
    )
    assert code == 2 and out == "" and "size cap" in err
    code, out, err = run(
        capsys, "staircase", "--q", "2", "--phi", "2 2 4 linearized;1 0 0 0;0 0 0 0"
    )
    assert code == 2 and out == "" and "coprime" in err
    # sample-phi counts below 1 or past the cap are refused
    for count in ("-3", "0", str(MAX_SAMPLE_COUNT + 1)):
        code, out, err = run(capsys, "sample-phi", *WORKED, "--count", count)
        assert code == 2 and out == "" and "--count" in err


def test_normal_and_sample_phi_refuse_fields_past_the_cap(capsys, monkeypatch):
    # both are refused before any extension field is built or any phi drawn
    def unreachable(*args, **kwargs):
        raise AssertionError("built a field past the size cap")

    monkeypatch.setattr(ff.FieldContext, "extension", unreachable)
    monkeypatch.setattr(cli, "sample_cc_phi_matrices", unreachable)
    x257 = "1," + "0," * 256 + "1"  # x^257 + 1 over GF(2): 2^257 elements
    for flags in (("--random",), ("--element", "0/1")):
        code, out, err = run(capsys, "normal", "--q", "2", "--mod", x257, *flags)
        assert code == 2 and out == "" and "size cap" in err
    # degrees 16 and 17 over GF(2): 2^lcm = 2^272
    f16, g17 = "1,1" + ",0" * 14 + ",1", "1,1" + ",0" * 15 + ",1"
    code, out, err = run(capsys, "sample-phi", "--q", "2", "--f", f16, "--g", g17, "--count", "1")
    assert code == 2 and out == "" and "size cap" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--f", "0", "--g", "1,2,0,1"], "error: f must be monic of degree >= 1\n"),
        (["--f", "1,0,1", "--g", "0"], "error: g must be monic of degree >= 1\n"),
        (["--f", "2,0,2", "--g", "1,2,0,1"], "error: f must be monic of degree >= 1\n"),
        (["--f", "2,0,1", "--g", "1,2,0,1"], "error: f is reducible\n"),
    ],
)
def test_sample_phi_refuses_what_root_pairs_refuse(capsys, flags, message):
    # the same check as RootPair.build, before any degree is read
    assert run(capsys, "sample-phi", "--q", "3", *flags, "--count", "1") == (2, "", message)


# x^300 over GF(2) is reducible, but 2^300 is past the cap, so it is refused
# before its modulus is tested
X300 = "0," * 300 + "1"
BIG_SPEC_ARGV = {
    "compose": ["--f", "1,1", "--g", "1,1,1", "--phi", "x"],
    "check-cc": ["--f", "1,1", "--g", "1,1,1", "--phi", "x"],
    "factor": ["--f", "1,1", "--g", "1,1,1", "--phi", "x"],
    "sample-phi": ["--f", "1,1", "--g", "1,1,1", "--count", "1"],
    "normal": ["--mod", "1,1", "--random"],
    "staircase": ["--phi", "x"],
    "twisted": ["--m", "3", "--n", "5", "--k", "1", "--l", "2"],
}


@pytest.mark.parametrize("command", sorted(BIG_SPEC_ARGV))
def test_field_spec_past_the_cap_is_refused_before_its_modulus_is_tested(
    capsys, monkeypatch, command
):
    def unreachable(*args, **kwargs):
        raise AssertionError("tested the modulus of a field past the size cap")

    monkeypatch.setattr(ff, "_rabin", unreachable)
    code, out, err = run(capsys, command, "--q", f"2^300:{X300}", *BIG_SPEC_ARGV[command])
    assert (code, out) == (2, "")
    assert err == "error: GF(2^300) exceeds the field size cap 2^256 on p^e, the field spec\n"


def test_field_spec_with_an_exponent_past_the_cap_names_only_the_bound(capsys):
    # past 4,300 digits int() refuses e; any e of four or more digits is past
    # the cap, since p >= 2, and is refused from its text
    for e in ("7" * 5000, "+0_1000"):
        code, out, err = run(
            capsys, "compose", "--q", f"2^{e}:1,1,1", "--f", "1,1", "--g", "1,1,1", "--phi", "x"
        )
        assert (code, out, err) == (2, "", "error: p^e exceeds the field size cap 2^256\n")


def test_element_text_via_extension_field(capsys):
    # base GF(4), modulus X^2 + X + y: a two-level tower through the CLI
    code, out, _ = run(
        capsys, "normal", "--q", "2^2:1,1,1", "--mod", "0/1,1/0,1/0", "--random"
    )
    assert code == 0
    element = out.strip()
    code2, _, _ = run(
        capsys, "normal", "--q", "2^2:1,1,1", "--mod", "0/1,1/0,1/0",
        "--element", element,
    )
    assert code2 == 0


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a one-shot query pays for every module the CLI imports
    code = "import sys, compoz.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


# argv token pools for the fuzz: every command, specs of GF(2), GF(3), GF(4)
# and GF(9) with polynomials of degree <= 4 (and 0 and 1) and phis over each,
# and bad specs, malformed polynomials and ragged or mis-headed phis;
# each good token comes up five times as often as each bad one
FUZZ_FIELDS = {
    "2": (
        ("1,1", "1,1,1", "1,1,0,1", "1,1,0,0,1", "1,0,1"),
        ("2 2 3 monomial;0 1 1;1 0 0", "2 2 3 linearized;0 1 0;1 0 0",
         "2 1 3 monomial;1 1 0", "2 2 2 monomial;1 1;0 1"),
    ),
    "3": (
        ("2,1", "1,0,1", "1,2,0,1", "2,0,1,0,1", "2,0,1"),
        (PHI_CC, "3 2 3 linearized;1 0 0;0 0 0", "3 1 3 monomial;1 1 0",
         "3 2 2 monomial;0 2;1 0"),
    ),
    "2^2:1,1,1": (
        ("0/1,1/0", "1/1,1/0", "0/1,1/0,1/0", "1/0,1/0,0/0,1/0"),
        ("4 1 2 monomial;1:0 0:1", "4 2 1 linearized;0:1;1:0",
         "4 2 3 monomial;0:1 1:0 0:0;1:0 0:0 1:1"),
    ),
    "3^2:2,2,1": (
        ("0/1,1/0", "1/1,1/0", "0/1,1/0,1/0", "1/0,0/0,1/0"),
        ("9 2 1 linearized;1:2;0:1", "9 1 2 monomial;0:1 1:0",
         "9 2 3 monomial;0:1 1:0 0:0;1:0 0:0 2:1"),
    ),
}
FUZZ_BAD = {
    "spec": ("4", "2^2:1,1", "3^2", "x", ""),
    "poly": ("1,,1", "1,a", "", "1:0,1"),
    "phi": ("2 2 2 monomial;1 0;1", "3 2 2 sideways;1 0;0 1", "5 1 1 monomial;1", "2 2 2", ""),
}
FUZZ_OTHER = {
    "--element": (("0/1", "1/0", "1/1"), ("1/1/1", "1", "y")),
    "--count": (("1", "2"), ("0", "-1", "x")),
    "--seed": (("0", "1", "7"), ("x",)),
    "--m": (("2", "3", "4", "5"), ("0", "x")),
    "--n": (("2", "3", "4", "5"), ("0", "x")),
    "--k": (("0", "1", "2"), ("-1",)),
    "--l": (("0", "1", "2"), ("-1",)),
    "--route": (("all", "direct", "oracle", "coeffs", "matrix"), ("none",)),
    "--sign": (("plus", "minus"), ("*",)),
    "--format": (("text", "structured"), ("xml",)),
}
FUZZ_COMMANDS = {
    "compose": ("--q", "--f", "--g", "--phi"),
    "check-cc": ("--q", "--f", "--g", "--phi", "--route"),
    "factor": ("--q", "--f", "--g", "--phi"),
    "sample-phi": ("--q", "--f", "--g", "--count"),
    "normal": ("--q", "--mod", "--element"),
    "staircase": ("--q", "--phi"),
    "twisted": ("--q", "--m", "--n", "--k", "--l", "--sign"),
}


@st.composite
def fuzz_argv(draw):
    def pick(good, bad):
        return draw(st.sampled_from(list(good) * 5 + list(bad)))

    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    spec = pick(FUZZ_FIELDS, FUZZ_BAD["spec"])
    polys, phis = FUZZ_FIELDS.get(spec, FUZZ_FIELDS["2"])
    # now and then a flag goes missing, or one of another command rides along
    flags = list(FUZZ_COMMANDS[command])
    if draw(st.integers(0, 7)) == 7:
        flags.remove(draw(st.sampled_from(flags)))
    if draw(st.integers(0, 3)) == 3:
        flags.append(draw(st.sampled_from(sorted(FUZZ_OTHER))))
    argv = [command]
    for flag in flags:
        if flag == "--q":
            value = spec
        elif flag in ("--f", "--g", "--mod"):
            value = pick(polys + ("0", "1"), FUZZ_BAD["poly"])
        elif flag == "--phi":
            value = pick(phis, FUZZ_BAD["phi"])
        elif command == "normal" and flag == "--element" and draw(st.booleans()):
            argv.append("--random")
            continue
        else:
            value = pick(*FUZZ_OTHER[flag])
        argv += [flag, value]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fuzz_argv())
def test_cli_fuzz_exits_with_a_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
