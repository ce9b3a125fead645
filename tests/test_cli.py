"""The CLI exit-code contract: 0 ok, 1 fail verdict, 2 error, 64 usage."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import pytest

from germforge import cli
from germforge.numflow import leaf_period, siegel_loop
from germforge.parser import parse_vector_field
from germforge.scalars import EXACT

OK, FAIL, ERROR, USAGE = 0, 1, 2, cli.USAGE_EXIT

ROWS = [
    # every subcommand on an input it accepts
    (["bracket", "[x, -y]", "[x*y, 0]"], OK),
    (["commute", "[x, -y]", "[x, y]"], OK),
    (["decompose", "[x^2, y]", "[x, -y]", "[y, x]"], OK),
    (["first-integral", "[x, -y]", "x*y"], OK),
    (["blowup", "[x, -y]"], OK),
    (["classify", "table:2[n=1]"], OK),
    (["semicheck", "[x^2, -x*y]"], OK),
    (["residue", "z^2"], OK),
    (["straighten", "--g1", "1", "--g2", "0", "--n", "1"], OK),
    (["period", "--field", "[x*x*y, -x*y*y]", "--degree", "4"], OK),
    (["holonomy", "--degree", "6"], OK),
    (["linearize", "[x, -y]", "--degree", "6"], OK),
    (["hirzebruch", "--samples", "3"], OK),
    (["make", "table:2[n=1]"], OK),
    (["verify-paper", "--only", "mt"], OK),
    # a float division whose pivot term leaves a rounding residue
    (["bracket", "[2/(0.5/i-7-y), y]", "[x, y]", "--mode", "float"], OK),
    # a power whose terms all lie beyond the degree, without its 10^9 products
    (["bracket", "[x^1000000000, y]", "[x, y]", "--degree", "4"], OK),
    # a constant factor and a float denominator 1 raised without e products
    (["bracket", "[(x/2)^1000000, y]", "[x, y]", "--degree", "4"], OK),
    (["bracket", "[x^1000000000, y]", "[x, y]", "--degree", "4", "--mode", "float"], OK),
    # float divisor roots, the one use of numpy
    (["blowup", "[x^2, -y*(x-2*y)]", "--singularities", "--mode", "float"], OK),
    # mathematical fail verdicts
    (["commute", "[x, -y]", "[x*y, x*y]"], FAIL),
    (["first-integral", "[x, -y]", "x"], FAIL),
    (["classify", "[x^3, 0]"], FAIL),
    (["semicheck", "[x^3, y]"], FAIL),
    (["straighten", "--g1", "1+z", "--g2", "0", "--n", "1"], FAIL),
    (["linearize", "[x + x^2*y, -y]", "--degree", "6"], FAIL),
    # bad parameters are errors, not tracebacks
    (["holonomy", "--radius", "0"], ERROR),
    (["holonomy", "--seed", "100"], ERROR),
    # a non-finite lambda ended in an AssertionError traceback
    (["holonomy", "--lam", "nan"], ERROR),
    (["holonomy", "--lam", "inf"], ERROR),
    # lambda^2 overflows the float contraction of the form with the field
    # (it ended in the same AssertionError traceback)
    (["holonomy", "--lam", "1e200"], ERROR),
    # (4c)^(1/3) overflowed: an OverflowError traceback
    (["period", "--pencil", "elliptic", "--field", "[x^2, -x*y]", "--leaf-im", "1e308"], ERROR),
    # --degree is at most 64, given before or after the subcommand: a larger
    # degree ran on (71 s at degree 1000)
    (["straighten", "--g1", "1", "--g2", "z", "--n", "3", "--degree", "64"], OK),
    (["straighten", "--g1", "1", "--g2", "z", "--n", "3", "--degree", "65"], ERROR),
    (["--degree", "65", "straighten", "--g1", "1", "--g2", "z", "--n", "3"], ERROR),
    (["period", "--pencil", "elliptic", "--leaf-re", "0", "--field", "[x,-y]"], ERROR),
    (["period", "--base", "0", "--field", "[x,-y]"], ERROR),
    (["period", "--field", "[x,-y]", "--scale", "2"], ERROR),
    (["straighten", "--g1", "1", "--g2", "z", "--n", "-1"], ERROR),
    # a loop of winding 0 encloses nothing (it printed period 0); a tolerance
    # <= 0 ended in a TypeError traceback (-1) or a step underflow (0)
    (["period", "--field", "[x*x*y, -x*y*y]", "--degree", "4", "--loops", "0"], ERROR),
    (["period", "--field", "[x*x*y, -x*y*y]", "--degree", "4", "--tol", "0"], ERROR),
    (["period", "--field", "[x*x*y, -x*y*y]", "--degree", "4", "--tol", "-1"], ERROR),
    (["holonomy", "--tol", "-1"], ERROR),
    # no sample checks nothing: it printed "-3 random exact checks all pass"
    (["hirzebruch", "--samples", "-3"], ERROR),
    (["hirzebruch", "--samples", "0"], ERROR),
    # --n is at most 256, where 50 samples take about 3 s: n = 1000 took
    # 51.8 s for 50 samples
    (["hirzebruch", "--n", "256", "--samples", "2"], OK),
    (["hirzebruch", "--n", "257"], ERROR),
    # the Martinet-Ramis integers and the straightening n are at most 64, as
    # catalog parameters are: a float power of a single term takes e products
    # (holonomy --n 10^7 took 5.5 s, straighten --n 10^6 1.7 s); n = 64 runs,
    # and straighten exits 1 there with an unknown verdict (degree < n + 2)
    (["holonomy", "--n", "64"], OK),
    (["holonomy", "--n", "65"], ERROR),
    (["holonomy", "--m", "65"], ERROR),
    (["holonomy", "--p", "65"], ERROR),
    (["--mode", "float", "straighten", "--g1", "1+z^2", "--g2", "z", "--n", "64"], FAIL),
    (["--mode", "float", "straighten", "--g1", "1+z^2", "--g2", "z", "--n", "65"], ERROR),
    # declared forms: a unit divides everything, so dividing by 1 never ended;
    # 0 raised ZeroDivisionError and a quotient AttributeError
    (["classify", "table:2[n=1]", "--declare", "1"], ERROR),
    (["classify", "table:2[n=1]", "--declare", "0"], ERROR),
    (["classify", "table:2[n=1]", "--declare", "1/x"], ERROR),
    # catalog integer parameters are bounded like --degree: a = 1000 ran on
    # for more than 60 s
    (["classify", "table:5[a=1000]"], ERROR),
    # a catalog integer parameter that is not an integer ended in a TypeError
    # traceback (exit 1); an integral rational reads as its int
    (["make", "table:2[n=1.5]"], ERROR),
    (["make", "table:2[n=4/2]"], OK),
    (["classify", "table:5[a=1/2]"], ERROR),
    (["make", "mt:vii[m=1,n=1,a=1,b=0,k1=0.5]"], ERROR),
    # a superscript digit, and a coefficient too long for int-to-text conversion
    (["bracket", "[x^², y]", "[x, y]"], ERROR),
    (["bracket", "[(2+x)^20000, y]", "[x, y]", "--degree", "4"], ERROR),
    # a malformed field: the error gives its offset in the argument
    (["bracket", "[x, y+$]", "[x, y]"], ERROR),
    # integrator failures: StepFailure (the base component vanishes on the
    # lift) and LeafEscape in the middle of the loop (|lift| = 4.05)
    (["period", "--field", "[x-1/2, y]", "--base", "0.5"], ERROR),
    (["period", "--field", "[x^2, y^2]", "--base", "1", "--leaf-re", "0.5",
      "--leaf-im", "0.5"], ERROR),
    # a negative number in exponent form is a value, not an option (it was a
    # usage error); a negative option-like word still is one
    (["holonomy", "--lam", "-1e-3"], OK),
    (["period", "--field", "[x*x*y, -x*y*y]", "--leaf-re", "-2e-2", "--degree", "4"], OK),
    (["holonomy", "--lam", "-x"], USAGE),
    # so are -inf, -infinity and -nan in any case, as float() reads them (they
    # were usage errors): each reaches the error its positive form reaches
    (["holonomy", "--lam", "-inf"], ERROR),
    (["holonomy", "--lam", "-NaN"], ERROR),
    (["holonomy", "--lam", "-Infinity"], ERROR),
    (["period", "--field", "[x*x*y, -x*y*y]", "--degree", "4", "--leaf-re", "-inf"], ERROR),
    (["holonomy", "--lam", "-infx"], USAGE),
    # usage
    (["no-such-command"], USAGE),
    (["straighten", "--g1", "1", "--g2", "z", "--degree", "abc"], USAGE),
]


def test_every_subcommand_has_an_ok_row():
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert {argv[0] for argv, code in ROWS if code == OK} == set(sub.choices)


@pytest.mark.parametrize("argv, code", ROWS, ids=[" ".join(argv) for argv, _ in ROWS])
def test_exit_code(argv, code, capsys):
    assert cli.main(argv) == code
    out = capsys.readouterr()
    if code == ERROR:
        assert out.out.startswith("error:")
    if code == USAGE:
        assert "usage error" in out.err


def test_make_prints_the_id_it_was_given(capsys):
    # make_pair added sign, a_mu and b_mu to the id it printed
    assert cli.main(["make", "mt:vii[m=1,n=1,a=1,b=0,k1=1]"]) == OK
    assert capsys.readouterr().out == "built commuting pair mt:vii[a=1,b=0,k1=1,m=1,n=1]\n"
    assert cli.main(["make", "table:2[n=4/2]"]) == OK
    assert capsys.readouterr().out == "built table:2[n=2]\n"


def test_hirzebruch_n_is_refused_above_its_bound(capsys):
    start = time.perf_counter()
    assert cli.main(["hirzebruch", "--n", "1000"]) == ERROR
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out == "error: --n 1000 is above the bound 256\n"


def test_a_float_power_beyond_the_degree_takes_no_products(capsys):
    # the float denominator 2 was raised by 10^9 products (minutes)
    start = time.perf_counter()
    assert cli.main(["--mode", "float", "bracket", "[(x/2)^1000000000, y]", "[x, y]"]) == OK
    assert time.perf_counter() - start < 5


def test_error_positions_are_offsets_into_the_argument(capsys):
    # the position used to count from the start of the component (3)
    assert cli.main(["bracket", "[x, y+$]", "[x, y]"]) == ERROR
    assert capsys.readouterr().out == "error: unexpected character '$' (at position 6)\n"


def test_common_options_may_precede_the_subcommand(tmp_path):
    # the subcommand's own defaults used to overwrite them: the run was exact
    path = tmp_path / "report.json"
    argv = ["--mode", "float", "--json", str(path), "blowup", "[x^2, -y*(x-2*y)]",
            "--singularities"]
    assert cli.main(argv) == OK
    rep = json.loads(path.read_text(encoding="utf-8"))
    assert rep["config"]["mode"] == "float"
    assert rep["result"]["transformed"]["dx"]["mode"] == "float"
    # given on both sides, the one after the subcommand wins
    assert cli.main(argv + ["--mode", "exact"]) == OK
    assert json.loads(path.read_text(encoding="utf-8"))["config"]["mode"] == "exact"


# JSON reports pinned byte for byte: the sha256 of the report file, with the
# --json path written as "OUT".  Rational and Gaussian coefficients and powers
# in both modes, p/q literals, first integrals whose F has a nonconstant
# denominator (the parser returns a RationalFn), and a resonant normal form.
BRACKET_1 = ["bracket", "[3/4*x^2+(2-i)*y, y^3/5-x*y]", "[x*y/7, (1+2*i)/3*x^2-i*y]"]
BRACKET_2 = ["bracket", "[(1/2+i/3)*x^3-y^2/9, 0.25*x*y]", "[x^2/6, (5/2)*y^4]",
             "--degree", "6"]
JSON_ROWS = [
    (BRACKET_1, OK, "708e32570d2db993948624bd5c1caddb01d5e812ae054fb1bbaa5527b84f2671"),
    (BRACKET_1 + ["--mode", "float"], OK,
     "0ce171cc3df2a4956290b05911d98cef8ed10dba3cc3e783c4be145efb4d7452"),
    (BRACKET_2, OK, "9cd73f0e480f5a81fcb27a066d98bf029742aa6ae63dc4f3e4ddc3bbd59310da"),
    (BRACKET_2 + ["--mode", "float"], OK,
     "d2376e202d413cb698369a6596148cbb2f46d1beecb98834161ca72c0ce79b68"),
    (["decompose", "[x/2+3/4*x^2, -y/2]", "[x, -y]", "[x^2, 0]"], OK,
     "038ce7133ada6041f0b5c5da3031fab1cffb1e1e0fadf0cdfb177f9af557697a"),
    (["decompose", "[2/3*x^2*y+x/5, -y/5]", "[x, -y]", "[x^2*y, 0]", "--mode", "float"], OK,
     "1e6c59fd5469382d2ff147400faf80933a34c10538a79944fff14beffec0b3e7"),
    (["first-integral", "[x, y]", "(3/4)*x/y"], OK,
     "5617ed9d7463fe6d06fe84b52687c6467c9454fe703ecc855a43ece449fc6046"),
    (["first-integral", "[x, -y]", "(3/4)*x/y+y^2/5"], FAIL,
     "6506a268b40b40fadf84706d0dc75f3496444dc36a06019a54df30529154f8f0"),
    # a resonant field: its normal form past the obstruction x^2 y is fixed by
    # the normalization (phi - id free of resonant monomials)
    (["linearize", "[x + x^2*y + x^3 + y^2, -y + x*y^2 + x^2 + 3*x*y]", "--degree", "9"], FAIL,
     "bd34b02f26cef4c22bd1807bd2970bb5cc8d4d7911202bb75dcf1f6eee0e05a7"),
    # the singular points a blow-up puts on its exceptional divisor
    (["blowup", "[x + y^2, 2*y + x^3]", "--singularities"], OK,
     "6b18fe623d4a70fda3fe4b73c20fcedea391153aa27bb5116048d1d61e8ab9a0"),
    # the flow checks on F_n and the generators at the fixed point, pinned
    # before the flows ran on Gaussian-integer numerators
    (["hirzebruch", "--n", "3"], OK,
     "2b10a67922fa96eb7a561807ce575dd8728d68a16a64400e7088b311b0031acd"),
    (["hirzebruch", "--n", "16"], OK,
     "89dc4999630fc3921e2a520837756ddc3040c48a8e9d6bd03840d6e3e3064854"),
]


@pytest.mark.parametrize("argv, code, digest", JSON_ROWS,
                         ids=[" ".join(argv) for argv, _, _ in JSON_ROWS])
def test_json_report_is_pinned(argv, code, digest, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(argv + ["--json", str(path)]) == code
    text = path.read_text(encoding="utf-8").replace(f'"{path}"', '"OUT"')
    assert hashlib.sha256(text.encode()).hexdigest() == digest


PERIOD = ["period", "--field", "[x*x*y, -x*y*y]", "--degree", "4"]


def _period_report(loops, tmp_path):
    path = tmp_path / f"period{loops}.json"
    assert cli.main(PERIOD + ["--loops", str(loops), "--json", str(path)]) == OK
    return json.loads(path.read_text(encoding="utf-8"))


def test_period_loops_winds_the_loop(tmp_path):
    once, twice = (_period_report(loops, tmp_path) for loops in (1, 2))
    p1, p2 = (complex(float(r["result"]["period"]["re"]), float(r["result"]["period"]["im"]))
              for r in (once, twice))
    assert abs(p2 - 2 * p1) <= 1e-8 * abs(2 * p1)
    # the report holds the library's value, digit for digit
    field = parse_vector_field("[x*x*y, -x*y*y]", EXACT, 4).to_float()
    spec = siegel_loop(0.5, complex(0.02, 0.0), tol=twice["config"]["tol"])
    period, _ = leaf_period(field, dataclasses.replace(spec, winding=2))
    assert twice["result"]["period"] == {"re": repr(period.real), "im": repr(period.imag)}
