"""The CLI exit-code contract: 0 ok, 1 fail verdict, 2 error, 64 usage."""

from __future__ import annotations

import hashlib

import pytest

from germforge import cli

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
    (["period", "--pencil", "elliptic", "--leaf-re", "0", "--field", "[x,-y]"], ERROR),
    (["period", "--base", "0", "--field", "[x,-y]"], ERROR),
    (["period", "--field", "[x,-y]", "--scale", "2"], ERROR),
    (["straighten", "--g1", "1", "--g2", "z", "--n", "-1"], ERROR),
    # integrator failures: StepFailure (the base component vanishes on the
    # lift) and LeafEscape in the middle of the loop (|lift| = 4.05)
    (["period", "--field", "[x-1/2, y]", "--base", "0.5"], ERROR),
    (["period", "--field", "[x^2, y^2]", "--base", "1", "--leaf-re", "0.5",
      "--leaf-im", "0.5"], ERROR),
    # usage
    (["no-such-command"], USAGE),
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


# JSON reports pinned byte for byte: the sha256 of the report file, with the
# --json path written as "OUT".  Rational and Gaussian coefficients and powers
# in both modes, p/q literals, and first integrals whose F has a nonconstant
# denominator (the parser returns a RationalFn).
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
]


@pytest.mark.parametrize("argv, code, digest", JSON_ROWS,
                         ids=[" ".join(argv) for argv, _, _ in JSON_ROWS])
def test_json_report_is_pinned(argv, code, digest, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(argv + ["--json", str(path)]) == code
    text = path.read_text(encoding="utf-8").replace(f'"{path}"', '"OUT"')
    assert hashlib.sha256(text.encode()).hexdigest() == digest
