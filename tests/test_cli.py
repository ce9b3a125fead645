"""The CLI exit-code contract: 0 ok, 1 fail verdict, 2 error, 64 usage."""

from __future__ import annotations

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
