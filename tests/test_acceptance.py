"""The paper gate: every verify-paper item passes in exact and in float mode."""

from __future__ import annotations

import json

import pytest

from germforge import cli
from germforge.acceptance import ITEMS, SuiteConfig, run_suite
from germforge.scalars import EXACT, FLOAT


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_every_acceptance_item_passes(mode):
    results = run_suite(cfg=SuiteConfig(mode=mode))
    failed = {r.name: r.details for r in results if not r.passed}
    assert failed == {}
    assert len(results) == len(ITEMS) == 11


# The details of the items that print no float, as `germforge verify-paper
# --mode exact` gives them.  The linearization and siegel-criterion items run
# the three graded solvers; a change that moves any of these lines must say
# so, since the paper gate's details stay identical unless strengthened.
EXACT_DETAILS = {
    "mt-commutation": [
        "24 pair instances, bracket == 0 to valid_through >= 12",
    ],
    "first-integrals": [
        "row 4 (a=1): derivative of the invariant vanishes",
        "row 5 (a=1): derivative of the invariant vanishes",
        "row 6 (a=1): derivative of the invariant vanishes",
        "row 7 (a=1): derivative of the invariant vanishes",
        "row 8 (a=1): derivative of the invariant vanishes",
        "row 9 (a=1): derivative of the invariant vanishes",
        "parabolic n=0: meromorphic integral annihilated",
        "parabolic n=1: meromorphic integral annihilated",
        "parabolic n=2: meromorphic integral annihilated",
        "nilpotent: y^2/(y-x^2) annihilated",
    ],
    "onedim-battery": [
        "z^2: pass",
        "z^3: fail (order>2)",
        "z^2 + (1)z^3: residue -1",
        "z^2 + (1*i)z^3: residue -1*i",
        "z^2 + (3/2)z^3: residue -3/2",
        "46 axis restrictions across the catalog grid all pass",
    ],
    "hirzebruch": [
        "n=0: germ signs (Z: -1, Y: +1)",
        "n=1: germ signs (Z: -1, Y: +1)",
        "n=2: germ signs (Z: -1, Y: +1)",
        "n=3: germ signs (Z: -1, Y: +1)",
        "100 random exact point/time checks: group law, commutation, chart coherence, fixed point",
        "commutant family members commute with the parabolic germ exactly",
    ],
    "siegel-criterion": [
        "n=1: 25 grid points agree with g1'(0) = g2(0) = 0",
        "n=2: 25 grid points agree with g1'(0) = g2(0) = 0",
    ],
    "linearization": [
        "(m,n,a_mu,b_mu)=(1,1,1,0): no obstruction, conjugation exact to degree 11",
        "(m,n,a_mu,b_mu)=(2,1,1,1): no obstruction, conjugation exact to degree 11",
        "(m,n,a_mu,b_mu)=(3,2,1,2): no obstruction, conjugation exact to degree 11",
    ],
    "classifier": [
        "all 15 table rows recovered from representative instances",
        "x^3 dx rejected: restriction to the x-axis fails the one-dimensional lemma (order>2)",
        "x^2 y dx + y^3 dy rejected: restriction to the y-axis fails the one-dimensional "
        "lemma (order>2)",
    ],
    "algebra": [
        "antisymmetry and Jacobi hold exactly on 50 random cubic germs",
        "decompose round-trip identity exact on 20 random frames",
    ],
}


def test_exact_details_are_pinned(tmp_path):
    out = tmp_path / "verify-paper.json"
    assert cli.main(["verify-paper", "--mode", "exact", "--json", str(out)]) == 0
    items = {item["name"]: item["details"]
             for item in json.loads(out.read_text())["result"]["items"]}
    assert {name: items[name] for name in EXACT_DETAILS} == EXACT_DETAILS
