"""The paper gate: every verify-paper item passes in exact and in float mode."""

from __future__ import annotations

import pytest

from germforge.acceptance import ITEMS, SuiteConfig, run_suite
from germforge.scalars import EXACT, FLOAT


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_every_acceptance_item_passes(mode):
    results = run_suite(cfg=SuiteConfig(mode=mode))
    failed = {r.name: r.details for r in results if not r.passed}
    assert failed == {}
    assert len(results) == len(ITEMS) == 11
