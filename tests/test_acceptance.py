"""End-to-end acceptance suite.

Each test runs one named verification suite and prints a single pass/fail
line with the measured quantities, then asserts the verdict.  Run with
``pytest -s tests/test_acceptance.py`` to see the report lines.
"""

import time

import pytest

from nevtrans.acceptance import SUITES

#: wall-clock budgets (seconds), generous multiples of the intended budgets
TIME_BUDGETS = {
    "fixed-points": 5.0,
    "quadrature": 5.0,
    "contraction": 2.0,
    "truncation": 10.0,
    "kac-canonical": 5.0,
}


@pytest.mark.parametrize("name", list(SUITES))
def test_acceptance(name):
    t0 = time.time()
    ok, detail = SUITES[name]()
    elapsed = time.time() - t0
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"
    budget = TIME_BUDGETS.get(name)
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s (budget {budget}s)"
