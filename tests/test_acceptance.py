"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria and tolerances live in loccdisc.selftest; the CLI ``selftest``
command runs the same checks.
"""

import pytest

from loccdisc import selftest


# stated budgets: triples < 10 s, subsets < 30 s, Monte-Carlo < 60 s
BUDGETS_S = {
    selftest.criterion_three_qutrit_end_to_end: 10.0,
    selftest.criterion_unbiased_bell_subsets: 30.0,
    selftest.criterion_monte_carlo: 60.0,
}


@pytest.mark.parametrize("criterion", selftest.CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    tag = "PASS" if result.passed else "FAIL"
    print(f"[{tag}] {result.name}: {result.detail} ({result.elapsed_s:.2f}s)")
    assert result.passed, f"{result.name}: {result.detail}"
    limit = BUDGETS_S.get(criterion)
    assert limit is None or result.elapsed_s < limit, f"{result.name} took {result.elapsed_s:.1f}s"
