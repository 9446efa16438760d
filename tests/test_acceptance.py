"""Acceptance suite: one test per criterion.

Criteria, their report names and tolerances live in loccdisc.selftest; the
CLI ``selftest`` command runs the same checks.
"""

import time

import pytest

from loccdisc import selftest


# stated budgets: triples < 10 s, subsets < 30 s, Monte-Carlo < 60 s
BUDGETS_S = {
    selftest.criterion_three_qutrit_end_to_end: 10.0,
    selftest.criterion_unbiased_bell_subsets: 30.0,
    selftest.criterion_monte_carlo: 60.0,
}


@pytest.mark.parametrize(
    "name, criterion", selftest.CRITERIA.items(), ids=[fn.__name__ for fn in selftest.CRITERIA.values()]
)
def test_criterion(name, criterion):
    start = time.perf_counter()
    passed, detail = criterion()
    elapsed = time.perf_counter() - start
    assert passed, f"{name}: {detail}"
    limit = BUDGETS_S.get(criterion)
    assert limit is None or elapsed < limit, f"{name} took {elapsed:.1f}s"
