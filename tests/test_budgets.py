import pytest

import budgets


@pytest.mark.parametrize("budget", budgets.ROWS, ids=lambda b: b.id)
def test_budget(budget):
    # the table and what each column counts are in budgets.py
    measured = budgets.measure(budget, traced=budget.kb is not None)
    assert budgets.misses(budget, *measured) == [], budget.why
