import pytest

import budgets


@pytest.fixture
def counted(monkeypatch):
    """What is built from now on, one list per column of
    budgets.COUNTED: `passes`, the degree of each binomial pass that
    runs, `profiles`, the (spectrum, truncation) of each profile build,
    the nested builds of BPbar, F and X included, and so on."""
    return budgets.count_calls(monkeypatch.setattr)
