import re

import pytest

import mutants
from bopcalc.cli import _FAULT_CHECKS, CHECK_NAMES, build_parser


@pytest.mark.parametrize("row", mutants.UNNAMED, ids=lambda row: row.id)
def test_mutant(row, monkeypatch):
    # the table and what each field asserts are in mutants.py
    want, got = mutants.outcome(row, monkeypatch.setattr)
    assert got == want


def test_every_check_fails_and_every_fault_fails_where_its_help_says():
    ids = [row.id for row in mutants.ROWS]
    assert len(ids) == len(set(ids))
    assert {row.check for row in mutants.ROWS if row.want is not None} == \
        set(CHECK_NAMES)
    # the --inject-fault help states each fault's first failing degree:
    # one scale below it the faulted run passes, and from it on the run
    # fails there
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    (action,) = [a for a in verify._actions
                 if "--inject-fault" in a.option_strings]
    stated = {name: int(degree)
              for name, degree in re.findall(r"([a-z-]+): (\d+)", action.help)}
    assert sorted(stated) == sorted(_FAULT_CHECKS)
    faulted = [row for row in mutants.ROWS if row.inject_fault]
    assert {row.check for row in faulted} == set(_FAULT_CHECKS)
    for name, degree in stated.items():
        wants = {row.scale: row.want for row in faulted
                 if row.check == name}
        assert wants[degree - 1] is None and wants[degree][0] == degree
        assert all(want is None or want[0] == degree
                   for want in wants.values()), name
