import doctest
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

import bopcalc
from bopcalc.algebra import GeneratorTable
from bopcalc.catalog import BO, BP, HomotopyProfile, SpaceRef, SpectrumId
from bopcalc.cli import _CheckSpec
from bopcalc.conjecture import SquareMonomial
from bopcalc.errors import InvalidParameter
from bopcalc.reports import VerificationReport
from bopcalc.series import make_polynomial
from bopcalc.splitting import SplittingIndex, verify_rhs_one
from bopcalc.towers import TowerResult

LIBRARY_MODULES = ("algebra", "catalog", "conjecture", "errors", "reports",
                   "series", "splitting", "towers")

# The library modules whose docstrings hold no examples.
NO_EXAMPLES = ("errors", "reports", "splitting")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_doctests(name):
    results = doctest.testmod(importlib.import_module(f"bopcalc.{name}"))
    assert results.failed == 0
    assert results.attempted > 0 or name in NO_EXAMPLES


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_all_is_the_one_export_list(name):
    module = importlib.import_module(f"bopcalc.{name}")
    defined = {key for key, value in vars(module).items()
               if not key.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    assert defined <= set(module.__all__)
    for key in module.__all__:
        assert getattr(bopcalc, key) is getattr(module, key), key


def test_cli_import_loads_no_heavy_stdlib_modules():
    # each bopcalc run is a short process, so start-up time is part of
    # every check's cost; these modules alone cost more than most checks
    probe = ("import sys; before = set(sys.modules); import bopcalc.cli; "
             "print(sorted({'dataclasses', 'inspect', 'csv'} "
             "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_typing_without_site():
    # annotations stay unevaluated (from __future__ import annotations),
    # so no module needs typing at run time; -S keeps site's own imports
    # out of the count
    src = os.path.dirname(os.path.dirname(bopcalc.__file__))
    probe = ("import sys; before = set(sys.modules); import bopcalc.cli; "
             "print('typing' in set(sys.modules) - before)")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tracer_spans_name_live_functions():
    # the benchmark's tracer wraps each span's function by name, so a
    # deleted or renamed entry point breaks every traced run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracer.py")
    spec = importlib.util.spec_from_file_location("_bopcalc_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, attr, _ in tracer.SPANS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


TABLE = GeneratorTable("polynomial", {2: 1}, truncation=4)
SERIES = make_polynomial({0: 1, 2: 3}, 4)

# Per value class: its fields in order; valid calls, each with the field
# values it builds (defaults filled in); and the calls its validation
# rejects, each with the exception class and message it raises.
VALUE_CLASSES = {
    SpectrumId: (("tag", "level"), [
        ((("BP",), {}), ("BP", None)),
        (((), {"tag": "BPn", "level": 2}), ("BPn", 2)),
    ], [
        (("nope",), InvalidParameter, "unknown spectrum tag 'nope'"),
        (("BPn",), InvalidParameter, "BPn needs a level k >= 1"),
        (("BP", 2), InvalidParameter, "BP takes no level"),
    ]),
    SpaceRef: (("spectrum", "index"), [
        (((BP, 3), {}), (BP, 3)),
        (((BO,), {"index": -2}), (BO, -2)),
    ], []),
    HomotopyProfile: (("spectrum", "free_ranks", "torsion_z2"), [
        (((BP, SERIES, {2: 1}), {}), (BP, SERIES, {2: 1})),
    ], []),
    VerificationReport: (("check", "parameters", "passed",
                          "first_failure_degree", "elapsed_ms", "detail"), [
        ((("x", {}, True), {}), ("x", {}, True, None, 0.0, None)),
        ((("x", {}), {"passed": False, "first_failure_degree": 0}),
         ("x", {}, False, 0, 0.0, None)),
    ], [
        (("x", {}, True, 3), ValueError,
         "a passing report cannot carry a failure degree"),
        (("x", {}, False), ValueError,
         "a failing report must locate its first failure"),
    ]),
    _CheckSpec: (("name", "verifier", "faults"), [
        ((("rhs-one", verify_rhs_one), {}),
         ("rhs-one", verify_rhs_one, None)),
        ((("rhs-one", verify_rhs_one), {"faults": {"inject_fault": True}}),
         ("rhs-one", verify_rhs_one, {"inject_fault": True})),
    ], []),
    SquareMonomial: (("index", "factors"), [
        (((3, ((0, 2), (0, 4))), {}), (3, ((0, 2), (0, 4)))),
    ], []),
    SplittingIndex: (("level", "offset"), [
        (((2, 0), {}), (2, 0)),
        (((), {"level": 4, "offset": 3}), (4, 3)),
    ], [
        ((1, 0), InvalidParameter, "level 1 must be >= 2"),
        ((3, 2), InvalidParameter, "offset 2 outside 0..1 at level 3"),
        ((3, -1), InvalidParameter, "offset -1 outside 0..1 at level 3"),
    ]),
    TowerResult: (("space", "tables", "provenance"), [
        (((SpaceRef(BP, 2), (TABLE,), "catalog"), {}),
         (SpaceRef(BP, 2), (TABLE,), "catalog")),
    ], [
        ((SpaceRef(BP, 2), (TABLE,), "bogus"), InvalidParameter,
         "unknown provenance 'bogus'"),
        ((SpaceRef(BP, 2), (), "catalog"), InvalidParameter,
         "a tower result needs a table"),
    ]),
}


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a field holds a dict or a table
        return str(exc)


@pytest.mark.parametrize("cls", list(VALUE_CLASSES), ids=lambda c: c.__name__)
def test_value_class_contract(cls):
    fields, valid, rejected = VALUE_CLASSES[cls]
    assert cls._fields == cls.__match_args__ == fields
    for args, error, message in rejected:
        with pytest.raises(error) as info:
            cls(*args)
        assert str(info.value) == message
    for (args, kwargs), values in valid:
        value, twin = cls(*args, **kwargs), cls(*values)
        assert tuple(value) == values
        assert value == twin and _hash(value) == _hash(twin)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.fresh = 1


def test_record_reprs_are_pinned():
    assert repr(SpaceRef(SpectrumId("BP"), 3)) == (
        "SpaceRef(spectrum=SpectrumId(tag='BP', level=None), index=3)")
    assert repr(VerificationReport("x", {}, True)) == (
        "VerificationReport(check='x', parameters={}, passed=True, "
        "first_failure_degree=None, elapsed_ms=0.0, detail=None)")
    assert repr(SplittingIndex(level=3, offset=1)) == (
        "SplittingIndex(level=3, offset=1)")
