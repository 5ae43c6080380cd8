"""The package's frozen records behave as the frozen dataclasses they
replaced: each record is run side by side with a dataclass oracle
declared with the same fields, defaults and __post_init__."""

import dataclasses
from dataclasses import field

import pytest

from bopcalc._record import record
from bopcalc.algebra import GeneratorTable
from bopcalc.catalog import BO, BP, HomotopyProfile, SpaceRef, SpectrumId
from bopcalc.cli import _CheckSpec
from bopcalc.conjecture import SquareMonomial
from bopcalc.reports import VerificationReport
from bopcalc.series import make_polynomial
from bopcalc.splitting import SplittingIndex, verify_rhs_one
from bopcalc.towers import TowerResult

SERIES = make_polynomial({0: 1, 2: 3}, 4)
TABLE = GeneratorTable("polynomial", {2: 1}, truncation=4)
ODD_TABLE = GeneratorTable("exterior", {3: 1}, truncation=4)

# The parent dataclasses' fields in order, as (name,) or (name, Field).
FIELDS = {
    SpectrumId: [("tag",), ("level", field(default=None))],
    SpaceRef: [("spectrum",), ("index",)],
    HomotopyProfile: [("spectrum",), ("free_ranks",), ("torsion_z2",)],
    VerificationReport: [("check",), ("parameters",), ("passed",),
                         ("first_failure_degree", field(default=None)),
                         ("elapsed_ms", field(default=0.0)),
                         ("detail", field(default=None))],
    _CheckSpec: [("name",), ("verifier",),
                 ("faults", field(default=None)),
                 ("scale_cap", field(default=None))],
    SquareMonomial: [("index",), ("factors",)],
    SplittingIndex: [("level",), ("offset",)],
    TowerResult: [("space",), ("tables",), ("provenance",)],
}

# (args, kwargs) per class: valid calls in every form, then calls that
# the signature or __post_init__ rejects.
CALLS = {
    SpectrumId: [
        (("BP",), {}), (("BPn", 3), {}), ((), {"tag": "bo"}),
        ((), {"tag": "BPn", "level": 2}), (("BP", None), {}),
        (("nope",), {}), (("BPn",), {}), (("BP", 2), {}), ((), {}),
        (("BP", None, 1), {}), ((), {"tg": "BP"}),
        (("BP",), {"tag": "BP"}),
    ],
    SpaceRef: [
        ((BP, 3), {}), ((BO,), {"index": -2}),
        ((), {"spectrum": BP, "index": 3}), ((BP,), {}), ((), {}),
    ],
    HomotopyProfile: [
        ((BP, SERIES, {}), {}), ((BP, SERIES, {2: 1}), {}),
        ((), {"spectrum": BO, "free_ranks": SERIES, "torsion_z2": {}}),
        ((BP, SERIES), {}), ((BP,), {}),
    ],
    VerificationReport: [
        (("x", {}, True), {}),
        (("x", {"n": 1}, False, 4, 1.5, {"stage": "master"}), {}),
        (("x", {}), {"passed": False, "first_failure_degree": 0}),
        (("x", {}, True, 3), {}), (("x", {}, False), {}), (("x",), {}),
    ],
    _CheckSpec: [
        (("rhs-one", verify_rhs_one), {}),
        (("rhs-one", verify_rhs_one, {"inject_fault": True}), {}),
        (("rhs-one", verify_rhs_one), {"scale_cap": 64}),
        (("rhs-one", verify_rhs_one, None, 64), {}),
        (("rhs-one",), {}),
        (("rhs-one", verify_rhs_one), {"scale": "truncation"}),
    ],
    SquareMonomial: [
        ((3, ((0, 2), (0, 4))), {}), ((5,), {"factors": ((0, 2), (1, 4))}),
        ((3,), {}),
    ],
    SplittingIndex: [
        ((2, 0), {}), ((3, 1), {}), ((), {"level": 4, "offset": 3}),
        ((1, 0), {}), ((3, 2), {}), ((3, -1), {}), ((2,), {}),
    ],
    TowerResult: [
        ((SpaceRef(BP, 2), (TABLE,), "catalog"), {}),
        ((SpaceRef(BP, 2), (TABLE, ODD_TABLE), "ses_solved"), {}),
        ((), {"space": SpaceRef(BO, 1), "tables": (ODD_TABLE, TABLE),
              "provenance": "product"}),
        ((SpaceRef(BP, 2), (TABLE,), "bogus"), {}),
        ((SpaceRef(BP, 2), (), "catalog"), {}),
        ((SpaceRef(BP, 2), (TABLE,)), {}),
    ],
}


def _oracle(cls):
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    fields = [(spec[0], object) + tuple(spec[1:]) for spec in FIELDS[cls]]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True,
                                      namespace=namespace)


def _build(make, args, kwargs):
    try:
        return make(*args, **kwargs), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def _frozen(obj, name):
    outcomes = []
    for act in (lambda: setattr(obj, name, 1), lambda: delattr(obj, name)):
        with pytest.raises(AttributeError) as info:
            act()
        outcomes.append(str(info.value))
    return outcomes


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_behaves_as_its_frozen_dataclass(cls):
    oracle = _oracle(cls)
    assert cls.__match_args__ == oracle.__match_args__
    built = []
    for args, kwargs in CALLS[cls]:
        got, got_error = _build(cls, args, kwargs)
        want, want_error = _build(oracle, args, kwargs)
        assert got_error == want_error, (args, kwargs)
        if got is None:
            continue
        assert repr(got) == repr(want)
        assert _hash(got) == _hash(want)
        assert got == cls(*args, **kwargs)
        assert got != want and want != got
        for name in [spec[0] for spec in FIELDS[cls]] + ["fresh"]:
            assert _frozen(got, name) == _frozen(want, name)
        built.append((got, want))
    assert any(got is not None for got, _ in built)
    for got_a, want_a in built:
        for got_b, want_b in built:
            assert (got_a == got_b) == (want_a == want_b)
            assert (got_a != got_b) == (want_a != want_b)


def test_record_reprs_are_pinned():
    assert repr(SpaceRef(SpectrumId("BP"), 3)) == (
        "SpaceRef(spectrum=SpectrumId(tag='BP', level=None), index=3)")
    assert repr(VerificationReport("x", {}, True)) == (
        "VerificationReport(check='x', parameters={}, passed=True, "
        "first_failure_degree=None, elapsed_ms=0.0, detail=None)")
    assert repr(SplittingIndex(level=3, offset=1)) == (
        "SplittingIndex(level=3, offset=1)")


def test_record_compares_unequal_to_other_types():
    ref = SpaceRef(BP, 3)
    assert ref.__eq__((BP, 3)) is NotImplemented
    assert ref != (BP, 3)
    assert {ref: 1}[SpaceRef(SpectrumId("BP"), 3)] == 1


def test_defaults_fill_the_last_fields_in_order():
    @record
    class Point:
        x: int
        y: int = 1
        z: int = 2

    assert (Point(0).y, Point(0).z) == (1, 2)
    assert Point(0, z=5) == Point(0, 1, 5)
    with pytest.raises(TypeError, match="non-default field 'y'"):
        @record
        class Bad:
            x: int = 0
            y: int
