import json

import pytest

from bopcalc.cli import _report_json, _report_line
from bopcalc.errors import NegativeDimension
from bopcalc.reports import VerificationReport, first_mismatch, run_check
from bopcalc.series import geometric, make_polynomial, one


def test_pass_fail_invariant():
    with pytest.raises(ValueError):
        VerificationReport("demo", {}, True, first_failure_degree=4)
    with pytest.raises(ValueError):
        VerificationReport("demo", {}, False)
    VerificationReport("demo", {}, True)
    VerificationReport("demo", {}, False, first_failure_degree=0)


def test_json_shape():
    ok = VerificationReport("demo", {"n": 8}, True, elapsed_ms=1.23456)
    doc = _report_json(ok)
    assert doc == {"check": "demo", "parameters": {"n": 8}, "pass": True,
                   "elapsed_ms": 1.235}
    json.dumps(doc)
    bad = VerificationReport("demo", {}, False, first_failure_degree=3,
                             detail={"lhs": 1, "rhs": 2})
    doc = _report_json(bad)
    assert doc["first_failure_degree"] == 3
    assert doc["detail"] == {"lhs": 1, "rhs": 2}
    assert doc["pass"] is False


def test_one_line_formats():
    ok = VerificationReport("demo", {}, True, elapsed_ms=2.0)
    assert _report_line(ok) == "PASS demo (2.0 ms)"
    bad = VerificationReport("demo", {}, False, first_failure_degree=7,
                             elapsed_ms=0.25)
    assert _report_line(bad) == "FAIL demo first_failure_degree=7 (0.2 ms)"


def test_run_check_times_and_passes_through():
    report = run_check("demo", {"k": 1}, lambda: None)
    assert report.passed and report.elapsed_ms >= 0.0
    assert report.parameters == {"k": 1}
    report = run_check("demo", {}, lambda: (9, {"why": "x"}))
    assert not report.passed
    assert report.first_failure_degree == 9
    assert report.detail == {"why": "x"}


def _raiser(exc):
    def body():
        raise exc
    return body


def test_run_check_turns_an_exception_into_a_failing_report():
    report = run_check("demo", {"k": 1}, _raiser(ValueError("boom")))
    assert not report.passed
    assert report.first_failure_degree == 0
    assert report.detail == {"error": "ValueError: boom"}
    assert report.parameters == {"k": 1} and report.elapsed_ms >= 0.0
    # an error that carries a degree locates the failure there
    report = run_check("demo", {}, _raiser(NegativeDimension(7)))
    assert report.first_failure_degree == 7
    assert report.detail == {
        "error": "NegativeDimension: negative count at degree 7"}
    # a degree that is no valid locator falls back to 0
    report = run_check("demo", {}, _raiser(NegativeDimension(None)))
    assert report.first_failure_degree == 0
    json.dumps(_report_json(report))


def test_first_mismatch():
    a = geometric(2, 12)
    assert first_mismatch(a, a) is None
    b = a + make_polynomial({6: 1}, 12)
    assert first_mismatch(a, b) == 6
    assert first_mismatch(one(4), geometric(2, 4)) == 2
