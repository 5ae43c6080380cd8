"""Structured pass/fail reports shared by all verifiers.

Every verifier returns a VerificationReport rather than a bare bool, so
the CLI and the test suite can both show what was checked, with which
parameters, and where the first discrepancy sits when something breaks.

A check body returns None when its check passes, and otherwise the
pair (first_failure_degree, detail): the failure is the result, and
the report passes exactly when there is none.  A body that raises
still yields a report, so one misbehaving check cannot cost ``verify
all`` the others.  The report fails; its locator is the exception's
``degree`` when it carries one (a nonnegative int, as on
NegativeDimension) and 0 otherwise, and ``detail.error`` holds
``"<ExceptionClass>: <message>"``.
"""

from __future__ import annotations

import time
from collections import namedtuple

from .series import TruncatedSeries

__all__ = ["VerificationReport", "run_check", "first_mismatch"]


class VerificationReport(namedtuple(
        "VerificationReport",
        "check parameters passed first_failure_degree elapsed_ms detail")):
    """Outcome of one named check.

    first_failure_degree is present exactly when the check failed; for
    sweeps over something other than series degree it holds the first
    failing sweep position, and detail says what that position means.
    """

    __slots__ = ()

    def __new__(cls, check: str, parameters: Mapping, passed: bool,
                first_failure_degree: Optional[int] = None,
                elapsed_ms: float = 0.0, detail: Optional[Mapping] = None):
        if passed and first_failure_degree is not None:
            raise ValueError("a passing report cannot carry a failure degree")
        if not passed and first_failure_degree is None:
            raise ValueError("a failing report must locate its first failure")
        return super().__new__(cls, check, parameters, passed,
                               first_failure_degree, elapsed_ms, detail)


def run_check(check: str, parameters: Mapping,
              body: Callable[[], Optional[Tuple[int, Optional[Mapping]]]],
              ) -> VerificationReport:
    """Time a check body returning None or (first_failure_degree, detail).

    An exception from the body becomes a failing report, located by the
    rule in the module docstring.
    """
    start = time.perf_counter()
    try:
        failure = body()
    except Exception as exc:
        degree = getattr(exc, "degree", None)
        failure = (degree if isinstance(degree, int) and degree >= 0 else 0,
                   {"error": f"{type(exc).__name__}: {exc}"})
    elapsed = (time.perf_counter() - start) * 1000.0
    failure_degree, detail = failure or (None, None)
    return VerificationReport(check, dict(parameters), failure is None,
                              failure_degree, elapsed, detail)


def first_mismatch(left: TruncatedSeries, right: TruncatedSeries) -> Optional[int]:
    """First degree where two series disagree, or None if equal."""
    if left == right:
        return None
    diff = left - right
    for d, c in enumerate(diff.coefficients):
        if c:
            return d
    return None
