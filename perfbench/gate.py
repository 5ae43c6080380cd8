"""Output gate: does an op's result match its stored reference?

A reference is the op's exit status plus the SHA-256 of its JSON output
with every ``elapsed_ms`` value blanked; everything else must be
bit-identical.  A failing reference also names its failure locator
(``first_failure_degree`` and ``detail``), so a speed-up that skips a
check cannot pass it.  The smoke op has no stored output; it passes once
it exits 0 or 1 with one report per registered check.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Optional, Sequence

_ELAPSED = re.compile(rb'"elapsed_ms": -?[0-9.]+(?:[eE][-+]?[0-9]+)?')


def digest(stdout: bytes) -> str:
    return hashlib.sha256(_ELAPSED.sub(b'"elapsed_ms": _', stdout)).hexdigest()


def locator(stdout: bytes) -> Optional[dict]:
    """Where a single failing verify report says it broke, else None."""
    try:
        report = json.loads(stdout)["report"]
    except (ValueError, KeyError, TypeError):
        return None
    if report.get("pass", True):
        return None
    return {"first_failure_degree": report.get("first_failure_degree"),
            "detail": report.get("detail")}


def reference(exit_status: int, stdout: bytes) -> dict:
    ref = {"exit": exit_status, "digest": digest(stdout)}
    where = locator(stdout)
    if where is not None:
        ref["locator"] = where
    return ref


def judge(ref: dict, exit_status: int, stdout: bytes) -> Optional[str]:
    """None when the result matches ``ref``, else the reason it does not."""
    if exit_status != ref["exit"]:
        return f"exit {exit_status}, want {ref['exit']}"
    if "locator" in ref and locator(stdout) != ref["locator"]:
        return f"locator {locator(stdout)}, want {ref['locator']}"
    if digest(stdout) != ref["digest"]:
        return "output differs from the reference"
    return None


def judge_smoke(checks: Sequence[str], exit_status: int,
                stdout: bytes) -> Optional[str]:
    if exit_status not in (0, 1):
        return f"exit {exit_status}, want 0 or 1"
    try:
        got = [r["check"] for r in json.loads(stdout)["reports"]]
    except (ValueError, KeyError, TypeError):
        return "output is not a verify-all report list"
    if got != list(checks):
        return f"reports for {got}, want one per registered check"
    return None


def self_test(ref: dict, exit_status: int, stdout: bytes) -> None:
    """Show the gate fails on purpose, given a result that passes it.

    A wrong exit status and an output with one digit changed outside
    ``elapsed_ms`` must each be judged failed.
    """
    if judge(ref, exit_status, stdout) is not None:
        raise AssertionError("self-test needs a result that passes")
    wrong_exit = 2 if exit_status != 2 else 0
    if judge(ref, wrong_exit, stdout) is None:
        raise AssertionError("gate accepted a wrong exit status")
    base = digest(stdout)
    for i, byte in enumerate(stdout):
        if 48 <= byte <= 57:
            mutated = stdout[:i] + bytes([48 + (byte - 47) % 10]) + stdout[i + 1:]
            if digest(mutated) != base:
                break
    else:
        raise AssertionError("no digit outside elapsed_ms to mutate")
    if judge(ref, exit_status, mutated) is None:
        raise AssertionError("gate accepted a mutated output")
