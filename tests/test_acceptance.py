"""Acceptance gate: twelve exact, deterministic criteria.

Each test prints one PASS/FAIL line (visible with pytest -s; captured
output is shown on failure). Every assertion is exact integer equality.
"""

import json
import subprocess
import sys
import time

import jsonschema

import oracles
from bopcalc.algebra import poincare_series
from bopcalc.catalog import (
    BOP,
    BPBAR,
    BU,
    F,
    SpaceRef,
    bo_space_homology,
    homotopy_profile,
)
from bopcalc.conjecture import (
    bop_cohomology_series,
    verify_epsilon_partition,
    verify_first_appearance,
    verify_square_decompositions,
    verify_stable_limit,
)
from bopcalc.series import make_polynomial
from bopcalc.splitting import (
    layer_series,
    tail_series,
    verify_bop6_homotopy_splitting,
    verify_bpn_rank_recursion,
    verify_head_induction,
    verify_index_bijection,
    verify_irreducibility,
    verify_rational_splitting,
    verify_rhs_one,
)
from bopcalc.towers import (
    bop_tower,
    rank_rule_homology,
    space_homology,
    verify_bo_deloopings,
    verify_bu_bo_factorization,
    verify_negative_tower,
    verify_rank_rule_bss,
)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["check", "parameters", "pass", "elapsed_ms"],
    "properties": {
        "check": {"type": "string"},
        "parameters": {"type": "object"},
        "pass": {"type": "boolean"},
        "elapsed_ms": {"type": "number", "minimum": 0},
        "first_failure_degree": {"type": "integer", "minimum": 0},
        "detail": {"type": "object"},
    },
    "additionalProperties": False,
}

VERIFY_ALL_SCHEMA = {
    "type": "object",
    "required": ["command", "pass", "reports"],
    "properties": {
        "command": {"const": "verify"},
        "pass": {"type": "boolean"},
        "reports": {"type": "array", "items": REPORT_SCHEMA, "minItems": 1},
    },
    "additionalProperties": False,
}


def _criterion(number, label, body):
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number:02d}: {label}")
        raise
    print(f"PASS criterion {number:02d}: {label}")


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "bopcalc", *argv],
                          capture_output=True, text=True)


def test_criterion_01_master_identity():
    def body():
        report = verify_rhs_one(truncation=512)
        assert report.passed
        assert report.elapsed_ms < 1000.0

    _criterion(1, "head(2) + tail(2) = 1 to degree 512 in under 1 s", body)


def test_criterion_02_level_induction():
    def body():
        assert verify_head_induction(512).passed
        for s in range(2, 10):
            lhs = tail_series(s, 512)
            rhs = layer_series(s, 512) + tail_series(s + 1, 512)
            assert lhs == rhs

    _criterion(2, "head and tail telescopes for levels 2..9 to degree 512",
               body)


def test_criterion_03_rational_splitting():
    def body():
        report = verify_rational_splitting(256)
        assert report.passed

    _criterion(3, "free ranks split as bo plus shifted truncated summands "
                  "to degree 256, torsion identical", body)


def test_criterion_04_bo_delooping_regression():
    def body():
        assert verify_bo_deloopings(64).passed

    _criterion(4, "iterated delooping reproduces the catalogued bo tables "
                  "to degree 64", body)


def test_criterion_05_bu_bo_factorization():
    def body():
        lhs = poincare_series(rank_rule_homology(SpaceRef(BU, 2), 100))
        rhs = (poincare_series(bo_space_homology(2, 100))
               * poincare_series(bo_space_homology(4, 100)))
        assert lhs == rhs
        assert lhs.coefficient(8) == 5
        assert rhs.coefficient(8) == 5
        assert verify_bu_bo_factorization(100).passed

    _criterion(5, "bu space 2 factors through bo spaces 2 and 4 to degree "
                  "100 with x^8 coefficient 5", body)


def test_criterion_06_negative_tower():
    def body():
        assert verify_negative_tower(64).passed

    _criterion(6, "fiber tower product identity for indices -8..5 to "
                  "degree 64", body)


def test_criterion_07_bop_tower():
    def body():
        tables = dict(enumerate(bop_tower(12, 60), 2))
        for i, table in tables.items():
            assert all(c >= 0 for c in table.counts.values())
            assert all(d % 2 == i % 2 for d in table.counts)
        for i in range(2, 11):
            target = poincare_series(
                rank_rule_homology(SpaceRef(BPBAR, i), 60))
            assert (poincare_series(tables[i])
                    * poincare_series(tables[i + 2])) == target
        cross = oracles.naive_tensor(rank_rule_homology(SpaceRef(F, 4), 60),
                                     bo_space_homology(4, 60))
        assert tables[4] == cross
        assert tables[2].counts[2] == 1
        assert poincare_series(tables[2]).coefficient(2) == 1
        top = space_homology(SpaceRef(BOP, 12), 60)
        assert (top.tables, top.provenance) == ((tables[12],), "ses_solved")

    _criterion(7, "twelve-stage tower solves with nonnegative tables, "
                  "matching parity, and product reconstruction", body)


def test_criterion_08_rank_rule_equals_iteration():
    def body():
        report = verify_rank_rule_bss(40)
        assert report.passed

    _criterion(8, "rank rule equals iterated delooping for both "
                  "torsion-free spectra at indices -6..6 to degree 40", body)


def test_criterion_09_irreducibility_and_indexing():
    def body():
        assert verify_irreducibility(12).passed
        assert verify_index_bijection(8192).passed
        assert verify_bpn_rank_recursion(128).passed

    _criterion(9, "window inequalities for levels up to 12, index "
                  "bijection to 8192, rank recursion to degree 128", body)


def test_criterion_10_homotopy_splitting():
    def body():
        assert verify_bop6_homotopy_splitting(256).passed

    _criterion(10, "space 6 homotopy splits as the product profile to "
                   "degree 256", body)


def test_criterion_11_conjecture_suite():
    def body():
        assert verify_epsilon_partition(64).passed
        assert verify_stable_limit(64).passed
        limit = bop_cohomology_series(64)
        two_cell = make_polynomial({0: 1, 2: 1}, 64)
        assert limit * two_cell == homotopy_profile(BPBAR, 64).free_ranks
        assert verify_first_appearance(64).passed
        assert verify_square_decompositions(4096).passed

    _criterion(11, "band partition to height 64, stable limit to degree "
                   "64, first appearances to 64, square decompositions "
                   "below 4096", body)


def test_criterion_12_cli_contract():
    def body():
        start = time.perf_counter()
        proc = _cli("verify", "all", "--max-degree", "256",
                    "--format", "json")
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert elapsed < 30.0
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, VERIFY_ALL_SCHEMA)
        assert doc["pass"] is True

        for check in ("rhs-one", "head-induction", "negative-tower"):
            fault = _cli("verify", check, "--inject-fault",
                         "--format", "json")
            assert fault.returncode == 1
            report = json.loads(fault.stdout)["report"]
            jsonschema.validate(report, REPORT_SCHEMA)
            assert report["pass"] is False
            assert isinstance(report["first_failure_degree"], int)

    _criterion(12, "verify all at degree 256 exits 0 under 30 s with "
                   "schema-valid JSON; fault injections exit 1 with a "
                   "located failure", body)
