"""Resource budgets: the exact work and the memory ceiling of each op.

Each row runs one call at one truncation N, after one run at N = 3 that
imports and sets up what the call needs.  It pins what the call costs,
by the columns of COUNTED: `passes`, the degree of each binomial pass
that runs; `euler` and `log_derivative`, the truncation of each Euler
pass and of each inverse one; `profiles`, the (spectrum, N) of each
homotopy profile build, nested builds included; and the calls of six
entry points.  A pin is the exact list, or its length where the row
gives a count.  `kb` is a ceiling on the tracemalloc peak in KB, with the range
measured and the CPython versions it was measured on.  A column a row
leaves out is not asserted.

`PYTHONPATH=src python tests/budgets.py` prints each row's measurement
beside its pins, without pytest; test_budgets.py asserts them.
"""

import gc
import os
import sys
import tracemalloc
from collections import namedtuple
from types import SimpleNamespace

from bopcalc import algebra, catalog, conjecture, series, splitting, towers
from bopcalc.catalog import BO, BOP, BP, BPBAR, BU, F, X, SpaceRef
# bound here, outside bopcalc, so a row's own build is not counted
from bopcalc.catalog import homotopy_profile
from bopcalc.cli import main

# what each counted column wraps, and what one call of it records
COUNTED = {
    "passes": (series, "_binomial_pass",
               lambda coeffs, degree, sign, power: degree),
    "euler": (series, "_euler", lambda b: len(b) - 1),
    "log_derivative": (series, "_log_derivative", lambda p: len(p) - 1),
    "profiles": (catalog, "homotopy_profile",
                 lambda spectrum, truncation: (spectrum, truncation)),
    "poincare_series": (algebra, "poincare_series", lambda *tables: tables),
    "rank_rule_homology": (towers, "rank_rule_homology",
                           lambda space, truncation: space),
    "head_series": (splitting, "head_series", lambda s, truncation: s),
    "layer_series": (splitting, "layer_series", lambda s, truncation: s),
    "steenrod_series": (conjecture, "steenrod_series",
                        lambda truncation: truncation),
    "square_monomial": (conjecture, "square_monomial", lambda j: j),
}


def count_calls(patch):
    """Wrap each counted function wherever a bopcalc module binds it,
    its home module's own calls included, through
    patch(module, name, wrapper).  Returns the record, one list per
    column, that the wrappers append to from now on."""
    made = SimpleNamespace(**{column: [] for column in COUNTED})
    for column, (home, name, record) in COUNTED.items():
        real = getattr(home, name)

        def wrapper(*args, real=real, calls=getattr(made, column),
                    record=record, dispatches=column == "passes"):
            at = len(calls)
            calls.append(record(*args))
            result = real(*args)
            if dispatches and len(calls) > at + 1:
                # a division by 1 + x^d with 4d^2 <= N runs as the two
                # passes recorded after it, and is no pass itself
                del calls[at]
            return result

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "bopcalc" and \
                    getattr(module, name, None) is real:
                patch(module, name, wrapper)
    return made


def peak_kb(call):
    """call()'s result, and the tracemalloc peak in KB while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


Budget = namedtuple("Budget", "id call n why pins kb ok")


def row(id, call, n, why, kb=None, ok=True, **pins):
    """One budget: call(n), or main(call + ["-N", n]) for an argv, with
    its pins by column and an optional (ceiling, measured) in KB.  A
    call that returns a bool returns ok: its report passed, or its
    command exited 0."""
    assert set(pins) <= set(COUNTED), set(pins) - set(COUNTED)
    return Budget(id, call, n, why, pins, kb, ok)


def run(budget, n):
    if callable(budget.call):
        return budget.call(n)
    argv = budget.call + ([] if n is None else ["-N", str(n)])
    return main(argv + ["--output", os.devnull]) == 0


def measure(budget, traced=True):
    """What the row's call costs at its N after one run at N = 3: its
    result, the record of its counted calls, and its tracemalloc peak
    in KB (None unless traced)."""
    run(budget, 3)
    peak = None
    if traced:
        gc.collect()
        _, peak = peak_kb(lambda: run(budget, budget.n))
    undo = []

    def patch(module, name, value):
        undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    try:
        made = count_calls(patch)
        result = run(budget, budget.n)
    finally:
        for module, name, value in reversed(undo):
            setattr(module, name, value)
    return result, made, peak


def misses(budget, result, made, peak):
    """Each (column, pin, measured) where the row's measurement breaks
    its pin."""
    out = []
    if isinstance(result, bool) and result is not budget.ok:
        out.append(("ok", budget.ok, result))
    for column, pin in budget.pins.items():
        got = getattr(made, column)
        got = len(got) if isinstance(pin, int) else got
        if got != pin:
            out.append((column, pin, got))
    if peak is not None and budget.kb and peak > budget.kb[0]:
        out.append(("kb", budget.kb[0], round(peak, 1)))
    return out


def _tower(i_max, n):
    return list(towers.bop_tower(i_max, homotopy_profile(BPBAR, n),
                                 homotopy_profile(F, n)))


def _built(n, *spectra):
    return [(spectrum, n) for spectrum in spectra]


def _passed(check, **options):
    return lambda n: check(n, **options).passed


def _bop_12(n):
    return towers.space_homology(SpaceRef(BOP, 12), n)


ROWS = [
    # a derived profile builds what it comes from once and drops it
    row("BPbar-profile-64", lambda n: homotopy_profile(BPBAR, n), 64,
        "built from BP", profiles=_built(64, BP), passes=6),
    row("F-profile-64", lambda n: homotopy_profile(F, n), 64,
        "built from BoP and bo", profiles=_built(64, BOP, BO), passes=6),
    row("X-profile-64", lambda n: homotopy_profile(X, n), 64,
        "built from BPbar (so BP) and bu",
        profiles=_built(64, BPBAR, BP, BU), passes=7),
    # bop6-splitting solves the tower through space 6: its BPbar, BP, F,
    # BoP and bo profiles (5 builds, 16 passes at 256; 1 pass at 2) stand
    # where the splitting sum six degrees down built bo and BoP (2 builds,
    # 14 passes at 256; none below 6)
    row("verify-all", ["verify", "all", "--format", "json"], None,
        "each level product and Sq^2 quotient built afresh where read",
        passes=242, profiles=23),
    row("verify-all-2", ["verify", "all", "--format", "json"], 2,
        "below 64, each check builds the profiles it reads", passes=21,
        profiles=23),

    # splitting: each head and layer builds its level product afresh,
    # one pass per factor through N (a layer's through N minus its
    # lead); the fault divides the tail once more
    row("rhs-one-2048", _passed(splitting.verify_rhs_one), 2048,
        "each level product built afresh", passes=55),
    row("rhs-one-2048-fault",
        _passed(splitting.verify_rhs_one, inject_fault=True), 2048,
        "each level product built afresh", ok=False, passes=57),
    row("rhs-one-2048-peak", _passed(splitting.verify_rhs_one), 2048,
        "one level product at a time",
        kb=(150, "98.9-99.0 KB, CPython 3.10-3.13")),
    row("rhs-one-2048-fault-peak",
        _passed(splitting.verify_rhs_one, inject_fault=True), 2048,
        "one level product at a time", ok=False,
        kb=(150, "99.2-100.0 KB, CPython 3.10-3.13")),
    *(row(f"rhs-one-{n}" + "-fault" * fault,
          lambda n, fault=fault: splitting.verify_rhs_one(n, fault), n,
          "one layer per level whose lead is at most N",
          layer_series=[s for s in range(2, 12) if 2 ** (s + 1) - 2 <= n])
      for n in (0, 5, 6, 64, 512) for fault in (False, True)),
    row("head-induction-512", _passed(splitting.verify_head_induction), 512,
        "9 heads and 8 layers, each built afresh", passes=63),
    row("head-induction-128", _passed(splitting.verify_head_induction), 128,
        "each head and layer once", head_series=list(range(2, 11)),
        layer_series=list(range(2, 10))),
    row("rational-splitting-2048",
        _passed(splitting.verify_rational_splitting), 2048,
        "one BPn ladder (10 passes), the regiment sum (1), BoP (11)",
        profiles=_built(2048, BO, BOP), passes=22),
    row("rational-splitting-2048-peak",
        _passed(splitting.verify_rational_splitting), 2048,
        "the regiment sum and a rung or two, then bo's ranks, then BoP",
        kb=(185, "148.7-159.5 KB, CPython 3.10-3.13")),
    row("bop6-splitting-256",
        _passed(splitting.verify_bop6_homotopy_splitting), 256,
        "the tower through space 6 from one BPbar and one F profile",
        profiles=_built(256, BPBAR, BP, F, BOP, BO), passes=16),
    row("bop6-splitting-2048-peak",
        _passed(splitting.verify_bop6_homotopy_splitting), 2048,
        "two profiles, the tower's two spaces, one space's comparison",
        kb=(520, "403.4-426.4 KB, CPython 3.10-3.13")),
    row("bpn-rank-recursion-128",
        _passed(splitting.verify_bpn_rank_recursion), 128,
        "BPn(1)..BPn(6) one pass apart on one ladder, and no profile",
        passes=[2 * (2 ** k - 1) for k in range(1, 7)], profiles=[]),

    # towers: each op builds the profiles it reads once, with BP under
    # BPbar, BoP and bo under F, and BPbar, BP and bu under X
    row("bop-tower-64", _passed(towers.verify_bop_tower), 64,
        "one BPbar and one F profile, each built once",
        profiles=_built(64, BPBAR, BP, F, BOP, BO), passes=12),
    row("bop-tower-64-series", _passed(towers.verify_bop_tower), 64,
        "one series, space 2's, for the Hurewicz probe",
        poincare_series=1, log_derivative=0),
    row("bop-tower-256", _passed(towers.verify_bop_tower), 256,
        "the tower reads its fiber factors and middles off profiles",
        rank_rule_homology=0),
    row("bop-tower-1024", _passed(towers.verify_bop_tower), 1024,
        "one BPbar and one F profile",
        profiles=_built(1024, BPBAR, BP, F, BOP, BO), passes=20),
    row("bop-tower-1032", _passed(towers.verify_bop_tower), 1032,
        "holds only what it reads again",
        kb=(300, "235.5-252.2 KB, CPython 3.10-3.13")),
    row("negative-tower-1024", _passed(towers.verify_negative_tower), 1024,
        "one F and one X profile",
        profiles=_built(1032, F, BOP, BO, X, BPBAR, BP, BU), passes=21),
    row("negative-tower-1024-fault",
        ["verify", "negative-tower", "--inject-fault", "--format", "json"],
        1024, "one F and one X profile", ok=False, passes=21, profiles=7,
        kb=(150, "118.1-122.5 KB, CPython 3.10-3.13")),
    row("BoP-12-space-64", _bop_12, 64,
        "no series until one is read", poincare_series=0, euler=0),
    row("BoP-12-series-64", lambda n: _bop_12(n).series, 64,
        "one Euler pass, from space 12's table", poincare_series=1,
        euler=1),
    row("BoP-12-series-1032", lambda n: _bop_12(n).series, 1032,
        "one BPbar and one F profile",
        profiles=_built(1032, BPBAR, BP, F, BOP, BO), passes=20),
    row("BoP-12-series-1032-peak", lambda n: _bop_12(n).series, 1032,
        "its profiles held only while read",
        kb=(250, "193.0-206.8 KB, CPython 3.10-3.13")),
    row("homology-BoP-12-1016",
        ["homology", "BoP", "12", "--format", "json"], 1016,
        "the solve and its series, printed one row at a time", passes=18,
        profiles=5, kb=(250, "193.0-206.3 KB, CPython 3.10-3.13")),
    row("BoP-tower-12-64", lambda n: len(_tower(12, n)) == 11, 64,
        "the tower builds no series", poincare_series=0, euler=0),
    row("BoP-tower-12-1024", lambda n: len(_tower(12, n)) == 11, 1024,
        "the fiber spaces 2 and 3 are read off their profile",
        rank_rule_homology=0),
    row("bu-bo-factorization-256",
        _passed(towers.verify_bu_bo_factorization), 256,
        "bu_2 reads its exponents off a profile", rank_rule_homology=0),
    row("rank-rule-bss-40", _passed(towers.verify_rank_rule_bss), 40,
        "one profile deep enough for index -6 serves every index",
        profiles=_built(46, BP, BU), passes=5),
    row("rank-rule-bss-64", _passed(towers.verify_rank_rule_bss), 64,
        "the check compares tables only", poincare_series=0),
    row("bo-deloopings-64", _passed(towers.verify_bo_deloopings), 64,
        "the check compares tables only", poincare_series=0),

    row("conjecture-shape-1024", _passed(conjecture.verify_conjecture_shape),
        1024, "the cursor's entry, its next step and one height's sum",
        passes=100, kb=(200, "123.3-133.1 KB, CPython 3.10-3.13")),
    row("conjecture-shape-128", _passed(conjecture.verify_conjecture_shape),
        128, "one Steenrod series", steenrod_series=[128]),
    row("conjectured-16-1024",
        lambda n: conjecture.conjectured_bopn_cohomology(16, n)
        .check_nonnegative() is None, 1024, "one quotient at a time",
        kb=(140, "103.8-110.8 KB, CPython 3.10-3.13")),
    row("conjecture-16-1024", ["conjecture", "16", "--format", "json"],
        1024, "one quotient at a time, and no profile", passes=27,
        profiles=0, kb=(140, "105.9-112.7 KB, CPython 3.10-3.13")),
    row("stable-limit-4096", _passed(conjecture.verify_stable_limit), 4096,
        "the target and every height read one quotient chain",
        steenrod_series=[4096], passes=68),
    row("squares-64", _passed(conjecture.verify_square_decompositions), 64,
        "only the 2-powers, each monomial once",
        square_monomial=[2, 4, 8, 16, 32, 64]),

    # space 12's csv and text print its table, and build no series;
    # space 1 has generators of both parities and prints only its series
    *(row(f"homology-BoP-{i}-64-{fmt}",
          ["homology", "BoP", str(i), "--format", fmt], 64,
          "one Euler pass per series printed", euler=euler)
      for i, euler_by_format in ((12, {"json": 1, "csv": 0, "table": 0}),
                                 (1, {"json": 1, "csv": 1, "table": 1}))
      for fmt, euler in euler_by_format.items()),
    *(row(f"homology-BoP-12-64-{fmt}-series",
          ["homology", "BoP", "12", "--format", fmt], 64,
          "a series built only to be printed", poincare_series=built,
          euler=built)
      for fmt, built in (("json", 1), ("csv", 0))),
]


if __name__ == "__main__":
    print(sys.version.split()[0])
    for budget in ROWS:
        result, made, peak = measure(budget)
        pins = {column: pin if isinstance(pin, int) else len(pin)
                for column, pin in budget.pins.items()}
        shown = [f"{column} {len(getattr(made, column))}"
                 f" ({pins.get(column, '-')})"
                 for column in ("passes", "euler", "profiles")]
        ceiling = budget.kb[0] if budget.kb else "-"
        broken = misses(budget, result, made, peak)
        print(f"{budget.id:31} {'  '.join(shown)}  peak {peak:.1f} KB"
              f" ({ceiling})" + (f"  MISS {broken}" if broken else ""))
