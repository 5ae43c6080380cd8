"""Solving Omega-spectrum towers degree by degree.

Three mechanisms produce the homology of a space in a connective tower:

* the rank rule, for spectra whose homotopy is torsion-free and even:
  space i picks up one generator in degree d for every free summand of
  pi_(d-i), polynomial generators when i is even and exterior ones when
  i is odd, plus a component for every free summand of pi_(-i);
* iterated bar steps (bss_iterate), walking a table up a tower one
  delooping at a time via tor_suspend, each all-even divided-power step
  resolved to polynomial;
* short-exact-sequence division (ses_quotient), when a space sits in a
  fibration whose other two homologies are known and everything in
  sight is a bicommutative Hopf algebra, so the middle series factors
  exactly.

The BoP tower is solved by the rank rule and the division, and only
checked by a bar walk: its bottom spaces are products of a catalogued bo
space with a rank-rule fiber space, and each later space is the matching
BPbar space divided, in exponent space rather than by ses_quotient, by
the one two steps below.  space_homology picks, for any catalogued
space, which of these rules (or the bo catalogue) answers it.  A
rank-rule table is one slice of its spectrum's homotopy profile.  The
tower is handed the F and BPbar profiles, each built once by its caller,
reads each fiber factor and BPbar middle straight off them as the
exponents of such a slice, adds bo's from its table, and builds tables
only for the spaces it yields, each by one step.  It yields each space
as soon as it is solved and holds only the exponents of the two spaces
below, so a reader that keeps one table at a time needs O(N) memory.
BoP_i is (i-1)-connected, so every space above N + 2 is empty through N:
the tower solves nothing there, and space_homology answers such a space
without walking the tower at all.

A space is stored as the generator tables presenting its homology, and
is solved and checked in exponent space: the Euler exponents v of its
Poincare series P = prod_d (1 - x^d)^(-v_d) (algebra.exponents), where
the quotient is a difference and a product a sum, each one O(N) pass.
The solver subtracts the sub's v from the middle's and reads the table
off the difference (algebra.table_from_exponents).  Counts that come out
nonnegative give a nonnegative series (free on them); when one is
negative, the series is built from v through its log-derivative and the
error names its first negative degree, else the lowest negative count's.

The checks compare exponent vectors built from the tables, and name the
degree where they first differ.  That is where the series first differ:
if the v's agree below m, their log-derivatives L_n = sum over d | n of
d*v_d agree below m and differ at m by m times the v's difference, and
two series with constant term 1 first differ where their L's do
(series.py).
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple

from .algebra import (
    GeneratorTable,
    _dense_exponents,
    exponents,
    log_from_exponents,
    off_parity,
    poincare_series,
    resolve_extensions,
    table_from_exponents,
    tor_suspend,
)
from .catalog import (
    BP,
    BPBAR,
    BO,
    BU,
    F,
    X,
    HomotopyProfile,
    SpaceRef,
    SpectrumId,
    bo_space_homology,
    homotopy_profile,
)
from .errors import (
    InvalidParameter,
    NegativeDimension,
    RankRuleInapplicable,
)
from .reports import VerificationReport, first_mismatch, run_check
from .series import (
    TruncatedSeries,
    _from_ints,
    from_log_derivative,
    make_polynomial,
)

__all__ = [
    "TowerResult",
    "PROVENANCES",
    "rank_rule_homology",
    "bss_iterate",
    "ses_quotient",
    "bop_tower",
    "space_homology",
    "verify_negative_tower",
    "verify_bop_tower",
    "verify_rank_rule_bss",
    "verify_bo_deloopings",
    "verify_bu_bo_factorization",
]

PROVENANCES = ("catalog", "rank_rule", "ses_solved", "product")

# Spectra with torsion-free, evenly graded homotopy; the rank rule reads
# their space homology straight off the profile.  F and X qualify only
# through space index 8: index 7 is exterior because it appears as the
# top term of the odd fibration one level down, and at index 8 evenness
# survives but the multiplicative structure does not.
_RANK_RULE_TAGS = ("BP", "BPbar", "BPn", "bu", "F", "X")
_FIBER_TAGS = ("F", "X")


class TowerResult(namedtuple("TowerResult", "space tables provenance")):
    """One solved space: its one generator table, or two factors of
    different kinds (then `table` is None).  Its Poincare series is not
    a field; it is built from the tables on each read."""

    __slots__ = ()

    def __new__(cls, space: SpaceRef, tables: Tuple[GeneratorTable, ...],
                provenance: str):
        if provenance not in PROVENANCES:
            raise InvalidParameter(f"unknown provenance {provenance!r}")
        if not tables:
            raise InvalidParameter("a tower result needs a table")
        return super().__new__(cls, space, tables, provenance)

    @property
    def table(self) -> Optional[GeneratorTable]:
        return self.tables[0] if len(self.tables) == 1 else None

    @property
    def series(self) -> TruncatedSeries:
        return poincare_series(*self.tables)


def _parity_kind(index: int) -> str:
    """The kind of a torsion-free space of this index: polynomial when
    it is even, exterior when it is odd."""
    return "polynomial" if index % 2 == 0 else "exterior"


def _rank_rule(spectrum: SpectrumId, index: int, truncation: int,
               profile: HomotopyProfile) -> Tuple[str, int, tuple]:
    """The rank rule for space index of a spectrum, read off its profile:
    (kind, first, ranks), ranks[k] generators of the kind in degree
    first + k, for the degrees first..truncation (none when first is
    above it)."""
    if spectrum.tag in _FIBER_TAGS:
        if index > 8:
            raise RankRuleInapplicable(
                f"{spectrum} space {index} is beyond the torsion-free range")
        kind = "even_unresolved" if index == 8 else _parity_kind(index)
    else:
        kind = _parity_kind(index)
    # The top degree read, truncation - index, must be in the profile;
    # free_rank raises TruncationError when it is not.
    profile.free_rank(truncation - index)
    first = max(index, 1)
    ranks = profile.free_ranks.coefficients[
        first - index:max(truncation - index + 1, 0)]
    return kind, first, ranks


def _rank_rule_table(spectrum: SpectrumId, index: int, truncation: int,
                     profile: HomotopyProfile) -> GeneratorTable:
    kind, first, ranks = _rank_rule(spectrum, index, truncation, profile)
    counts = zip(itertools.compress(itertools.count(first), ranks),
                 filter(None, ranks))
    return GeneratorTable(kind, counts, profile.free_rank(-index), truncation)


def _rank_rule_exponents(spectrum: SpectrumId, index: int, truncation: int,
                         profile: HomotopyProfile) -> TruncatedSeries:
    """exponents(_rank_rule_table(...)), without building the table."""
    kind, first, ranks = _rank_rule(spectrum, index, truncation, profile)
    counts = [0] * min(first, truncation + 1) + list(ranks)
    return _from_ints(_dense_exponents(kind, counts), truncation)


def rank_rule_homology(space: SpaceRef, truncation: int) -> GeneratorTable:
    """Homology table of a torsion-free even spectrum's space.

    >>> from .catalog import F, SpaceRef
    >>> rank_rule_homology(SpaceRef(F, 2), 12).counts
    {8: 1, 10: 1, 12: 1}
    """
    spectrum = space.spectrum
    if spectrum.tag not in _RANK_RULE_TAGS:
        raise RankRuleInapplicable(
            f"{spectrum} has homotopy torsion; the rank rule does not apply")
    # Ranks are needed down at degree d - index, and at -index for the
    # components, so widen the profile when the index is negative.
    depth = max(truncation, truncation - space.index, -space.index, 0)
    profile = homotopy_profile(spectrum, depth)
    return _rank_rule_table(spectrum, space.index, truncation, profile)


def bss_iterate(table: GeneratorTable,
                component_ranks: Sequence[int]) -> List[GeneratorTable]:
    """The tables of the next len(component_ranks) deloopings of a space,
    one bar step each.

    component_ranks[j] is the free rank of pi_0 of the (j+1)-st space
    reached.  A divided-power step whose generators all sit in even
    degrees is resolved to polynomial, as it is for a spectrum whose
    spaces have torsion-free homology; an odd one stays divided-power,
    and the step after it raises UnresolvedExtension.
    """
    tables: List[GeneratorTable] = []
    for rank in component_ranks:
        table = tor_suspend(table, rank)
        if table.kind == "divided_power" and off_parity(table, 0) is None:
            table = resolve_extensions(table)
        tables.append(table)
    return tables


def ses_quotient(middle: TruncatedSeries, sub: TruncatedSeries) -> TruncatedSeries:
    """Divide the series of a total space by the series of its sub.

    Exactness of the division is part of the claim: a negative
    coefficient in the quotient means the alleged sub does not embed,
    and is reported as NegativeDimension at the first bad degree.
    bop_tower divides the same way in exponent space.
    """
    quotient = middle / sub
    bad = quotient.check_nonnegative()
    if bad is not None:
        raise NegativeDimension(bad)
    return quotient


def bop_tower(i_max: int, bpbar: HomotopyProfile,
              fiber: HomotopyProfile) -> Iterator[GeneratorTable]:
    """The tables of BoP spaces 2 through i_max, through the truncation
    of the BPbar profile, yielded in order, each as soon as it is
    solved.  i_max is checked on the call.

    Spaces 2 and 3 are products of a rank-rule fiber space with the
    matching bo space: their exponents are the fiber's, read off the F
    profile, plus bo's.  From there each space is the SES quotient of
    the BPbar space two indices down by the BoP space two indices down:
    its exponents are theirs subtracted, the BPbar ones read off the
    BPbar profile by the rank rule.  An F profile shorter than the
    truncation raises TruncationError.
    Every space's counts are read off its exponents by one step, with
    component rank 0.  No series is built unless a count is negative; then
    it raises NegativeDimension at the series' first negative degree,
    else at the lowest negative count's.  The tower holds the exponents
    of the two spaces below the one it solves, and solves nothing above
    N + 2: space i is (i-1)-connected, so each space there is the empty
    table of its kind (_empty_bop_table).
    """
    if i_max < 2:
        raise InvalidParameter("the solved BoP tower starts at space 2")
    truncation = bpbar.truncation
    return itertools.chain(
        _solved_bop_tower(min(i_max, truncation + 2), bpbar, fiber),
        (_empty_bop_table(i, truncation)
         for i in range(truncation + 3, i_max + 1)))


def _solved_bop_tower(i_max: int, bpbar: HomotopyProfile,
                      fiber: HomotopyProfile) -> Iterator[GeneratorTable]:
    older = newer = None  # the exponents of spaces i - 2 and i - 1
    truncation = bpbar.truncation
    for i in range(2, i_max + 1):
        if i <= 3:
            v = _product_exponents(i, truncation, fiber)
        else:
            v = _rank_rule_exponents(BPBAR, i - 2, truncation, bpbar) - older
        try:
            table = table_from_exponents(v, _parity_kind(i))
        except NegativeDimension as negative:
            bad = from_log_derivative(
                log_from_exponents(v)).check_nonnegative()
            raise negative if bad is None else NegativeDimension(bad)
        older, newer = newer, v
        yield table


def _empty_bop_table(index: int, truncation: int) -> GeneratorTable:
    """BoP space index through a truncation below index - 1: no
    generators, component rank 0."""
    return GeneratorTable(_parity_kind(index), {}, 0, truncation)


def space_homology(space: SpaceRef, truncation: int,
                   periodic: bool = False) -> TowerResult:
    """Homology of any catalogued space, by its spectrum's rule: the bo
    catalogue (periodic as bo_space_homology takes it), the last space
    bop_tower yields from BoP space 2 up (the empty table, read without
    the tower, above N + 2) and the fiber-times-bo product below, else
    the rank rule, which gives bu's classical Z x BU, U and BU tables.

    >>> res = space_homology(SpaceRef(BU, 1), 7)
    >>> res.provenance, res.table.kind, res.table.counts
    ('catalog', 'exterior', {1: 1, 3: 1, 5: 1, 7: 1})
    """
    tag, i, n = space.spectrum.tag, space.index, truncation
    if tag == "bo":
        tables, provenance = (bo_space_homology(i, n, periodic),), "catalog"
    elif tag != "BoP":
        tables = (rank_rule_homology(space, n),)
        provenance = "catalog" if tag == "bu" else "rank_rule"
    elif i >= 2:
        tables = ((_empty_bop_table(i, n) if i > n + 2 else
                   deque(bop_tower(i, homotopy_profile(BPBAR, n),
                                   homotopy_profile(F, n)), maxlen=1).pop()),)
        provenance = "product" if i <= 3 else "ses_solved"
    else:
        tables, provenance = _fiber_times_bo(i, n), "product"
    return TowerResult(space, tables, provenance)


def _product_exponents(index: int, truncation: int,
                       fiber: HomotopyProfile) -> TruncatedSeries:
    """v(F_index) + v(bo_index) for index 0..7, F's read off the fiber
    profile."""
    return (_rank_rule_exponents(F, index, truncation, fiber)
            + exponents(bo_space_homology(index, truncation)))


def _fiber_times_bo(index: int, truncation: int) -> tuple:
    """Tables of F_index (x) bo_index: the two factors when their kinds
    differ, else the table of their exponents' sum and ranks' sum."""
    fiber = rank_rule_homology(SpaceRef(F, index), truncation)
    base = bo_space_homology(index, truncation)
    if fiber.kind != base.kind:
        return fiber, base
    return (table_from_exponents(exponents(fiber, base), base.kind,
                                 fiber.component_rank + base.component_rank),)


# -- verifiers ---------------------------------------------------------------

def _pair_sums(indices: Sequence[int],
               exponents_of: Callable[[int], TruncatedSeries],
               ) -> Iterator[Tuple[int, TruncatedSeries]]:
    """(i, exponents_of(i) + exponents_of(i + 2)) for each i in
    ascending order.

    Index i + 2 comes back as the first term two steps later, so each
    exponents_of(j) runs once and is dropped after its last use.
    """
    exps: Dict[int, TruncatedSeries] = {}
    for i in indices:
        for j in (i, i + 2):
            if j not in exps:
                exps[j] = exponents_of(j)
        yield i, exps.pop(i) + exps[i + 2]


def verify_negative_tower(truncation: int = 64,
                          corrupt_f_degree: Optional[int] = None,
                          ) -> VerificationReport:
    """series(X_i) = series(F_i) * series(F_(i+2)) for i = -8..5.

    The fibration behind it splits in homotopy, so the identity is exact
    at every degree.  It is checked as v(X_i) = v(F_i) + v(F_(i+2)) on
    exponent vectors read straight off the profiles by the rank rule;
    they first differ where the series do (module docstring).
    corrupt_f_degree plants an extra free rank in the F profile to
    demonstrate the check has teeth.
    """
    # i_to + 2 = 7 stays within the fiber tower's labels, which end at 8
    i_from, i_to = -8, 5
    params = {"from": i_from, "to": i_to, "max_degree": truncation}
    if corrupt_f_degree is not None:
        params["corrupt_f_degree"] = corrupt_f_degree

    def body():
        depth = max(truncation, truncation - i_from, -i_from)
        f_prof = homotopy_profile(F, depth)
        x_prof = homotopy_profile(X, depth)
        if corrupt_f_degree is not None:
            bump = make_polynomial({corrupt_f_degree: 1}, depth)
            f_prof = HomotopyProfile(F, f_prof.free_ranks + bump, {})

        def f_exponents(j):
            return _rank_rule_exponents(F, j, truncation, f_prof)

        for i, right in _pair_sums(range(i_from, i_to + 1), f_exponents):
            left = _rank_rule_exponents(X, i, truncation, x_prof)
            bad = first_mismatch(left, right)
            if bad is not None:
                return bad, {"index": i}

    return run_check("negative-tower", params, body)


def verify_bop_tower(truncation: int = 60) -> VerificationReport:
    """Structural checks on the solved BoP tower, spaces 2 through 12.

    Counts stay nonnegative, generator parity follows the space index,
    the bar walk from space 2 reproduces every later space, and H_2 of
    space 2 is one-dimensional (probed only when N >= 2, from the
    generators of degree <= 2, the only ones H_2 depends on).

    The walk is the paper's "no torsion in H_*(BoP_i) for i >= 2": pi_0
    of every space from 1 up is 0, so one bar step (bss_iterate, each
    all-even step resolved to polynomial) takes space i - 1 to space i.
    It starts from the solved space 2 and reads no later solved space,
    so it sees a wrong BPbar middle that the solver divides in.  That
    spaces 4..6 are F_i x bo_i, the paper's homotopy type for i <= 6,
    is bop6-splitting's check, which would fail at space 7: the
    catalogued bo_7 is the periodic table.

    The tower is read once; as each space arrives its parity is checked
    and, until the walk first leaves the tower (a wrong table may not
    suspend), its bar step taken.  Each stage keeps its first failure,
    and the earliest stage in the order above is reported.  Only the
    Hurewicz probe builds a series.
    """
    i_max = 12
    params = {"i_max": i_max, "max_degree": truncation}

    def body():
        first: Dict[str, Tuple[int, dict]] = {}

        def note(stage, degree, index, **more):
            if degree is not None and stage not in first:
                first[stage] = degree, {"stage": stage, "index": index, **more}

        tower = bop_tower(i_max, homotopy_profile(BPBAR, truncation),
                          homotopy_profile(F, truncation))
        try:
            # only the tower raises NegativeDimension here
            for i, table in enumerate(tower, 2):
                note("parity", off_parity(table, i % 2), i)
                if i == 2:
                    walked = table
                    low = {d: c for d, c in table.counts.items() if d <= 2}
                    probe = GeneratorTable(table.kind, low, truncation=2)
                elif "bar_agreement" not in first:
                    walked = bss_iterate(walked, [0])[0]
                    if walked != table:
                        bad, field = _first_table_mismatch(walked, table)
                        note("bar_agreement", bad, i, field=field)
        except NegativeDimension as exc:
            return exc.degree, {"stage": "tower"}
        for stage in ("parity", "bar_agreement"):
            if stage in first:
                return first[stage]
        if truncation >= 2 and poincare_series(probe).coefficient(2) != 1:
            return 2, {"stage": "hurewicz", "index": 2}

    return run_check("bop-tower", params, body)


def _first_table_mismatch(got: GeneratorTable,
                          want: GeneratorTable) -> Tuple[int, str]:
    """Where two unequal tables differ: the smallest degree whose
    generator counts differ, with field "counts"; else degree 0 and the
    first other field that differs (kind, component_rank, truncation)."""
    diffs = [d for d in set(got.counts) | set(want.counts)
             if got.count(d) != want.count(d)]
    if diffs:
        return min(diffs), "counts"
    return 0, next(field for field in ("kind", "component_rank", "truncation")
                   if getattr(got, field) != getattr(want, field))


def verify_rank_rule_bss(truncation: int = 40) -> VerificationReport:
    """The two solvers agree: bar iteration from index -6 up to 6
    reproduces the rank rule at every index, for BP and bu."""
    i_from, i_to = -6, 6
    params = {"from": i_from, "to": i_to, "max_degree": truncation}

    def body():
        for spectrum in (BP, BU):
            # deep enough for every index, so one profile serves them all
            depth = max(truncation, truncation - i_from, i_to)
            profile = homotopy_profile(spectrum, depth)
            start = _rank_rule_table(spectrum, i_from, truncation, profile)
            indices = range(i_from + 1, i_to + 1)
            walked = bss_iterate(start, [profile.free_rank(-i)
                                         for i in indices])
            for i, table in zip(indices, walked):
                expected = _rank_rule_table(spectrum, i, truncation, profile)
                if table != expected:
                    bad, field = _first_table_mismatch(table, expected)
                    return bad, {"spectrum": str(spectrum), "index": i,
                                 "field": field}

    return run_check("rank-rule-bss", params, body)


# The catalogued delooping steps of the bo tower and how exactly each is
# reproduced by one bar step.  Steps into an odd polynomial target (0 -> 1,
# 1 -> 2) and into even targets (3 -> 4, 5 -> 6) collapse only up to series,
# the former because squaring extensions turn the exterior answer
# polynomial, the latter because divided powers are left unresolved.
# The step 6 -> 7 is excluded: the catalogue holds the periodic table at
# index 7, which differs from the connective delooping of bo_6.
_BO_STEPS_EXACT = (2, 4)
_BO_STEPS_SERIES = (0, 1, 3, 5)


def verify_bo_deloopings(truncation: int = 64) -> VerificationReport:
    """One bar step reproduces each catalogued bo table along the tower:
    exactly, or up to series, where the exponent vectors of the two
    tables are compared; they first differ where the series do (module
    docstring)."""
    params = {"max_degree": truncation,
              "exact_steps": list(_BO_STEPS_EXACT),
              "series_steps": list(_BO_STEPS_SERIES)}

    def body():
        bo_prof = homotopy_profile(BO, truncation)
        for i in sorted(_BO_STEPS_EXACT + _BO_STEPS_SERIES):
            source = bo_space_homology(i, truncation)
            target = bo_space_homology(i + 1, truncation)
            next_components = bo_prof.free_rank(-(i + 1))
            stepped = tor_suspend(source, next_components)
            if i in _BO_STEPS_EXACT:
                if stepped != target:
                    bad, field = _first_table_mismatch(stepped, target)
                    return bad, {"step": f"{i}->{i + 1}",
                                 "mode": "exact", "field": field}
            else:
                bad = first_mismatch(exponents(stepped), exponents(target))
                if bad is not None:
                    return bad, {"step": f"{i}->{i + 1}",
                                 "mode": "series"}

    return run_check("bo-deloopings", params, body)


def verify_bu_bo_factorization(truncation: int = 100) -> VerificationReport:
    """series(bu_2) = series(bo_2) * series(bo_4), the homology shadow of
    the classical fibration relating BU to BO and BSp.

    It is checked as v(bu_2) = v(bo_2) + v(bo_4) on exponent vectors,
    bu_2's read off its profile by the rank rule as verify_negative_tower
    reads F's and X's, bo's built from the tables."""
    params = {"max_degree": truncation}

    def body():
        left = _rank_rule_exponents(BU, 2, truncation,
                                    homotopy_profile(BU, truncation))
        right = exponents(bo_space_homology(2, truncation),
                          bo_space_homology(4, truncation))
        bad = first_mismatch(left, right)
        if bad is not None:
            return bad, None

    return run_check("bu-bo-factorization", params, body)
