import itertools
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bopcalc import catalog as catalog_mod
from bopcalc import series as series_mod
from bopcalc import towers as towers_mod
from bopcalc.algebra import (
    GeneratorTable,
    exponents,
    poincare_series,
)
from bopcalc.catalog import (
    BO,
    BOP,
    BP,
    BPBAR,
    BU,
    CATALOGUED_SPECTRA,
    F,
    X,
    SpaceRef,
    bo_space_homology,
    homotopy_profile,
)
from bopcalc.cli import main
from bopcalc.errors import (
    InvalidParameter,
    NegativeDimension,
    RankRuleInapplicable,
    TruncationError,
    UnresolvedExtension,
)
from bopcalc.series import geometric, make_polynomial, one
from bopcalc.towers import (
    TowerResult,
    bop_tower,
    bss_iterate,
    rank_rule_homology,
    ses_quotient,
    space_homology,
    verify_bo_deloopings,
    verify_bop_tower,
    verify_bu_bo_factorization,
    verify_negative_tower,
    verify_rank_rule_bss,
)


def test_rank_rule_reads_profile_with_index_shift():
    table = rank_rule_homology(SpaceRef(F, 2), 12)
    assert table.counts == oracles.F2_GENERATORS
    assert table.kind == "polynomial"
    assert table.component_rank == 0
    # index 4: same ranks shifted two degrees further up
    table4 = rank_rule_homology(SpaceRef(F, 4), 18)
    assert table4.counts == {10: 1, 12: 1, 14: 1, 16: 2, 18: 3}


def test_rank_rule_negative_index_components():
    prof = homotopy_profile(BP, 12)
    table = rank_rule_homology(SpaceRef(BP, -2), 8)
    assert table.component_rank == prof.free_rank(2) == 1
    assert table.counts == {d: prof.free_rank(d + 2)
                            for d in range(1, 9) if prof.free_rank(d + 2)}


RANK_RULE_SPECTRA = [s for s in CATALOGUED_SPECTRA
                     if s.tag in towers_mod._RANK_RULE_TAGS]


def test_rank_rule_spectra_cover_every_tag():
    assert {s.tag for s in RANK_RULE_SPECTRA} == \
        set(towers_mod._RANK_RULE_TAGS)


@pytest.mark.parametrize("n", [0, 1, 7, 64])
@pytest.mark.parametrize("spectrum", RANK_RULE_SPECTRA, ids=str)
def test_rank_rule_table_is_a_slice_of_the_profile(spectrum, n):
    # the sliced counts are the per-degree reading of the profile, from
    # a profile exactly as deep as the table needs and from a deeper one
    for i in range(-8, 9):
        depth = max(n, n - i, -i, 0)
        for extra in (0, 3):
            prof = homotopy_profile(spectrum, depth + extra)
            got = towers_mod._rank_rule_table(spectrum, i, n, prof)
            want = {d: prof.free_rank(d - i) for d in range(1, n + 1)
                    if prof.free_rank(d - i)}
            assert (got.counts, got.component_rank, got.truncation) == \
                (want, prof.free_rank(-i), n), (i, extra)


@pytest.mark.parametrize("n, index", [(10, 0), (10, 3), (10, -3), (0, -2),
                                      (1, -2)])
def test_rank_rule_table_rejects_a_short_profile(n, index):
    # one degree short of truncation - index, the deepest degree read
    short = homotopy_profile(BP, n - index - 1)
    with pytest.raises(TruncationError):
        towers_mod._rank_rule_table(BP, index, n, short)


def test_rank_rule_kind_by_index_parity():
    assert rank_rule_homology(SpaceRef(BP, 4), 10).kind == "polynomial"
    assert rank_rule_homology(SpaceRef(BP, 3), 10).kind == "exterior"
    assert rank_rule_homology(SpaceRef(F, 7), 20).kind == "exterior"
    assert rank_rule_homology(SpaceRef(F, 8), 20).kind == "even_unresolved"
    assert rank_rule_homology(SpaceRef(X, 8), 20).kind == "even_unresolved"


def test_rank_rule_out_of_range():
    with pytest.raises(RankRuleInapplicable):
        rank_rule_homology(SpaceRef(F, 9), 20)
    with pytest.raises(RankRuleInapplicable):
        rank_rule_homology(SpaceRef(X, 9), 20)
    for torsional in (BO, BOP):
        with pytest.raises(RankRuleInapplicable):
            rank_rule_homology(SpaceRef(torsional, 2), 10)


def test_bss_iterate_walks_bu():
    n = 16
    prof = homotopy_profile(BU, n)
    start = rank_rule_homology(SpaceRef(BU, 0), n)
    walked = bss_iterate(start, [prof.free_rank(-1), prof.free_rank(-2),
                                 prof.free_rank(-3)])
    assert len(walked) == 3
    for i, table in enumerate(walked, 1):
        assert table == rank_rule_homology(SpaceRef(BU, i), n)


def test_bss_iterate_validation():
    t = GeneratorTable("polynomial", {2: 1}, truncation=8)
    assert bss_iterate(t, []) == []
    # the walk's length is the number of component ranks
    assert [w.kind for w in bss_iterate(t, [0, 0, 0])] == [
        "exterior", "polynomial", "exterior"]
    # an odd divided-power step is not resolved, so the next one is blocked
    odd_start = GeneratorTable("exterior", {2: 1}, truncation=8)
    (step,) = bss_iterate(odd_start, [0])
    assert (step.kind, step.counts) == ("divided_power", {3: 1})
    with pytest.raises(UnresolvedExtension):
        bss_iterate(odd_start, [0, 0])


def test_tower_result_validation():
    t = GeneratorTable("polynomial", {2: 1}, truncation=8)
    with pytest.raises(InvalidParameter):
        TowerResult(SpaceRef(BU, 0), (t,), "guesswork")


def test_ses_quotient():
    n = 20
    middle = geometric(2, n) * geometric(4, n)
    assert ses_quotient(middle, geometric(4, n)) == geometric(2, n)
    with pytest.raises(NegativeDimension) as info:
        ses_quotient(make_polynomial({0: 1, 2: 1}, 8),
                     make_polynomial({0: 1, 2: 2}, 8))
    assert info.value.degree == 2


def test_bop_tower_shape_and_products():
    tables = dict(enumerate(bop_tower(6, 24), 2))
    assert list(tables) == [2, 3, 4, 5, 6]
    assert [space_homology(SpaceRef(BOP, i), 24).provenance
            for i in tables] == \
        ["product", "product", "ses_solved", "ses_solved", "ses_solved"]
    # space 2 is the fiber table times the classical one
    want2 = oracles.naive_tensor(rank_rule_homology(SpaceRef(F, 2), 24),
                                 bo_space_homology(2, 24))
    assert tables[2] == want2
    # frozen low-degree generator counts of space 4, from the quotient
    counts4 = tables[4].counts
    assert {d: counts4[d] for d in sorted(counts4) if d <= 16} == \
        {4: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 3}
    # parity alternates with the space index
    for i, table in tables.items():
        assert all(d % 2 == i % 2 for d in table.counts)
    with pytest.raises(InvalidParameter):
        bop_tower(1, 8)


def test_bop_space_low_indices():
    even = space_homology(SpaceRef(BOP, 0), 12)
    assert even.provenance == "product"
    assert even.table is not None
    assert even.series == poincare_series(even.table)
    odd = space_homology(SpaceRef(BOP, 1), 12)
    assert odd.table is None
    assert odd.provenance == "product"
    assert odd.series.coefficient(0) == 1
    solved = space_homology(SpaceRef(BOP, 4), 16)
    assert solved.provenance == "ses_solved"
    assert solved.table.counts[4] == 1


def _expected_space(space, n, periodic):
    """(tables, provenance) of a space, by the rule its spectrum takes."""
    tag, i = space.spectrum.tag, space.index
    if tag == "bo":
        return (bo_space_homology(i, n, periodic),), "catalog"
    if tag == "BoP" and i >= 2:
        return ((list(bop_tower(i, n))[-1],),
                "product" if i <= 3 else "ses_solved")
    if tag == "BoP":
        fiber = rank_rule_homology(SpaceRef(F, i), n)
        base = bo_space_homology(i, n)
        tables = ((oracles.naive_tensor(fiber, base),)
                  if fiber.kind == base.kind else (fiber, base))
        return tables, "product"
    provenance = "catalog" if tag == "bu" else "rank_rule"
    return (rank_rule_homology(space, n),), provenance


@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_space_homology_picks_each_spectrums_rule(n):
    assert {s.tag for s in CATALOGUED_SPECTRA} == {
        "BP", "BPbar", "BPn", "bu", "bo", "BoP", "F", "X"}
    for spectrum in CATALOGUED_SPECTRA:
        for i in range(-9, 13):
            space = SpaceRef(spectrum, i)
            for periodic in (False, True):
                if spectrum.tag == "bo" and i >= 8 and not periodic:
                    with pytest.raises(InvalidParameter):
                        space_homology(space, n, periodic)
                    continue
                if spectrum.tag in ("F", "X") and i > 8:
                    with pytest.raises(RankRuleInapplicable):
                        space_homology(space, n, periodic)
                    continue
                got = space_homology(space, n, periodic)
                assert got.space == space
                assert (got.tables, got.provenance) == \
                    _expected_space(space, n, periodic), (space, periodic)
    # bo at 4..7 follows the flag; the two towers differ from 4 to 6
    for i in range(4, 8):
        conn, per = (space_homology(SpaceRef(BO, i), 40, periodic).table
                     for periodic in (False, True))
        assert per == bo_space_homology(i, 40, periodic=True)
        assert (conn != per) == (i != 7)


def test_verifiers_pass_at_reference_scales():
    assert verify_negative_tower(32).passed
    assert verify_bop_tower(32).passed
    assert verify_rank_rule_bss(24).passed
    assert verify_bo_deloopings(32).passed
    assert verify_bu_bo_factorization(48).passed


@pytest.mark.parametrize("degree", [1, 4, 7, 12, 30, 48])
def test_bu_bo_factorization_names_first_broken_degree(monkeypatch, degree):
    # one extra generator in bo_4 at `degree`: the report must fail where
    # the naive product of the bo_2 and bo_4 series first leaves bu_2's
    n = 48
    real = towers_mod.bo_space_homology

    def planted(index, truncation, periodic=False):
        table = real(index, truncation, periodic)
        if index != 4:
            return table
        counts = dict(table.counts)
        counts[degree] = counts.get(degree, 0) + 1
        return GeneratorTable(table.kind, counts, table.component_rank,
                              table.truncation)

    def series_dict(table):
        coeffs = oracles.table_series(table.counts,
                                      table.kind == "exterior", n)
        return {d: c for d, c in enumerate(coeffs) if c}

    monkeypatch.setattr(towers_mod, "bo_space_homology", planted)
    product = oracles.naive_mul(series_dict(planted(2, n)),
                                series_dict(planted(4, n)), n)
    bu2 = series_dict(rank_rule_homology(SpaceRef(BU, 2), n))
    want = min(d for d in range(n + 1) if product.get(d) != bu2.get(d))
    report = verify_bu_bo_factorization(n)
    assert not report.passed
    assert report.first_failure_degree == want


def test_negative_tower_corruption_is_detected():
    report = verify_negative_tower(32, corrupt_f_degree=7)
    assert not report.passed
    assert report.first_failure_degree == 1
    assert report.parameters["corrupt_f_degree"] == 7


def test_report_parameter_echo():
    report = verify_rank_rule_bss(12)
    assert report.parameters == {"from": -6, "to": 6, "max_degree": 12}
    assert report.check == "rank-rule-bss"


def _nonzero(coeffs):
    return {d: c for d, c in enumerate(coeffs) if c}


def _oracle_bop_tower(n, middle_table, i_max=12):
    """bop_tower(i_max, n) in series space: index -> (series
    coefficients, generator counts), or the degree of the first
    NegativeDimension.  Quotients are naive_mul by naive_invert, tables
    are naive_peel."""
    out = {}
    for i in (2, 3):
        table = oracles.naive_tensor(rank_rule_homology(SpaceRef(F, i), n),
                                     bo_space_homology(i, n))
        out[i] = (oracles.table_series(table.counts, i % 2 == 1, n),
                  table.counts)
    for i in range(4, i_max + 1):
        mid = middle_table(SpaceRef(BPBAR, i - 2), n)
        q = oracles.naive_mul(
            _nonzero(oracles.table_series(mid.counts, i % 2 == 1, n)),
            oracles.naive_invert(_nonzero(out[i - 2][0]), n), n)
        coeffs = [q.get(d, 0) for d in range(n + 1)]
        negative = [d for d, c in enumerate(coeffs) if c < 0]
        if negative:
            return negative[0]
        counts, bad = oracles.naive_peel(coeffs, i % 2 == 1)
        if bad is not None:
            return bad
        out[i] = (coeffs, counts)
    return out


@pytest.mark.parametrize("n", range(41))
def test_bop_tower_matches_series_space_oracle(n):
    # through space N + 12, past N + 2, where the tower stops solving;
    # each shorter tower is a prefix of the longest one
    i_max = n + 12
    want = _oracle_bop_tower(n, rank_rule_homology, i_max)
    got = list(bop_tower(i_max, n))
    assert len(got) == i_max - 1
    for i, table in enumerate(got, 2):
        coeffs, counts = want[i]
        assert list(poincare_series(table).coefficients) == coeffs
        assert table == GeneratorTable(
            "polynomial" if i % 2 == 0 else "exterior", counts, 0, n), i
    for i in range(2, i_max):
        assert list(bop_tower(i, n)) == got[:i - 1], i


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10),
       st.dictionaries(st.integers(1, 30), st.integers(-2, 2), min_size=1,
                       max_size=4))
# Space 4 then starts (1-x^6)(1-x^8)/(1-x^2) = 1 + x^2 + x^4 - x^8 ...:
# its counts first go negative at degree 6, its series at 8, and the
# series is checked first.
@example(index=2, changes={2: 1, 4: -1, 6: -1, 8: -2})
def test_perturbed_middle_fails_where_the_oracle_does(index, changes):
    # one BPbar middle gains or loses generators: the solver and the
    # series-space oracle agree on the tower, or fail at the same degree
    n = 30

    def middle_table(space, truncation):
        table = rank_rule_homology(space, truncation)
        if space != SpaceRef(BPBAR, index):
            return table
        counts = dict(table.counts)
        for degree, delta in changes.items():
            counts[degree] = max(counts.get(degree, 0) + delta, 0)
        return GeneratorTable(table.kind, counts, table.component_rank,
                              truncation)

    real = towers_mod._rank_rule_exponents

    def middle_exponents(spectrum, i, truncation, profile):
        if (spectrum, i) != (BPBAR, index):
            return real(spectrum, i, truncation, profile)
        return exponents(middle_table(SpaceRef(spectrum, i), truncation))

    want = _oracle_bop_tower(n, middle_table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers_mod, "_rank_rule_exponents", middle_exponents)
        if isinstance(want, int):
            with pytest.raises(NegativeDimension) as info:
                list(bop_tower(12, n))
            assert info.value.degree == want
        else:
            got = list(bop_tower(12, n))
            assert {i: (list(poincare_series(t).coefficients), t.counts)
                    for i, t in enumerate(got, 2)} == want


def _oracle_negative_tower(n, bump, i_from=-8, i_to=5):
    """(first failure degree, index) of verify_negative_tower with the F
    rank at degree bump raised by one, from naive_mul of series; None
    when every index passes."""
    depth = max(n, n - i_from, -i_from)
    f_prof = homotopy_profile(F, depth)
    x_prof = homotopy_profile(X, depth)

    def series(rank, j):
        counts = {d: rank(d - j) for d in range(1, n + 1) if rank(d - j)}
        return oracles.table_series(counts, j % 2 == 1, n)

    def f_rank(k):
        return f_prof.free_rank(k) + (k == bump)

    for i in range(i_from, i_to + 1):
        left = series(x_prof.free_rank, i)
        right = oracles.naive_mul(_nonzero(series(f_rank, i)),
                                  _nonzero(series(f_rank, i + 2)), n)
        diffs = [d for d in range(n + 1) if left[d] != right.get(d, 0)]
        if diffs:
            return diffs[0], i
    return None


@pytest.mark.parametrize("n", [0, 5, 20])
def test_negative_tower_fault_sweep_matches_oracle(n):
    for bump in range(max(n, n + 8, 8) + 1):
        report = verify_negative_tower(n, corrupt_f_degree=bump)
        want = _oracle_negative_tower(n, bump)
        if want is None:
            assert report.passed, bump
        else:
            assert (report.first_failure_degree,
                    report.detail["index"]) == want, bump


@pytest.mark.parametrize("index", range(2, 13))
def test_bop_tower_reconstruction_reads_the_returned_tables(monkeypatch,
                                                            index):
    # one returned table gains a generator of its space's parity while
    # the solver's own exponents stay right: the reconstruction
    # must see it, at that degree, at the first pair holding that space
    real = towers_mod.bop_tower
    degree = 10 if index % 2 == 0 else 9

    def corrupted(i_max, truncation):
        return [_plant(t, degree) if i == index else t
                for i, t in enumerate(real(i_max, truncation), 2)]

    monkeypatch.setattr(towers_mod, "bop_tower", corrupted)
    report = verify_bop_tower(32)
    assert not report.passed
    assert report.first_failure_degree == degree
    assert report.detail == {"stage": "reconstruction",
                             "index": index - 2 if index >= 4 else index}


@pytest.mark.parametrize("index, kind, counts, want", [
    (2, "polynomial", {3: 1, 5: 2}, 3),
    (2, "polynomial", {2: 1, 3: 1}, 3),
    (3, "exterior", {6: 1}, 6),
    (3, "exterior", {3: 1, 4: 1}, 4),
])
def test_bop_tower_parity_stage_finds_a_planted_table(monkeypatch, index,
                                                      kind, counts, want):
    # the space's table is replaced by one with a generator of the wrong
    # parity: the parity stage names the lowest such degree, whether the
    # table is all wrong or mixed
    real = towers_mod.bop_tower
    n = 30

    def planted(i_max, truncation):
        return [GeneratorTable(kind, counts, truncation=n) if i == index
                else t for i, t in enumerate(real(i_max, truncation), 2)]

    monkeypatch.setattr(towers_mod, "bop_tower", planted)
    report = verify_bop_tower(n)
    assert not report.passed
    assert report.first_failure_degree == want
    assert report.detail == {"stage": "parity", "index": index}


@pytest.mark.parametrize("plants, want", [
    # space 3 has the wrong parity (and breaks the reconstruction of
    # BPbar_3), then the tower raises further up: the tower stage wins
    ({3: GeneratorTable("exterior", {4: 1}, truncation=30),
      9: NegativeDimension(7)}, (7, {"stage": "tower"})),
    # the reconstruction of BPbar_2 breaks at space 4, and space 11
    # arrives later with the wrong parity: the parity stage wins
    ({4: 10, 11: GeneratorTable("exterior", {6: 1}, truncation=30)},
     (6, {"stage": "parity", "index": 11})),
])
def test_bop_tower_check_reports_the_earliest_stage_of_a_stream(
        monkeypatch, plants, want):
    # the check reads the tower once, so a later stage can fail before
    # an earlier one has seen every space; the report is still the
    # earliest stage's first failure
    real = towers_mod.bop_tower

    def planted(i_max, truncation):
        for i, table in enumerate(real(i_max, truncation), 2):
            plant = plants.get(i, table)
            if isinstance(plant, Exception):
                raise plant
            yield _plant(table, plant) if isinstance(plant, int) else plant

    monkeypatch.setattr(towers_mod, "bop_tower", planted)
    report = verify_bop_tower(30)
    assert (report.first_failure_degree, report.detail) == want


def test_first_table_mismatch_names_the_field():
    base = GeneratorTable("polynomial", {2: 1, 4: 3}, 1, 8)
    cases = [
        (GeneratorTable("polynomial", {2: 1, 4: 2}, 1, 8), (4, "counts")),
        (GeneratorTable("polynomial", {2: 1, 4: 3, 6: 1}, 0, 8),
         (6, "counts")),
        (GeneratorTable("even_unresolved", {2: 1, 4: 3}, 1, 8),
         (0, "kind")),
        (GeneratorTable("polynomial", {2: 1, 4: 3}, 2, 8),
         (0, "component_rank")),
        (GeneratorTable("polynomial", {2: 1, 4: 3}, 1, 9),
         (0, "truncation")),
    ]
    for other, want in cases:
        assert towers_mod._first_table_mismatch(other, base) == want


def _plant(table, degree):
    """The table with one more generator in the given degree."""
    counts = dict(table.counts)
    counts[degree] = counts.get(degree, 0) + 1
    return GeneratorTable(table.kind, counts, table.component_rank,
                          table.truncation)


def _bump_rank(table):
    return GeneratorTable(table.kind, table.counts, table.component_rank + 1,
                          table.truncation)


def test_bo_deloopings_reports_the_differing_field(monkeypatch):
    real_suspend = towers_mod.tor_suspend
    monkeypatch.setattr(towers_mod, "tor_suspend",
                        lambda t, r=0: _bump_rank(real_suspend(t, r)))
    report = verify_bo_deloopings(32)
    assert not report.passed
    assert report.first_failure_degree == 0
    assert report.detail == {"step": "2->3", "mode": "exact",
                             "field": "component_rank"}


def test_rank_rule_bss_reports_the_differing_field(monkeypatch):
    real_iterate = towers_mod.bss_iterate

    def kind_changed(*args, **kwargs):
        return [GeneratorTable("even_unresolved" if t.kind == "polynomial"
                               else t.kind,
                               t.counts, t.component_rank, t.truncation)
                for t in real_iterate(*args, **kwargs)]

    monkeypatch.setattr(towers_mod, "bss_iterate", kind_changed)
    report = verify_rank_rule_bss(12)
    assert not report.passed
    assert report.first_failure_degree == 0
    assert report.detail == {"spectrum": "BP", "index": -4, "field": "kind"}


@pytest.mark.parametrize("n", [0, 1, 2, 23, 40])
def test_bop_space_is_the_last_space_of_the_tower(n):
    for i in range(2, 13):
        got = space_homology(SpaceRef(BOP, i), n)
        assert got.space == SpaceRef(BOP, i)
        assert got.tables == (list(bop_tower(i, n))[-1],)
        assert got.provenance == ("product" if i <= 3 else "ses_solved")


def test_bop_space_runs_one_euler_pass(monkeypatch):
    # nothing is built until the series is read; then only space 12's
    # series is, from its table
    calls = []
    real = towers_mod.poincare_series

    def counted(*tables):
        calls.append(tables)
        return real(*tables)

    monkeypatch.setattr(towers_mod, "poincare_series", counted)
    res = space_homology(SpaceRef(BOP, 12), 64)
    assert calls == []
    assert res.series == real(res.table)
    assert calls == [(res.table,)]


def test_bop_tower_builds_no_series_until_one_is_read(monkeypatch):
    calls = []
    for module, name in ((series_mod, "_euler"),
                         (towers_mod, "poincare_series")):
        def counted(*args, name=name, real=getattr(module, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert len(list(bop_tower(12, 64))) == 11 and calls == []
    space_homology(SpaceRef(BOP, 12), 64).series
    assert calls == ["poincare_series", "_euler"]


@pytest.mark.parametrize("n", [0, 1, 7, 64])
def test_bop_space_below_two_matches_naive_product(n):
    for i in range(-8, 2):
        fiber = rank_rule_homology(SpaceRef(F, i), n)
        base = bo_space_homology(i, n)
        want = oracles.naive_mul(
            _nonzero(oracles.table_series(fiber.counts,
                                          fiber.kind == "exterior", n)),
            _nonzero(oracles.table_series(base.counts,
                                          base.kind == "exterior", n)), n)
        got = space_homology(SpaceRef(BOP, i), n)
        assert list(got.series.coefficients) == \
            [want.get(d, 0) for d in range(n + 1)], i


def test_bop_tower_check_builds_only_the_hurewicz_series(monkeypatch):
    # every exponent vector comes from a table; the one series built is
    # space 2's, for the Hurewicz probe
    calls = []
    for module, name in ((series_mod, "_log_derivative"),
                         (towers_mod, "poincare_series")):
        def counted(*args, name=name, real=getattr(module, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert verify_bop_tower(64).passed
    assert calls == ["poincare_series"]


def test_bop_tower_check_builds_each_profile_once(monkeypatch):
    # the BPbar middles and the fiber spaces share one profile per
    # spectrum: BP's product (under BPbar) and BoP's (under F) run once
    firsts = []
    real = catalog_mod.product_over

    def counted(degrees, truncation):
        degrees = iter(degrees)
        first = next(degrees)
        firsts.append(first)
        return real(itertools.chain([first], degrees), truncation)

    monkeypatch.setattr(catalog_mod, "product_over", counted)
    homotopy_profile.cache_clear()
    assert verify_bop_tower(64).passed
    assert sorted(firsts) == [2, 4]  # BP's v_1 degree, BoP's first


@pytest.mark.parametrize("op, kept, passes", [
    (lambda: verify_bop_tower(1024), [(BPBAR, 1024), (F, 1024)], 20),
    (lambda: verify_negative_tower(1024), [(F, 1032), (X, 1032)], 21),
    (lambda: space_homology(SpaceRef(BOP, 12), 1032).series,
     [(BPBAR, 1032), (F, 1032)], 20),
], ids=["bop-tower", "negative-tower", "homology-BoP-12"])
def test_tower_ops_cache_only_the_profiles_they_read(monkeypatch, op, kept,
                                                     passes):
    # BP under BPbar, BoP and bo under F, and BPbar, BP and bu under X are
    # built once each and dropped: the binomial passes of a cache that
    # kept them all, and 2 profiles cached where 5, 7 and 5 were
    degrees = []
    real = series_mod._binomial_pass

    def counted(coeffs, degree, sign, power):
        degrees.append(degree)
        real(coeffs, degree, sign, power)

    monkeypatch.setattr(series_mod, "_binomial_pass", counted)
    homotopy_profile.cache_clear()
    op()
    assert len(degrees) == passes
    info = homotopy_profile.cache_info()
    assert info.currsize == 2
    for spectrum, n in kept:
        homotopy_profile(spectrum, n)
    assert homotopy_profile.cache_info().hits == info.hits + 2


def test_rank_rule_bss_check_builds_one_profile_per_spectrum():
    # one profile deep enough for index -6 serves every index it checks
    homotopy_profile.cache_clear()
    assert verify_rank_rule_bss(40).passed
    assert homotopy_profile.cache_info().misses == 2


@pytest.mark.parametrize("n", [0, 1, 2, 3, 32])
def test_bop_tower_hurewicz_stage_finds_a_planted_series(monkeypatch, n):
    # a Poincare series with two classes in degree 2: the probe, the one
    # series the check builds, must fail there once N reaches 2
    real = towers_mod.poincare_series

    def planted(*tables):
        return real(*tables) + make_polynomial({2: 1}, tables[0].truncation)

    monkeypatch.setattr(towers_mod, "poincare_series", planted)
    report = verify_bop_tower(n)
    if n < 2:
        assert report.passed
    else:
        assert not report.passed
        assert report.first_failure_degree == 2
        assert report.detail == {"stage": "hurewicz", "index": 2}


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
def test_bop_tower_hurewicz_probe_agrees_with_the_full_table(monkeypatch, n):
    # the probe keeps the generators of degree <= 2 at truncation 2; its
    # H_2 is the full space-2 table's
    probes = []
    real = towers_mod.poincare_series

    def recorded(*tables):
        probes.append(tables)
        return real(*tables)

    monkeypatch.setattr(towers_mod, "poincare_series", recorded)
    assert verify_bop_tower(n).passed
    (probe,) = probes
    assert [t.truncation for t in probe] == [2]
    (space2,) = bop_tower(2, n)
    assert real(*probe).coefficient(2) == real(space2).coefficient(2) == 1


@pytest.mark.parametrize("degree", [2, 4, 6, 8, 14, 20, 32])
def test_bop_tower_product_crosscheck_finds_a_planted_bo_generator(
        monkeypatch, degree):
    # the product description of space 4 gains one generator; the
    # solved tower does not see it, so only the cross-check can fail,
    # at the first degree where the naive product leaves the tower
    n = 32
    real = towers_mod.bo_space_homology

    def planted(index, truncation):
        table = real(index, truncation)
        if index != 4:
            return table
        counts = dict(table.counts)
        counts[degree] = counts.get(degree, 0) + 1
        return GeneratorTable(table.kind, counts, table.component_rank,
                              truncation)

    monkeypatch.setattr(towers_mod, "bo_space_homology", planted)
    report = verify_bop_tower(n)
    fiber = rank_rule_homology(SpaceRef(F, 4), n)
    base = planted(4, n)
    product = oracles.naive_mul(
        _nonzero(oracles.table_series(fiber.counts,
                                      fiber.kind == "exterior", n)),
        _nonzero(oracles.table_series(base.counts,
                                      base.kind == "exterior", n)), n)
    space4 = _oracle_bop_tower(n, rank_rule_homology)[4][0]
    want = next(d for d in range(n + 1) if product.get(d, 0) != space4[d])
    assert not report.passed
    assert report.first_failure_degree == want
    assert report.detail == {"stage": "product_crosscheck", "index": 4}


def test_rank_rule_bss_builds_no_series(monkeypatch):
    # the check compares tables only
    calls = []
    monkeypatch.setattr(towers_mod, "poincare_series",
                        lambda *tables: calls.append(tables))
    assert verify_rank_rule_bss(64).passed
    assert calls == []


def test_tower_result_reads_its_series_off_its_tables():
    t = GeneratorTable("polynomial", {2: 1, 4: 2}, truncation=12)
    odd = GeneratorTable("exterior", {3: 1, 5: 1}, truncation=12)
    lazy = TowerResult(SpaceRef(BU, 0), (t,), "rank_rule")
    assert lazy.table == t
    assert lazy.series == poincare_series(t)
    assert lazy.series == lazy.series
    assert lazy == TowerResult(SpaceRef(BU, 0), (t,), "rank_rule")
    pair = TowerResult(SpaceRef(BOP, 1), (t, odd), "product")
    assert pair.table is None
    assert pair.series == poincare_series(t, odd)
    with pytest.raises(AttributeError):
        lazy.height
    with pytest.raises(InvalidParameter):
        TowerResult(SpaceRef(BU, 0), (), "rank_rule")


def test_tower_result_repr_eq_and_hash_build_no_series(monkeypatch):
    calls = []
    monkeypatch.setattr(towers_mod, "poincare_series",
                        lambda *tables: calls.append(tables))
    t = GeneratorTable("polynomial", {2: 1, 4: 2}, truncation=12)
    res, twin = (TowerResult(SpaceRef(BU, 0), (t,), "rank_rule")
                 for _ in range(2))
    assert "tables=" in repr(res) and "series" not in repr(res)
    assert res == twin
    with pytest.raises(TypeError):
        hash(res)  # a GeneratorTable is unhashable
    assert calls == []


@pytest.mark.parametrize("degree", [3, 5, 8, 13, 20])
@pytest.mark.parametrize("target", [1, 2, 4, 6])
def test_bo_deloopings_series_mode_finds_a_planted_generator(monkeypatch,
                                                             target, degree):
    # a series-mode step compares exponents; a generator planted in its
    # target shows at its degree, before any later step reads that table
    real = towers_mod.bo_space_homology

    def planted(index, truncation):
        table = real(index, truncation)
        return _plant(table, degree) if index == target else table

    monkeypatch.setattr(towers_mod, "bo_space_homology", planted)
    report = verify_bo_deloopings(32)
    assert not report.passed
    assert report.first_failure_degree == degree
    assert report.detail == {"step": f"{target - 1}->{target}",
                             "mode": "series"}


def test_bo_deloopings_builds_no_series(monkeypatch):
    calls = []
    monkeypatch.setattr(towers_mod, "poincare_series",
                        lambda *tables: calls.append(tables))
    assert verify_bo_deloopings(64).passed
    assert calls == []


@pytest.mark.parametrize("spectrum", RANK_RULE_SPECTRA, ids=str)
def test_rank_rule_exponents_are_the_tables(spectrum):
    # one rule behind both readers, at every index around 0..N, index
    # above N included; F and X refuse index 9 either way
    for n in range(21):
        for index in range(-9, 10):
            profile = homotopy_profile(spectrum,
                                       max(n, n - index, -index, 0))
            args = (spectrum, index, n, profile)
            try:
                table = towers_mod._rank_rule_table(*args)
            except RankRuleInapplicable:
                with pytest.raises(RankRuleInapplicable):
                    towers_mod._rank_rule_exponents(*args)
                continue
            assert towers_mod._rank_rule_exponents(*args) == \
                exponents(table), (n, index)


def _rank_rule_tables_built(monkeypatch):
    """The list of spaces rank_rule_homology is asked for from now on."""
    calls = []
    real = towers_mod.rank_rule_homology

    def counted(space, truncation):
        calls.append(space)
        return real(space, truncation)

    monkeypatch.setattr(towers_mod, "rank_rule_homology", counted)
    return calls


def test_bop_tower_reads_its_fiber_spaces_off_the_profile(monkeypatch):
    # the fiber factors of spaces 2 and 3, like the BPbar middles, are
    # read off their profile as exponents: no rank-rule table is built
    calls = _rank_rule_tables_built(monkeypatch)
    assert len(list(bop_tower(12, 1024))) == 11
    assert calls == []


def test_tower_checks_build_no_rank_rule_table(monkeypatch):
    # the space-4 cross-check and bu_2 read their exponents off profiles
    calls = _rank_rule_tables_built(monkeypatch)
    assert verify_bop_tower(256).passed
    assert verify_bu_bo_factorization(256).passed
    assert calls == []


def test_bop_tower_solves_nothing_above_n_plus_two(monkeypatch, capsys):
    # space i is (i-1)-connected, so past N + 2 every space is the empty
    # table of its kind; neither a huge index nor a long tower solves one
    n = 10
    calls = []
    real = towers_mod.table_from_exponents

    def counted(v, kind):
        calls.append(kind)
        if len(calls) > n + 2:
            raise AssertionError("a space above N + 2 was solved")
        return real(v, kind)

    walked = []
    real_tower = towers_mod.bop_tower

    def recorded(i_max, truncation):
        walked.append(i_max)
        return real_tower(i_max, truncation)

    monkeypatch.setattr(towers_mod, "table_from_exponents", counted)
    monkeypatch.setattr(towers_mod, "bop_tower", recorded)
    assert main(["homology", "BoP", "1000000", "-N", str(n),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["table"]["generators"] == []
    assert len(calls) <= n + 2 and walked == []
    calls.clear()
    tables = list(bop_tower(10 * n, n))
    assert len(calls) <= n + 2
    for i, table in enumerate(tables[n + 1:], n + 3):
        assert table == GeneratorTable(
            "polynomial" if i % 2 == 0 else "exterior", {}, 0, n), i


def test_bop_space_memory_does_not_grow_with_the_index():
    # the tower holds two exponent vectors whatever the index, so with
    # the profiles built, space 60's solve peaks where space 12's does
    def peak(i):
        space_homology(SpaceRef(BOP, i), 256)
        tracemalloc.start()
        try:
            space_homology(SpaceRef(BOP, i), 256)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(60) <= 1.1 * peak(12)


@pytest.mark.parametrize("op, bound_kb", [
    (lambda: verify_bop_tower(1032), 300),
    (lambda: space_homology(SpaceRef(BOP, 12), 1032).series, 250),
], ids=["bop-tower", "homology-BoP-12"])
def test_tower_ops_hold_only_what_they_read_again(op, bound_kb):
    # from a cleared cache, CPython 3.10-3.13: the check peaks at 242-254
    # KB and the solve at 190-205 KB, where caching every intermediate
    # profile, holding two copies of each table's counts and the space-4
    # product to the end read 360-381 and 292-312 KB
    homotopy_profile.cache_clear()
    tracemalloc.start()
    try:
        op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_kb * 1024
