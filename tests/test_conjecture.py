import functools
import gc
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mutants
import oracles
from bopcalc import conjecture as conjecture_mod
from bopcalc.catalog import BP, homotopy_profile
from bopcalc.cli import main
from bopcalc.conjecture import (
    _band_data,
    bop_cohomology_series,
    conjectured_bopn_cohomology,
    epsilon,
    first_appearance,
    milnor_quotient_series,
    milnor_sq2_quotient_series,
    square_monomial,
    steenrod_series,
    summand_suspensions,
    verify_conjecture_shape,
    verify_epsilon_partition,
    verify_first_appearance,
    verify_square_decompositions,
    verify_stable_limit,
)
from bopcalc.errors import (
    ConjectureShapeError,
    InvalidParameter,
    NotApplicable,
)
from bopcalc.reports import first_mismatch
from bopcalc.series import TruncatedSeries, make_polynomial


def test_steenrod_series_matches_monomial_count():
    n = 24
    series = steenrod_series(n)
    want = oracles.steenrod_dims(n)
    assert list(series.coefficients) == want
    assert want[:5] == oracles.STEENROD_DIMS_0_4


def test_milnor_quotient_frozen_rows():
    row = milnor_quotient_series(1, 8)
    assert list(row.coefficients) == oracles.MILNOR_1_DIMS_0_8
    row2 = milnor_sq2_quotient_series(1, 8)
    assert list(row2.coefficients) == oracles.MILNOR_SQ2_1_DIMS_0_8


def test_milnor_quotient_recursion():
    n = 48
    for k in (1, 2, 3):
        dropped = make_polynomial({0: 1, 2 ** (k + 1) - 1: 1}, n)
        assert milnor_quotient_series(k, n) * dropped == \
            milnor_quotient_series(k - 1, n)
        two_cell = make_polynomial({0: 1, 2: 1}, n)
        assert milnor_sq2_quotient_series(k, n) * two_cell == \
            milnor_quotient_series(k, n)


def test_full_quotient_equals_bp_free_ranks():
    n = 64
    quotient = milnor_quotient_series(None, n)
    prof = homotopy_profile(BP, n)
    assert list(quotient.coefficients) == \
        [prof.free_rank(d) for d in range(n + 1)]


def test_quotient_by_exterior_oracle_agreement():
    n = 40
    dims = oracles.steenrod_dims(n)
    for k in range(4):
        dims = oracles.quotient_by_exterior(dims, 2 ** (k + 1) - 1)
    assert list(milnor_quotient_series(3, n).coefficients) == dims


def test_epsilon_context_frozen():
    # the band data (power, offset) that epsilon reads at a height
    assert _band_data(5) == (2, 0)
    assert _band_data(16) == (3, 7)
    assert _band_data(33) == (5, 0)
    with pytest.raises(InvalidParameter):
        epsilon(2, 1)


def test_epsilon_band_structure():
    # n=6: power 2, offset 1; raised band at both ends of the strip
    assert [epsilon(6, s) for s in range(1, 6)] == [1, 0, 0, 0, 1]
    # every height that epsilon-partition sweeps at its pinned scale
    for n in range(3, 65):
        assert [epsilon(n, s) for s in range(1, n)] == \
            [oracles.naive_epsilon(n, s) for s in range(1, n)], n
        for bad in (0, n):
            with pytest.raises(InvalidParameter):
                epsilon(n, bad)


def test_summand_suspensions_bounds():
    with pytest.raises(InvalidParameter):
        list(summand_suspensions(1, 32))
    # the two-cell stage has one strip position and no raised band
    rows = list(summand_suspensions(2, 64))
    assert rows and all(s == 1 for s, _, _, _ in rows)
    assert all(eps == 0 for _, _, eps, _ in rows)
    assert sorted(susp for _, _, _, susp in rows) == [0, 8, 24, 56]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2000), st.integers(0, 600))
@example(n=2, cap=0)
@example(n=2000, cap=600)
@example(n=1025, cap=600)
@example(n=1024, cap=7)
def test_summand_intervals_match_the_scan(n, cap):
    # the band intervals yield exactly the direct scan's rows, in order
    rows, stop = oracles.naive_summand_suspensions(n, cap)
    assert stop is None
    assert list(summand_suspensions(n, cap)) == rows


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 600), st.integers(0, 300))
def test_summand_intervals_raise_where_the_scan_stops(n, cap):
    # with the band power planted one too low, suspensions go negative:
    # the enumeration yields the scan's rows up to the same summand and
    # raises there
    power, offset = _band_data(n)
    rows, stop = oracles.naive_summand_suspensions(n, cap,
                                                   (power - 1, offset))
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjecture_mod, "_band_data",
                   lambda height: (power - 1, offset))
        if stop is None:
            got.extend(summand_suspensions(n, cap))
        else:
            with pytest.raises(ConjectureShapeError,
                               match=rf"\(s={stop[0]}, level={stop[1]}\)"):
                got.extend(summand_suspensions(n, cap))
    assert got == rows


def test_huge_height_visits_summands_bounded_by_n(capsys):
    # each summand the enumeration visits runs at least three of its
    # lines, so a budget of 16 (N + 10) lines bounds the summands
    # visited by 6 (N + 10), whatever the height; a scan over every s
    # below the height would exceed it within the first 60 summands
    n = 10
    budget = 16 * (n + 10)
    code = summand_suspensions.__code__
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > budget:
                raise AssertionError("more summands visited than budgeted")
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        status = main(["conjecture", "100000000", "-N", str(n),
                       "--format", "json"])
    finally:
        sys.settrace(previous)
    assert status == 0 and '"height": 100000000' in capsys.readouterr().out
    assert 0 < lines <= budget


def test_conjectured_series_frozen_height_five():
    series = conjectured_bopn_cohomology(5, 10)
    assert list(series.coefficients) == oracles.CONJECTURED_HEIGHT5_0_10
    with pytest.raises(InvalidParameter):
        conjectured_bopn_cohomology(2, 10)


def test_companion_relation():
    # the same indexed sum built from the singly-quotiented series is
    # the conjectured answer times (1 + x^2)
    n = 64
    two_cell = make_polynomial({0: 1, 2: 1}, n)
    for height in range(3, 11):
        coarse = make_polynomial({}, n)
        for s, level, eps, suspension in summand_suspensions(height, n):
            coarse = coarse + milnor_quotient_series(
                level + 2 + eps, n).shift(suspension)
        fine = conjectured_bopn_cohomology(height, n)
        assert fine * two_cell == coarse


def test_limit_series_is_eight_fold_periodic_sum():
    n = 48
    limit = bop_cohomology_series(n)
    base = milnor_sq2_quotient_series(None, n)
    total = TruncatedSeries([0] * (n + 1), n)
    shift = 0
    while shift <= n:
        shifted = [0] * shift + list(base.coefficients)[: n + 1 - shift]
        total = total + TruncatedSeries(shifted, n)
        shift += 8
    assert limit == total


def test_first_appearance_frozen():
    assert [first_appearance(q) for q in range(1, 9)] == \
        oracles.FIRST_APPEARANCE_1_8
    with pytest.raises(InvalidParameter):
        first_appearance(0)


def test_square_monomial_frozen_cases():
    assert square_monomial(3).factors == ((0, 2), (0, 4))
    assert square_monomial(5).factors == ((0, 2), (1, 4))
    assert square_monomial(6).factors == ((1, 2), (1, 4))
    assert square_monomial(7).factors == ((0, 2), (0, 4), (0, 8))
    assert square_monomial(12).factors == ((2, 2), (2, 4))
    for j in (1, 2, 4, 64):
        with pytest.raises(NotApplicable):
            square_monomial(j)
    with pytest.raises(InvalidParameter):
        square_monomial(0)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=3, max_value=1 << 14))
def test_square_monomial_degree_doubles(j):
    if j & (j - 1) == 0:
        return
    mono = square_monomial(j)
    assert sum(count << (m + 1) for m, count in mono.factors) == 4 * j
    bases = [b for b, _ in mono.factors]
    assert all(b >= 0 for b in bases)
    assert [m for _, m in mono.factors] == [2 ** i for i in
                                            range(1, len(bases) + 1)]


def test_square_monomial_matches_oracle():
    for j in range(-4, 8193):
        try:
            want = oracles.naive_square_monomial(j)
        except ValueError:
            with pytest.raises(InvalidParameter):
                square_monomial(j)
            continue
        if want is None:
            with pytest.raises(NotApplicable):
                square_monomial(j)
            continue
        mono = square_monomial(j)
        assert mono == (j, want), j
        assert sum(power * 2 ** (base + 1) for base, power in want) == 4 * j


def test_conjectured_series_is_the_sum_of_its_suspended_summands():
    # one shift-and-add per summand, against the sum built from the ends
    # of each run of suspensions and one division by 1 - x^8
    for n in list(range(10)) + [200, 1031]:
        quotients = {}
        for height in range(3, 65):
            want = make_polynomial({}, n)
            for s, level, eps, suspension in summand_suspensions(height, n):
                index = level + 2 + eps
                if index not in quotients:
                    quotients[index] = milnor_sq2_quotient_series(index, n)
                want = want + quotients[index].shift(suspension)
            assert conjectured_bopn_cohomology(height, n) == want, (n, height)


def test_verifiers_pass_at_reference_scales():
    assert verify_epsilon_partition(32).passed
    assert verify_stable_limit(48).passed
    assert verify_first_appearance(32).passed
    assert verify_square_decompositions(512).passed
    assert verify_conjecture_shape(64).passed


def _oracle_quotient(k, n):
    """Milnor quotient k (k=None: every factor) and its Sq^2 quotient
    through degree n, dividing the monomial count by each exterior
    factor with naive_mul by naive_invert."""
    def divide(dims, degree):
        if degree > n:
            return dims
        return oracles.naive_mul(
            dims, oracles.naive_invert({0: 1, degree: 1}, n), n)

    dims = {d: c for d, c in enumerate(oracles.steenrod_dims(n)) if c}
    for i in range(n + 1 if k is None else k + 1):
        dims = divide(dims, 2 ** (i + 1) - 1)
    return ([dims.get(d, 0) for d in range(n + 1)],
            [divide(dims, 2).get(d, 0) for d in range(n + 1)])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40, 64])
def test_quotient_chain_matches_per_index_oracle(n):
    last = max((n + 1).bit_length() - 2, 0)   # 2^(last+1) - 1 <= n
    for k in list(range(last + 3)) + [None]:
        quotient, sq2 = _oracle_quotient(k, n)
        assert list(milnor_quotient_series(k, n).coefficients) == quotient, k
        assert list(milnor_sq2_quotient_series(k, n).coefficients) == sq2, k
    # past the range every index reads the stable quotient
    assert milnor_sq2_quotient_series(last + 5, n) == \
        milnor_sq2_quotient_series(None, n)
    with pytest.raises(InvalidParameter):
        milnor_quotient_series(-1, n)


_oracle_sq2 = functools.cache(lambda k, n: _oracle_quotient(k, n)[1])


def _live_series(truncation):
    gc.collect()
    return sum(isinstance(obj, TruncatedSeries) and obj.truncation == truncation
               for obj in gc.get_objects())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 70),
       st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=10))
@example(n=64, reads=[None, 3, 0, 5, 4])
@example(n=64, reads=[3, 5, 3, 5])
@example(n=64, reads=[])
def test_quotient_reader_reads_the_oracle_in_any_order(n, reads):
    # indices in and past the range, and None, in any order: the cursor
    # moves down as well as up, and each read is the oracle's entry
    last = max((n + 1).bit_length() - 2, 0)
    moved, checked = [], []
    real = conjecture_mod._quotient_chain
    real_check = TruncatedSeries.check_nonnegative

    def spied(truncation):
        move = real(truncation)

        def spy(index):
            moved.append(index)
            return move(index)

        return spy

    def counted(series):
        checked.append(list(series.coefficients))
        return real_check(series)

    live = _live_series(n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjecture_mod, "_quotient_chain", spied)
        mp.setattr(TruncatedSeries, "check_nonnegative", counted)
        read = conjecture_mod._CheckedReader(n)
        for k in reads:
            assert list(read(k).coefficients) == _oracle_sq2(k, n), k
        with pytest.raises(InvalidParameter):
            read(-1)
    # every read walks the cursor to the entry it resolves to, each
    # entry is checked on its first read only, and the reader keeps the
    # cursor's entry and no other
    resolved = [last if k is None else min(k, last) for k in reads]
    assert moved == resolved
    assert checked == [_oracle_sq2(k, n) for k in dict.fromkeys(resolved)]
    assert _live_series(n) - live == min(len(reads), 1)


@pytest.mark.parametrize("n, entries", [(128, 4), (1024, 7)])
def test_conjecture_shape_checks_each_chain_entry_once(monkeypatch, n,
                                                       entries):
    # heights 3..16 read 36 (N=128) and 78 (N=1024) quotients from the
    # chain, but only 4 and 7 distinct entries, each checked once
    checked = []
    real = conjecture_mod._nonnegative

    def counted(quotient):
        checked.append(quotient)
        return real(quotient)

    monkeypatch.setattr(conjecture_mod, "_nonnegative", counted)
    assert verify_conjecture_shape(n).passed
    assert len(checked) == entries
    assert len({id(q) for q in checked}) == entries


def test_conjecture_shape_reads_each_height_from_the_nearer_end(monkeypatch):
    heights = []
    real = conjecture_mod._quotient_chain

    def spied(truncation):
        move = real(truncation)

        def spy(index):
            heights[-1].append(index)
            return move(index)

        return spy

    real_conjectured = conjecture_mod._conjectured

    def per_height(n, truncation, read):
        heights.append([])
        return real_conjectured(n, truncation, read)

    monkeypatch.setattr(conjecture_mod, "_quotient_chain", spied)
    monkeypatch.setattr(conjecture_mod, "_conjectured", per_height)
    assert verify_conjecture_shape(1024).passed
    # a fresh reader climbs through the first height's entries 3..9, and
    # each later height starts at the end of its range nearer the cursor
    assert heights[0] == list(range(3, 10))
    for before, reads in zip(heights, heights[1:]):
        lo, hi = min(reads), max(reads)
        climbs = before[-1] - lo <= hi - before[-1]
        assert reads == (list(range(lo, hi + 1)) if climbs
                         else list(range(hi, lo - 1, -1)))
    assert sum(map(len, heights)) == 78


def test_conjectured_series_first_differs_at_the_edge():
    # height n first differs from H^*(BoP) at 2^(p+4) - 1, p its band power
    n = 600
    target = bop_cohomology_series(n)
    for height in range(3, 65):
        edge = 2 ** (_band_data(height)[0] + 4) - 1
        got = conjectured_bopn_cohomology(height, n)
        assert first_mismatch(got, target) == (edge if edge <= n else None), \
            height


def test_an_entry_offset_moves_the_first_mismatch_past_the_edge(
        monkeypatch):
    # the chain's entries read one index up move the first mismatch of
    # heights 16, 20 and 24 past their edges 127, 255 and 255, so only
    # the edge stage of conjecture-limit sees them (the rows
    # conjecture-limit-entry-offset-* of mutants.py)
    mutants.apply(mutants.ENTRY_ONE_UP, monkeypatch.setattr)
    target = bop_cohomology_series(300)
    assert [first_mismatch(conjectured_bopn_cohomology(n, 300), target)
            for n in (16, 20, 24)] == [128, 256, 256]
