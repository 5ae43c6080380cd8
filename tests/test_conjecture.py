import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bopcalc import conjecture as conjecture_mod
from bopcalc.catalog import BP, homotopy_profile
from bopcalc.conjecture import (
    SquareMonomial,
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
from bopcalc.errors import InvalidParameter, NotApplicable
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
    for bad in (0, 6):
        with pytest.raises(InvalidParameter):
            epsilon(6, bad)


def test_summand_suspensions_bounds():
    with pytest.raises(InvalidParameter):
        list(summand_suspensions(1, 32))
    # the two-cell stage has one strip position and no raised band
    rows = list(summand_suspensions(2, 64))
    assert rows and all(s == 1 for s, _, _, _ in rows)
    assert all(eps == 0 for _, _, eps, _ in rows)
    assert sorted(susp for _, _, _, susp in rows) == [0, 8, 24, 56]


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
    assert mono.total_degree == 2 * mono.source_degree == 4 * j
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
        assert mono.total_degree == sum(power * 2 ** (base + 1)
                                        for base, power in want) == 4 * j


@pytest.mark.parametrize("planted_j, factors, stage", [
    (2, ((1, 2),), "indecomposable"),   # a 2-power accepted
    (3, ((0, 1), (0, 4)), "degree"),    # the first count halved
    (3, ((1, 2), (-1, 4)), "factors"),  # the right degree, a negative base
])
def test_square_decompositions_fail_at_a_planted_fault(monkeypatch, planted_j,
                                                       factors, stage):
    real = conjecture_mod.square_monomial

    def planted(j):
        return SquareMonomial(j, factors) if j == planted_j else real(j)

    monkeypatch.setattr(conjecture_mod, "square_monomial", planted)
    report = verify_square_decompositions(64)
    assert not report.passed
    assert report.first_failure_degree == planted_j
    assert report.detail == {"stage": stage}


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


def test_conjecture_shape_builds_one_steenrod_series(monkeypatch):
    calls = []
    real = conjecture_mod.steenrod_series

    def counted(truncation):
        calls.append(truncation)
        return real(truncation)

    monkeypatch.setattr(conjecture_mod, "steenrod_series", counted)
    assert verify_conjecture_shape(128).passed
    assert calls == [128]


def test_stable_limit_builds_one_steenrod_series(monkeypatch):
    # the target and every height read one quotient chain
    calls = []
    real = conjecture_mod.steenrod_series

    def counted(truncation):
        calls.append(truncation)
        return real(truncation)

    monkeypatch.setattr(conjecture_mod, "steenrod_series", counted)
    assert verify_stable_limit(4096).passed
    assert calls == [4096]


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


def test_square_decompositions_build_each_monomial_once(monkeypatch):
    calls = []
    real = conjecture_mod.square_monomial

    def counted(j):
        calls.append(j)
        return real(j)

    monkeypatch.setattr(conjecture_mod, "square_monomial", counted)
    assert verify_square_decompositions(64).passed
    assert calls == list(range(2, 65))


def test_conjectured_series_first_differs_at_the_edge():
    # height n first differs from H^*(BoP) at 2^(p+4) - 1, p its band power
    n = 600
    target = bop_cohomology_series(n)
    for height in range(3, 65):
        edge = 2 ** (_band_data(height)[0] + 4) - 1
        got = conjectured_bopn_cohomology(height, n)
        assert first_mismatch(got, target) == (edge if edge <= n else None), \
            height


def test_stable_limit_fails_at_the_edge_a_chain_offset_moves(monkeypatch):
    real = conjecture_mod._entry

    def one_up(chain, n):
        return real(chain, n if n is None else n + 1)

    monkeypatch.setattr(conjecture_mod, "_entry", one_up)
    # the offset moves the first mismatch of heights 16, 20, 24 past
    # their edges 127, 255, 255, so only the edge stage sees it
    target = bop_cohomology_series(300)
    assert [first_mismatch(conjectured_bopn_cohomology(n, 300), target)
            for n in (16, 20, 24)] == [128, 256, 256]
    for scale in (64, 126):
        assert verify_stable_limit(scale).passed, scale
    report = verify_stable_limit(256)
    assert not report.passed
    assert report.first_failure_degree == 127
    assert report.detail == {"height": 16, "stage": "edge"}


def test_stable_limit_fails_below_the_edge(monkeypatch):
    real = conjecture_mod._bop_cohomology

    def bumped(read):
        target = real(read)
        return target + make_polynomial({100: 1}, target.truncation)

    monkeypatch.setattr(conjecture_mod, "_bop_cohomology", bumped)
    report = verify_stable_limit(256)
    assert not report.passed
    assert report.first_failure_degree == 100
    assert report.detail == {"height": 16}


def test_first_appearance_fails_at_a_planted_off_by_one(monkeypatch):
    real = conjecture_mod.first_appearance

    def planted(q):
        return real(q) + (q == 5)

    monkeypatch.setattr(conjecture_mod, "first_appearance", planted)
    report = verify_first_appearance(64)
    assert not report.passed
    assert report.first_failure_degree == 5
    assert report.detail == {"scanned": 4, "formula": 5}


def test_conjecture_shape_fails_at_a_planted_negative_quotient(monkeypatch):
    real = conjecture_mod._quotient_chain

    def planted(truncation):
        chain = real(truncation)
        coefficients = list(chain[5].coefficients)
        coefficients[40] = -1
        chain[5] = TruncatedSeries(coefficients, truncation)
        return chain

    monkeypatch.setattr(conjecture_mod, "_quotient_chain", planted)
    report = verify_conjecture_shape(128)
    assert not report.passed
    # height 3 is the first to read entry 5
    assert report.first_failure_degree == 3
    assert report.detail == {
        "height": 3, "error": "quotient series negative at degree 40"}


@pytest.mark.parametrize("height, s, stage", [
    (5, 2, "value"),    # a middle-band index given epsilon 1
    (6, 5, "value"),    # an upper-band index given epsilon 0
    (7, 7, "range"),    # the index n itself accepted
    (3, 0, "range"),    # the index 0 accepted, at the first height
])
def test_epsilon_partition_finds_a_planted_epsilon(monkeypatch, height, s,
                                                   stage):
    real = conjecture_mod.epsilon

    def planted(n, index):
        if (n, index) != (height, s):
            return real(n, index)
        return 1 - real(n, index) if stage == "value" else 0

    monkeypatch.setattr(conjecture_mod, "epsilon", planted)
    report = verify_epsilon_partition()
    assert not report.passed
    assert report.first_failure_degree == s
    assert report.detail == {"height": height, "stage": stage}


def test_epsilon_partition_finds_overlapping_bands(monkeypatch):
    # at height 6 an offset of 4 puts s = 2 in the lower band and the
    # upper band (s >= 6 - 4) at once
    real = conjecture_mod._band_data

    def planted(n):
        power, offset = real(n)
        return (power, 4) if n == 6 else (power, offset)

    monkeypatch.setattr(conjecture_mod, "_band_data", planted)
    report = verify_epsilon_partition()
    assert not report.passed
    assert report.first_failure_degree == 2
    assert report.detail == {"height": 6, "stage": "overlap"}
