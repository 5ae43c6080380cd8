import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bopcalc import splitting as splitting_mod
from bopcalc.catalog import BOP, BO, bpn, homotopy_profile
from bopcalc.errors import InvalidParameter
from bopcalc.series import TruncatedSeries, one
from bopcalc.splitting import (
    SplittingIndex,
    head_series,
    layer_series,
    splitting_indices,
    tail_series,
    verify_bop6_homotopy_splitting,
    verify_bpn_rank_recursion,
    verify_head_induction,
    verify_index_bijection,
    verify_irreducibility,
    verify_rational_splitting,
    verify_rhs_one,
)


def test_head_and_layer_low_degrees_by_hand():
    # head(2) = (1-x^8)(1-x^6)(1-x^14)... = 1 - x^6 - x^8 through degree 14
    head = head_series(2, 14)
    assert {d: head.coefficient(d) for d in range(15) if head.coefficient(d)} \
        == {0: 1, 6: -1, 8: -1}
    # layer(2) = x^6 (1+x^2)(1-x^8)(1-x^14)...
    layer = layer_series(2, 14)
    assert {d: layer.coefficient(d) for d in range(15) if layer.coefficient(d)} \
        == {6: 1, 8: 1, 14: -1}
    # head(3) = (1-x^16)(1-x^14)(1-x^30)... = 1 - x^14 through degree 15
    head3 = head_series(3, 15)
    assert {d: head3.coefficient(d) for d in range(16) if head3.coefficient(d)} \
        == {0: 1, 14: -1}


def test_head_layer_telescoping_identities():
    n = 96
    for s in (2, 3, 4):
        assert head_series(s + 1, n) == head_series(s, n) + layer_series(s, n)
        assert tail_series(s, n) == layer_series(s, n) + tail_series(s + 1, n)
    assert head_series(2, n) + tail_series(2, n) == one(n)


def test_series_builders_reject_low_levels():
    for fn in (head_series, layer_series, tail_series):
        with pytest.raises(InvalidParameter):
            fn(1, 16)
        with pytest.raises(InvalidParameter):
            fn(0, 16)


def test_splitting_index_geometry():
    assert SplittingIndex(2, 0).connectivity == 12
    assert SplittingIndex(3, 0).connectivity == 20
    assert SplittingIndex(3, 1).connectivity == 28
    idx = SplittingIndex(4, 3)
    assert idx.suspension == idx.connectivity - 6
    assert idx.in_window()


def test_splitting_index_validation():
    with pytest.raises(InvalidParameter):
        SplittingIndex(1, 0)
    with pytest.raises(InvalidParameter):
        SplittingIndex(3, -1)
    for k in (2, 3, 4, 5):
        SplittingIndex(k, 2 ** (k - 2) - 1)
        with pytest.raises(InvalidParameter):
            SplittingIndex(k, 2 ** (k - 2))


def test_enumeration_matches_frozen_connectivities():
    got = [i.connectivity for i in splitting_indices(64)]
    assert got == oracles.CONNECTIVITIES_BELOW_64
    assert [i.connectivity for i in splitting_indices(11)] == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=12, max_value=4096))
def test_enumeration_is_sorted_and_complete(limit):
    conns = [i.connectivity for i in splitting_indices(limit)]
    assert conns == sorted(conns)
    assert all(c <= limit for c in conns)
    assert all(c % 8 == 4 for c in conns)


def test_rational_splitting_spot_check():
    # at degree 6 the locus splits as the classical part plus one
    # suspended rank-2 truncated summand
    n = 32
    bop = homotopy_profile(BOP, n)
    bo = homotopy_profile(BO, n)
    bpn2 = homotopy_profile(bpn(2), n)
    idx = SplittingIndex(2, 0)
    assert idx.suspension == 6
    assert bop.free_rank(6) == 1
    assert bo.free_rank(6) == 0
    assert bpn2.free_rank(0) == 1
    assert bop.free_rank(12) == bo.free_rank(12) + bpn2.free_rank(6)


def test_verifiers_pass_at_reference_scales():
    assert verify_rhs_one(128).passed
    assert verify_head_induction(128).passed
    assert verify_rational_splitting(96).passed
    assert verify_irreducibility(8).passed
    assert verify_index_bijection(1024).passed
    assert verify_bpn_rank_recursion(64).passed
    assert verify_bop6_homotopy_splitting(96).passed


def test_fault_injection_is_caught():
    report = verify_rhs_one(64, inject_fault=True)
    assert not report.passed
    assert report.first_failure_degree == 8
    report = verify_head_induction(64, inject_fault=True)
    assert not report.passed
    assert report.first_failure_degree == 8



def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(splitting_mod, name)

    def counted(s, truncation):
        calls.append(s)
        return real(s, truncation)

    monkeypatch.setattr(splitting_mod, name, counted)
    return calls


@pytest.mark.parametrize("inject_fault", [False, True])
@pytest.mark.parametrize("n", [0, 5, 6, 64, 512])
def test_rhs_one_builds_one_layer_per_level(monkeypatch, n, inject_fault):
    layers = _count_calls(monkeypatch, "layer_series")
    verify_rhs_one(n, inject_fault=inject_fault)
    levels = [s for s in range(2, 12) if 2 ** (s + 1) - 2 <= n]
    assert layers == levels


def test_head_induction_builds_each_head_and_layer_once(monkeypatch):
    heads = _count_calls(monkeypatch, "head_series")
    layers = _count_calls(monkeypatch, "layer_series")
    verify_head_induction(128)
    assert heads == list(range(2, 11))
    assert layers == list(range(2, 10))


def test_rhs_one_builds_each_level_product_once(monkeypatch):
    # each level product is the one above it times one factor, and every
    # head and layer reads the shared products
    splitting_mod._level_product.cache_clear()
    calls = []
    real = TruncatedSeries.times_binomial

    def counted(series, degree, sign, power):
        calls.append(degree)
        return real(series, degree, sign, power)

    monkeypatch.setattr(TruncatedSeries, "times_binomial", counted)
    assert verify_rhs_one(2048).passed
    assert len(calls) <= 30
    # a level whose factor lies above N adds none, so no deep recursion
    assert head_series(5000, 10) == one(10)


def test_irreducibility_scale_cap():
    with pytest.raises(InvalidParameter):
        verify_irreducibility(22)


PLANTED_BPN_RANKS = [(2, 0), (2, 9), (3, 4), (3, 40), (4, 0), (5, 30)]


def _plant_bpn_rank(monkeypatch, level, degree):
    """Give BPn(level) one more free rank in `degree` wherever the
    splitting module reads a profile; returns the planted reader."""
    real = splitting_mod.homotopy_profile

    def planted(spectrum, truncation):
        profile = real(spectrum, truncation)
        if spectrum != bpn(level):
            return profile
        ranks = list(profile.free_ranks.coefficients)
        ranks[degree] += 1
        return type(profile)(spectrum, TruncatedSeries(ranks, truncation),
                             profile.torsion_z2)

    monkeypatch.setattr(splitting_mod, "homotopy_profile", planted)
    return planted


@pytest.mark.parametrize("level, degree", PLANTED_BPN_RANKS)
def test_rational_splitting_finds_a_planted_bpn_rank(monkeypatch, level,
                                                     degree):
    # one BPn level gains a free rank; the check must fail where a
    # per-summand sum of shifted profiles first leaves BoP
    n = 160
    real = splitting_mod.homotopy_profile
    planted = _plant_bpn_rank(monkeypatch, level, degree)
    report = verify_rational_splitting(n)
    want = list(real(BO, n).free_ranks.coefficients)
    for k in range(2, 8):
        level_ranks = planted(bpn(k), n).free_ranks.coefficients
        for u in range(2 ** (k - 2)):
            shift = 2 ** (k + 1) + 8 * u - 2
            for d in range(shift, n + 1):
                want[d] += level_ranks[d - shift]
    bop = real(BOP, n).free_ranks.coefficients
    bad = next(d for d in range(n + 1) if bop[d] != want[d])
    assert not report.passed
    assert report.first_failure_degree == bad
    assert report.detail == {"side": "free"}


@pytest.mark.parametrize("level, degree", PLANTED_BPN_RANKS)
def test_bop6_splitting_finds_a_planted_bpn_rank(monkeypatch, level, degree):
    # pi_d(BoP_6) = pi_(d-6)(BoP): the sixth space fails six degrees
    # above where the rational splitting fails six degrees lower
    _plant_bpn_rank(monkeypatch, level, degree)
    want = verify_rational_splitting(154)
    report = verify_bop6_homotopy_splitting(160)
    assert not want.passed and not report.passed
    assert report.first_failure_degree == want.first_failure_degree + 6
    assert report.detail == {"side": "free"}


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("n", [0, 5, 6, 7, 13, 40, 100, 257, 1031])
def test_rational_splitting_rhs_is_the_per_index_sum(monkeypatch, n, planted):
    # the right-hand side compared with BoP is bo plus one shifted BPn
    # profile per splitting index, however the sum is organised
    if planted:
        _plant_bpn_rank(monkeypatch, 2, 0)
    read = splitting_mod.homotopy_profile
    compared = []
    real = splitting_mod.first_mismatch

    def spy(left, right):
        compared.append(right)
        return real(left, right)

    monkeypatch.setattr(splitting_mod, "first_mismatch", spy)
    report = verify_rational_splitting(n)
    want = read(BO, n).free_ranks
    for idx in splitting_indices(n + 6):
        ranks = read(bpn(idx.level), n).free_ranks
        want = want + ranks.shift(idx.suspension)
    assert compared == [want]
    assert report.passed is (not planted or n < 6)


def _plant_torsion(monkeypatch, torsion):
    real = splitting_mod.homotopy_profile

    def planted(spectrum, truncation):
        profile = real(spectrum, truncation)
        if spectrum != BO:
            return profile
        return type(profile)(spectrum, profile.free_ranks,
                             {**profile.torsion_z2, **torsion})

    monkeypatch.setattr(splitting_mod, "homotopy_profile", planted)


@pytest.mark.parametrize("torsion, failure", [
    ({5: 1, 9: 0, 17: 2}, 5),
    # an explicit zero count differs as a map but not as a count
    ({4: 0}, None),
])
def test_rational_splitting_torsion_stage(monkeypatch, torsion, failure):
    _plant_torsion(monkeypatch, torsion)
    report = verify_rational_splitting(64)
    assert report.first_failure_degree == failure
    if failure is not None:
        assert report.detail == {"side": "torsion"}


@pytest.mark.parametrize("level, offset, degree", [(2, 0, 12), (4, 1, 44),
                                                   (7, 31, 508)])
def test_irreducibility_finds_a_planted_window_miss(monkeypatch, level,
                                                    offset, degree):
    # one summand reported outside its window fails at its connectivity
    real = SplittingIndex.in_window

    def planted(idx):
        return idx != (level, offset) and real(idx)

    monkeypatch.setattr(SplittingIndex, "in_window", planted)
    report = verify_irreducibility()
    assert not report.passed
    assert report.first_failure_degree == degree
    assert report.detail == {"level": level, "offset": offset}


def test_irreducibility_finds_a_planted_boundary_offset(monkeypatch):
    # level 3 accepts the offset just past its last one, 2^(3-2) = 2; the
    # check fails at the bottom of level 4's window, 2^(3+2) + 4
    class Planted(SplittingIndex):
        __slots__ = ()

        def __new__(cls, level, offset):
            if (level, offset) == (3, 2):
                return tuple.__new__(cls, (level, offset))
            return super().__new__(cls, level, offset)

    monkeypatch.setattr(splitting_mod, "SplittingIndex", Planted)
    report = verify_irreducibility()
    assert not report.passed
    assert report.first_failure_degree == 36
    assert report.detail == {"level": 3, "offset": 2, "stage": "boundary"}


def _plant_indices(monkeypatch, change):
    real = splitting_mod.splitting_indices
    monkeypatch.setattr(splitting_mod, "splitting_indices",
                        lambda limit: change(list(real(limit))))


@pytest.mark.parametrize("change, degree, detail", [
    # a dropped summand: 44 is missing from the connectivities
    (lambda indices: [i for i in indices if i != (4, 1)], 44, None),
    # a repeated summand: 12 twice, where the progression has 20
    (lambda indices: indices[:1] + indices, 12, None),
    # the last summand lost: the progression runs one further
    (lambda indices: indices[:-1], 100,
     {"progression": 12, "connectivities": 11}),
    # a summand past the bound: the connectivities run one further
    (lambda indices: indices + [SplittingIndex(5, 5)], 108,
     {"progression": 12, "connectivities": 13}),
])
def test_index_bijection_finds_a_planted_enumeration(monkeypatch, change,
                                                     degree, detail):
    _plant_indices(monkeypatch, change)
    report = verify_index_bijection(100)
    assert not report.passed
    assert report.first_failure_degree == degree
    assert report.detail == detail


@pytest.mark.parametrize("level, degree, failing_level", [
    (1, 10, 2),   # BPn(1) is the level below the first step
    (2, 0, 2),
    (3, 40, 3),
    (6, 127, 6),
])
def test_bpn_rank_recursion_finds_a_planted_bpn_rank(monkeypatch, level,
                                                     degree, failing_level):
    # the first level whose recursion reads the planted profile fails
    # at the planted degree
    _plant_bpn_rank(monkeypatch, level, degree)
    report = verify_bpn_rank_recursion(128)
    assert not report.passed
    assert report.first_failure_degree == degree
    assert report.detail == {"level": failing_level}
