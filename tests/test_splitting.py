import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutants
import oracles
from bopcalc import splitting as splitting_mod
from bopcalc.algebra import exponents
from bopcalc.catalog import BOP, BO, BPBAR, F, bpn, homotopy_profile
from bopcalc.errors import InvalidParameter
from bopcalc.reports import first_mismatch
from bopcalc.series import one
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
from bopcalc.towers import _product_exponents, bop_tower


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
    # a level whose factor lies above N adds none
    assert head_series(5000, 10) == one(10)


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
    # every index of levels 2..12, irreducibility's pinned level bound:
    # the connectivity sits in its level's window (2^(k+1) - 2,
    # 2^(k+2) - 2] and six above the suspension
    for k in range(2, 13):
        for u in range(2 ** (k - 2)):
            idx = SplittingIndex(k, u)
            assert 2 ** (k + 1) - 2 < idx.connectivity <= 2 ** (k + 2) - 2
            assert idx.suspension == idx.connectivity - 6


def test_splitting_index_validation():
    with pytest.raises(InvalidParameter):
        SplittingIndex(1, 0)
    with pytest.raises(InvalidParameter):
        SplittingIndex(3, -1)
    for k in (2, 3, 4, 5):
        SplittingIndex(k, 2 ** (k - 2) - 1)
        with pytest.raises(InvalidParameter):
            SplittingIndex(k, 2 ** (k - 2))
    # level 20000's last offset, 2^19998 - 1, has more digits than the
    # interpreter writes in decimal, as does the offset 2^19998
    for offset, shown in ((-1, "-1"), (2 ** 19998, "<19999-bit int>")):
        with pytest.raises(InvalidParameter) as info:
            SplittingIndex(20000, offset)
        assert str(info.value) == \
            f"offset {shown} outside 0..2^19998 - 1 at level 20000"


def test_splitting_index_at_a_huge_level_builds_no_power():
    # the offset is bounded by its bit length, not by 2^(level - 2),
    # which at level 10^6000 never finishes; in a child process under a
    # time and an address-space limit, a regression fails, not hangs
    src = os.path.dirname(os.path.dirname(splitting_mod.__file__))
    probe = ("from bopcalc.errors import InvalidParameter\n"
             "from bopcalc.splitting import SplittingIndex\n"
             "SplittingIndex(10 ** 6000, 0)\n"
             "try:\n"
             "    SplittingIndex(10 ** 6000, -1)\n"
             "except InvalidParameter:\n"
             "    print('refused')\n")
    limit = 256 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"


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


@pytest.mark.parametrize("n", [8, 64, 256])
def test_bop6_splitting_stops_at_six(n):
    # the abstract's homotopy type is for i <= 6: space 7 first leaves
    # F_7 x bo_7 at degree 1, where the catalogued bo_7 is the periodic
    # table
    fiber = homotopy_profile(F, n)
    *_, space7 = bop_tower(7, homotopy_profile(BPBAR, n), fiber)
    assert first_mismatch(exponents(space7),
                          _product_exponents(7, n, fiber)) == 1


def _naive_product(factors, n):
    """The product of 1 + sign * x^degree over the (degree, sign)
    factors, through degree n, by naive_mul."""
    out = {0: 1}
    for degree, sign in factors:
        out = oracles.naive_mul(out, {0: 1, degree: sign}, n)
    return out


@pytest.mark.parametrize("n", [0, 5, 6, 13, 14, 29, 30, 62, 126, 300])
def test_series_families_match_naive_products(n):
    # 2^(k+1) - 2, where level k's layer first appears, is 6, 14, 30, 62
    # and 126 for k = 2..6; each n above sits at or just below one
    def levels(j_min):
        # 2(2^j - 1) passes 300 from j = 8 on
        return [(2 * (2 ** j - 1), -1) for j in range(j_min, 10)]

    def layer(s):
        lead = 2 ** (s + 1) - 2
        return oracles.naive_mul(
            {lead: 1},
            _naive_product([(2, 1), (2 ** (s + 1), -1)] + levels(s + 1), n),
            n)

    def dense(terms):
        return [terms.get(d, 0) for d in range(n + 1)]

    for s in range(2, 10):
        head = _naive_product([(2 ** (s + 1), -1)] + levels(s), n)
        assert list(head_series(s, n).coefficients) == dense(head), s
        assert list(layer_series(s, n).coefficients) == dense(layer(s)), s
        tail = {}
        for k in range(s, 10):
            for d, c in layer(k).items():
                tail[d] = tail.get(d, 0) + c
        assert list(tail_series(s, n).coefficients) == dense(tail), s


def test_irreducibility_scale_cap():
    with pytest.raises(InvalidParameter):
        verify_irreducibility(22)


def _plant_bpn_rank(monkeypatch, level, degree):
    mutants.apply(mutants.bpn_rank(level, degree), monkeypatch.setattr)


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
