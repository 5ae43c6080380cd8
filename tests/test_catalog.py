import gc
import json
import os
import tracemalloc

import pytest

import oracles
from bopcalc.catalog import (
    BP,
    BPBAR,
    BO,
    BOP,
    BU,
    CATALOGUED_SPECTRA,
    F,
    X,
    HomotopyProfile,
    SpaceRef,
    SpectrumId,
    bo_space_homology,
    bpn,
    bpn_ladder,
    homotopy_profile,
    parse_spectrum,
)
from bopcalc.cli import main
from bopcalc.errors import InvalidParameter
from bopcalc.splitting import verify_rational_splitting


def test_spectrum_ids():
    assert str(BP) == "BP" and str(BPBAR) == "BPbar"
    assert str(bpn(3)) == "BPn(3)"
    with pytest.raises(InvalidParameter):
        SpectrumId("KU")
    with pytest.raises(InvalidParameter):
        SpectrumId("BPn")          # needs a level
    with pytest.raises(InvalidParameter):
        SpectrumId("BP", level=2)  # level only for BPn
    with pytest.raises(InvalidParameter):
        bpn(0)


def test_parse_spectrum_forms():
    assert parse_spectrum("bo") == BO
    assert parse_spectrum("BPbar") == BPBAR
    for text in ("BPn:2", "BPn(2)", "BPn2"):
        assert parse_spectrum(text) == bpn(2)
    for text in ("", "bogus", "BPn:x", "BPn"):
        with pytest.raises(InvalidParameter):
            parse_spectrum(text)


def test_bp_profile_matches_partition_oracle():
    n = 40
    prof = homotopy_profile(BP, n)
    parts = oracles.bp_generator_degrees(n)
    assert list(prof.free_ranks.coefficients) == \
        oracles.partition_counts(parts, n)
    assert [prof.free_rank(d) for d in (2, 4, 6, 8)] == \
        oracles.BP_RANKS_2_4_6_8
    assert prof.torsion_z2 == {}


def test_bpbar_is_bp_with_degree8_factor():
    n = 32
    bp = homotopy_profile(BP, n)
    bpbar = homotopy_profile(BPBAR, n)
    parts = oracles.bp_generator_degrees(n) + [8]
    assert list(bpbar.free_ranks.coefficients) == \
        oracles.partition_counts(parts, n)
    # and BPbar dominates BP degreewise
    assert (bpbar.free_ranks - bp.free_ranks).check_nonnegative() is None


def test_bpn_profiles_truncate_generator_list():
    for n in (0, 1, 2, 5, 6, 13, 14, 30, 100):
        for level in range(1, 10):
            prof = homotopy_profile(bpn(level), n)
            parts = [2 * (2 ** i - 1) for i in range(1, level + 1)]
            assert list(prof.free_ranks.coefficients) == \
                oracles.partition_counts(parts, n)
        # levels far above the truncation share the top level's ranks
        assert homotopy_profile(bpn(5000), n).free_ranks == \
            homotopy_profile(bpn(9), n).free_ranks
    # BPn(1) is just one degree-2 polynomial generator
    assert [homotopy_profile(bpn(1), 10).free_rank(d)
            for d in range(11)] == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_bpn_profile_makes_one_pass_per_level(counted):
    ladder = [2 * (2 ** k - 1) for k in range(1, 11)]
    homotopy_profile(bpn(10), 2048)
    assert counted.passes == ladder
    # the regiment walks the ladder once: one pass per level, then the
    # regiment sum's one division by 1 - x^8, then bo's one pass (4),
    # then BoP's product (4, 6 and 8, then v_3 up)
    counted.passes.clear()
    assert verify_rational_splitting(2048).passed
    assert counted.passes == ladder + [8] + [4] + [4, 6, 8] + ladder[2:]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 13, 14, 30, 100, 2048])
def test_bpn_ladder_matches_partition_counts(n):
    rungs = list(bpn_ladder(n))
    # one rung per v_k of degree 2(2^k - 1) <= N, and BPn(1) always
    degrees = [2 * (2 ** k - 1) for k in range(1, 12)]
    assert len(rungs) == max(1, sum(d <= n for d in degrees))
    for k, rung in enumerate(rungs, 1):
        assert list(rung.coefficients) == \
            oracles.partition_counts(degrees[:k], n), k
        assert homotopy_profile(bpn(k), n).free_ranks == rung, k
        assert list(bpn_ladder(n, k)) == rungs[:k], k
    # every level past the last v_k in range has its free ranks
    assert homotopy_profile(bpn(5000), n).free_ranks == rungs[-1]
    assert list(bpn_ladder(n, 5000)) == rungs
    # a level past sys.maxsize as well, which islice alone cannot take
    assert homotopy_profile(bpn(10 ** 20), n).free_ranks == rungs[-1]
    assert list(bpn_ladder(n, 10 ** 20)) == rungs


def test_bu_bo_profiles():
    n = 26
    bu = homotopy_profile(BU, n)
    assert [bu.free_rank(d) for d in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    bo = homotopy_profile(BO, n)
    assert [bo.free_rank(d) for d in range(9)] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert [bo.torsion_z2.get(d, 0) for d in range(12)] == \
        [0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0]


def test_bop_profile_frozen_ranks_and_torsion():
    n = 16
    bop = homotopy_profile(BOP, n)
    assert [bop.free_rank(d) for d in (4, 6, 8)] == oracles.BOP_RANKS_4_6_8
    assert bop.free_rank(12) == 3
    assert bop.torsion_z2 == homotopy_profile(BO, n).torsion_z2
    assert bop.free_rank(0) == 1 and bop.free_rank(2) == 0


@pytest.mark.parametrize("n", [0, 1, 9, 256, 2048])
def test_bop_torsion_is_bo_torsion(n):
    # the torsion side of the rational splitting, which its verifiers
    # leave out because both profiles build the same map
    assert homotopy_profile(BOP, n).torsion_z2 == \
        homotopy_profile(BO, n).torsion_z2


def test_fiber_profiles_are_differences():
    n = 16
    f = homotopy_profile(F, n)
    for d, want in oracles.F_RANKS.items():
        assert f.free_rank(d) == want
    assert f.torsion_z2 == {}
    x = homotopy_profile(X, n)
    assert [x.free_rank(d) for d in range(0, 17, 2)] == \
        oracles.X_RANKS_EVEN_0_16
    assert all(x.free_rank(d) == 0 for d in range(1, 17, 2))


def test_profile_accessors_and_json(capsys):
    prof = homotopy_profile(BOP, 12)
    assert prof.truncation == 12
    assert prof.free_rank(-3) == 0
    # the profile document and rows are the catalog command's own
    assert main(["catalog", "BoP", "-N", "12", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)["profile"]
    assert doc["spectrum"] == "BoP"
    assert {row["degree"] for row in doc["torsion_z2"]} == {1, 2, 9, 10}
    assert main(["catalog", "BoP", "-N", "12", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "spectrum,degree,free_rank,torsion_z2"
    rows = [(name, int(d), int(free), int(torsion))
            for name, d, free, torsion in (line.split(",")
                                           for line in lines[1:])]
    assert rows[0] == ("BoP", 0, 1, 0)
    assert len(rows) == 13


def test_profiles_are_shared_and_read_only():
    # a caller hands one profile to every reader of it (the BoP tower
    # check hands its two on), so no reader may change it
    prof = homotopy_profile(BO, 20)
    with pytest.raises(TypeError):
        prof.torsion_z2[1] = 5
    with pytest.raises(TypeError):
        del prof.torsion_z2[1]
    assert prof.torsion_z2[1] == 1
    # a profile keeps its own copy of the map it was given
    torsion = {3: 1}
    planted = HomotopyProfile(BO, prof.free_ranks, torsion)
    torsion[3] = 7
    assert planted.torsion_z2 == {3: 1}


def _profiles_alive():
    return sum(isinstance(o, HomotopyProfile) for o in gc.get_objects())


@pytest.mark.parametrize("argv", [
    ["verify", "all"],
    ["verify", "bop-tower", "-N", "1024"],
    ["homology", "BoP", "12", "-N", "1032"],
    ["verify", "rational-splitting", "-N", "2048"],
], ids=" ".join)
def test_no_profile_outlives_its_command(argv):
    # the same command at -N 3 imports and sets up what it needs; then
    # the command leaves no profile and nothing else it built alive.
    # CPython 3.10 keeps a spare frame for each function a command runs
    # first, up to 4.1 KB here; later versions hold 0.1 KB
    out = ["--format", "json", "--output", os.devnull]
    command = argv[:argv.index("-N")] if "-N" in argv else argv
    assert main(command + ["-N", "3"] + out) == 0
    gc.collect()
    alive = _profiles_alive()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv + out) == 0
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _profiles_alive() == alive
    assert held <= 8 * 1024


def test_catalogued_spectra_listing():
    names = [str(s) for s in CATALOGUED_SPECTRA]
    assert names == ["BP", "BPbar", "BPn(1)", "BPn(2)", "BPn(3)", "BPn(4)",
                     "bu", "bo", "BoP", "F", "X"]
    for s in CATALOGUED_SPECTRA:
        prof = homotopy_profile(s, 24)
        assert prof.free_ranks.check_nonnegative() is None


def test_bo_low_indices_periodic_flag_irrelevant():
    for i in (-3, 0, 2, 3):
        assert bo_space_homology(i, 20) == bo_space_homology(i, 20,
                                                             periodic=True)
    # spot shapes straight from the catalogue
    assert bo_space_homology(0, 6).counts == {1: 1, 2: 1, 3: 1, 4: 1,
                                              5: 1, 6: 1}
    assert bo_space_homology(0, 6).component_rank == 1
    assert bo_space_homology(2, 20).counts == {2: 1, 6: 1, 10: 1, 14: 1,
                                               18: 1}
    assert bo_space_homology(3, 16).kind == "exterior"
    assert sorted(bo_space_homology(3, 16).counts) == [3, 7, 11, 15]


def test_bo_connective_vs_periodic_window():
    # index 4: same degrees, but only the periodic tower has components
    conn4 = bo_space_homology(4, 16)
    per4 = bo_space_homology(4, 16, periodic=True)
    assert conn4.counts == per4.counts == {4: 1, 8: 1, 12: 1, 16: 1}
    assert conn4.component_rank == 0 and per4.component_rank == 1
    # index 5: the periodic table has an extra degree-1 generator
    conn5 = bo_space_homology(5, 13)
    per5 = bo_space_homology(5, 13, periodic=True)
    assert conn5.counts == {5: 1, 9: 1, 13: 1}
    assert per5.counts == {1: 1, 5: 1, 9: 1, 13: 1}
    assert conn5.kind == per5.kind == "exterior"
    # index 6: connective omits the 2-power degrees
    conn6 = bo_space_homology(6, 18)
    per6 = bo_space_homology(6, 18, periodic=True)
    assert sorted(conn6.counts) == [6, 10, 12, 14, 18]
    assert sorted(per6.counts) == [2, 4, 6, 8, 10, 12, 14, 16, 18]
    # index 7 is catalogued once, in periodic form
    assert bo_space_homology(7, 10) == bo_space_homology(7, 10,
                                                         periodic=True)


def test_bo_high_indices_need_periodic():
    with pytest.raises(InvalidParameter):
        bo_space_homology(9, 12)
    table = bo_space_homology(9, 12, periodic=True)
    assert table == bo_space_homology(1, 12)
    assert bo_space_homology(-8, 10, periodic=True) == \
        bo_space_homology(0, 10)


def test_bu_space_tables():
    # the classical tables of Z x BU, U and BU are the rank rule's
    from bopcalc.algebra import poincare_series
    from bopcalc.towers import rank_rule_homology

    def bu(i, n):
        return rank_rule_homology(SpaceRef(BU, i), n)

    assert bu(2, 12).counts == {d: 1 for d in range(2, 13, 2)}
    assert bu(2, 12).kind == "polynomial"
    # the classical x^8 count for the second space
    series = poincare_series(bu(2, 100))
    assert series.coefficient(8) == oracles.EVEN_PARTITIONS_OF_8
    assert bu(1, 9).kind == "exterior"
    assert bu(0, 8).component_rank == 1
    # rank-rule continuation in both directions
    assert bu(3, 9).counts == {3: 1, 5: 1, 7: 1, 9: 1}
    assert bu(-2, 6).counts == {d: 1 for d in (2, 4, 6)}
    assert bu(-2, 6).component_rank == 1
    assert bu(-1, 6).kind == "exterior"
    assert bu(-1, 6).counts == {1: 1, 3: 1, 5: 1}


def test_space_ref():
    ref = SpaceRef(BOP, 4)
    assert ref.spectrum == BOP and ref.index == 4
