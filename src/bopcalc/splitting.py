"""Series identities behind the stable splitting of BoP.

The free part of BoP decomposes, away from torsion, into a copy of bo
and a regiment of suspended truncated Brown-Peterson spectra BPn(k),
one for each level k >= 2 and offset 0 <= u < 2^(k-2), suspended by
2^(k+1) + 8u - 2.  Three families of alternating products organize the
inclusion-exclusion bookkeeping for that decomposition:

* head_series(s): the product of (1 - x^(2^(j+1) - 2)) over j >= s,
  with one extra vanishing factor (1 - x^(2^(s+1)));
* layer_series(s): the piece added when passing from level s to s+1,
  carried by x^(2^(s+1) - 2) (1 + x^2);
* tail_series(s): the sum of all layers from level s up.

They satisfy head(s+1) = head(s) + layer(s) and tail(s) = layer(s) +
tail(s+1), and the master identity head(2) + tail(2) = 1, which is the
generating-function form of the statement that the decomposition covers
every free summand exactly once.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .algebra import exponents
from .catalog import BO, BOP, BPBAR, F, bpn_ladder, homotopy_profile
from .errors import InvalidParameter
from .reports import VerificationReport, first_mismatch, run_check
from .series import (
    TruncatedSeries,
    _binomial_pass,
    _from_ints,
    make_polynomial,
    one,
    shifted_sum,
)
from .towers import _product_exponents, bop_tower

__all__ = [
    "SplittingIndex",
    "splitting_indices",
    "head_series",
    "layer_series",
    "tail_series",
    "verify_head_induction",
    "verify_rhs_one",
    "verify_rational_splitting",
    "verify_irreducibility",
    "verify_index_bijection",
    "verify_bpn_rank_recursion",
    "verify_bop6_homotopy_splitting",
]


def _shown(n: int) -> str:
    """n in decimal, or by its bit length where the interpreter refuses
    to write it (an int of over 4300 digits, by default)."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit int>"


class SplittingIndex(namedtuple("SplittingIndex", "level offset")):
    """One summand of the splitting: level k >= 2, offset u < 2^(k-2).

    connectivity is the space index 2^(k+1) + 8u + 4 at which the
    summand's bottom space appears in the sixth BoP space, six above
    its suspension; it runs from 2^(k+1) + 4 up to 2^(k+2) - 4, so it
    always lands strictly inside the level's irreducibility window
    (2^(k+1) - 2, 2^(k+2) - 2].
    """

    __slots__ = ()

    def __new__(cls, level: int, offset: int):
        if level < 2:
            raise InvalidParameter(f"level {_shown(level)} must be >= 2")
        if offset < 0 or offset.bit_length() > level - 2:
            # past 64 bits, the last offset as a power of two less one
            last = (2 ** (level - 2) - 1 if level <= 66
                    else f"2^{_shown(level - 2)} - 1")
            raise InvalidParameter(
                f"offset {_shown(offset)} outside 0..{last} "
                f"at level {_shown(level)}")
        return super().__new__(cls, level, offset)

    @property
    def connectivity(self) -> int:
        return 2 ** (self.level + 1) + 8 * self.offset + 4

    @property
    def suspension(self) -> int:
        """Suspension degree of the summand inside the spectrum BoP."""
        return 2 ** (self.level + 1) + 8 * self.offset - 2


def splitting_indices(limit: int) -> Iterable[SplittingIndex]:
    """All splitting indices with connectivity at most `limit`."""
    k = 2
    while 2 ** (k + 1) + 4 <= limit:
        for u in range(2 ** (k - 2)):
            idx = SplittingIndex(k, u)
            if idx.connectivity > limit:
                break
            yield idx
        k += 1


# -- the three series families ----------------------------------------------

def _check_level(s: int) -> None:
    if s < 2:
        raise InvalidParameter(f"series level {s} must be >= 2")


def _level_product(j_min: int, vanishing: int, truncation: int) -> List[int]:
    """Coefficients of (1 - x^vanishing) times the product of
    (1 - x^(2(2^j - 1))) for j >= j_min, through degree truncation,
    built afresh in one list: one pass per factor of degree <= N, and
    none past the first level factor above it."""
    coeffs = [1] + [0] * truncation
    if vanishing <= truncation:
        _binomial_pass(coeffs, vanishing, -1, 1)
    j = j_min
    while 2 * (2 ** j - 1) <= truncation:
        _binomial_pass(coeffs, 2 * (2 ** j - 1), -1, 1)
        j += 1
    return coeffs


def head_series(s: int, truncation: int) -> TruncatedSeries:
    """(1 - x^(2^(s+1))) * product of (1 - x^(2(2^j-1))) over j >= s."""
    _check_level(s)
    return _from_ints(_level_product(s, 2 ** (s + 1), truncation), truncation)


def layer_series(s: int, truncation: int) -> TruncatedSeries:
    """x^(2^(s+1)-2) (1+x^2) (1 - x^(2^(s+1))) * product over j > s.

    Shifted up by the lead, the product is needed only through degree
    N - lead, so it is built that far and no further."""
    _check_level(s)
    lead = 2 ** (s + 1) - 2
    if lead > truncation:
        return make_polynomial({}, truncation)
    coeffs = _level_product(s + 1, 2 ** (s + 1), truncation - lead)
    if 2 <= truncation - lead:
        _binomial_pass(coeffs, 2, 1, 1)
    return _from_ints([0] * lead + coeffs, truncation)


def tail_series(s: int, truncation: int) -> TruncatedSeries:
    """Sum of layer_series(k) over k >= s; finite after truncation."""
    _check_level(s)
    acc = make_polynomial({}, truncation)
    k = s
    while 2 ** (k + 1) - 2 <= truncation:
        acc = acc + layer_series(k, truncation)
        k += 1
    return acc


def _fault(series: TruncatedSeries, inject_fault: bool) -> TruncatedSeries:
    """The injected fault, layers missing their (1+x^2) factor: a layer
    or a sum of layers divided by (1+x^2).  Exact, since dividing by a
    unit series undoes multiplying by it modulo x^(N+1), term by term."""
    return series.times_binomial(2, 1, -1) if inject_fault else series


# -- verifiers ---------------------------------------------------------------

def verify_head_induction(truncation: int = 512,
                          inject_fault: bool = False) -> VerificationReport:
    """head(s+1) = head(s) + layer(s) for each level s = 2..9."""
    s_min, s_max = 2, 9
    params = {"s_min": s_min, "s_max": s_max, "max_degree": truncation}
    if inject_fault:
        params["inject_fault"] = "layer missing its (1+x^2) factor"

    def body():
        head = head_series(s_min, truncation)
        for s in range(s_min, s_max + 1):
            lhs = head_series(s + 1, truncation)
            rhs = head + _fault(layer_series(s, truncation), inject_fault)
            bad = first_mismatch(lhs, rhs)
            if bad is not None:
                return bad, {"level": s}
            head = lhs

    return run_check("head-induction", params, body)


def verify_rhs_one(truncation: int = 512,
                   inject_fault: bool = False) -> VerificationReport:
    """head(2) + tail(2) = 1, the master identity.

    tail(2) is built from one layer per level visible below the
    truncation.  The telescope tail(s) = layer(s) + tail(s+1) is how
    tail_series sums them, so it is not compared here; the tests check
    tail_series against it.
    """
    params = {"max_degree": truncation}
    if inject_fault:
        params["inject_fault"] = "layer missing its (1+x^2) factor"

    def body():
        total = head_series(2, truncation) + _fault(
            tail_series(2, truncation), inject_fault)
        bad = first_mismatch(total, one(truncation))
        if bad is not None:
            return bad, {"stage": "master"}

    return run_check("rhs-one", params, body)


def _splitting_mismatch(truncation: int) -> Optional[int]:
    """First degree through the truncation where the free ranks of BoP
    differ from bo's plus the suspended BPn(k) regiment's; None when
    they agree.

    The regiment's levels come off one BPn ladder, each rung folded into
    the sum at its level's suspensions as the ladder yields it, so one
    rung is alive at a time and no BPn profile is built.  Level k has a
    summand suspended to <= N exactly when its lowest suspension
    2^(k+1) - 2, the degree of v_k, is <= N, which is where the ladder
    stops: the rungs from BPn(2) up pair off with the levels in order.
    The regiment is summed before the bo profile is fetched, so no rung
    is alive beside it, and bo's free ranks are added before the BoP
    profile is built, so no bo profile is alive beside that."""
    # connectivity is suspension + 6: the summands suspended to <= N
    levels = itertools.groupby(splitting_indices(truncation + 6),
                               lambda idx: idx.level)
    regiment = ((ranks, [idx.suspension for idx in level])
                for ranks, (_, level) in zip(
                    itertools.islice(bpn_ladder(truncation), 1, None), levels,
                    strict=True))
    rhs = shifted_sum(regiment, truncation)
    rhs = homotopy_profile(BO, truncation).free_ranks + rhs
    return first_mismatch(homotopy_profile(BOP, truncation).free_ranks, rhs)


def verify_rational_splitting(truncation: int = 256) -> VerificationReport:
    """Free ranks of BoP match bo plus the suspended BPn(k) regiment.
    The catalogue gives BoP bo's torsion map, so the torsion side is
    pinned by tests/test_catalog.py::test_bop_torsion_is_bo_torsion
    instead."""
    params = {"max_degree": truncation}

    def body():
        bad = _splitting_mismatch(truncation)
        if bad is not None:
            return bad, {"side": "free"}

    return run_check("rational-splitting", params, body)


def verify_irreducibility(k_max: int = 12) -> VerificationReport:
    """At each level 2..k_max the first offset past the level's window,
    2^(k-2), is rejected.  That every admissible connectivity lands in
    its window is SplittingIndex's inequality, pinned for levels 2..12
    by tests/test_splitting.py::test_splitting_index_geometry.

    The cap of 21 on k_max still bounds a cost that grows faster than
    linearly: each level's rejection builds its (k-1)-bit offset and
    writes it out in decimal in the message.  Measured in-process
    (CPython 3.11.7, 2-vCPU Xeon), the loop takes 2 ms at 1,000
    levels, 0.56 s at 10,000 and 2.3 s at 30,000."""
    if k_max > 21:
        raise InvalidParameter(f"level bound {k_max} is above the cap of 21")
    params = {"k_max": k_max}

    def body():
        for k in range(2, k_max + 1):
            try:
                SplittingIndex(k, 2 ** (k - 2))
            except InvalidParameter:
                pass
            else:
                return 2 ** (k + 2) + 4, {"level": k,
                                          "offset": 2 ** (k - 2),
                                          "stage": "boundary"}

    return run_check("irreducibility", params, body)


def verify_index_bijection(bound: int = 8192) -> VerificationReport:
    """The connectivities, across all levels, are exactly the arithmetic
    progression 12, 20, 28, ... with no repeats."""
    params = {"bound": bound}

    def body():
        progression = range(12, bound + 1, 8)
        connectivities = sorted(idx.connectivity
                                for idx in splitting_indices(bound))
        for a, b in zip(progression, connectivities):
            if a != b:
                return min(a, b), None
        if len(progression) != len(connectivities):
            longer = max(progression, connectivities, key=len)
            return longer[min(len(progression), len(connectivities))], {
                "progression": len(progression),
                "connectivities": len(connectivities)}

    return run_check("index-bijection", params, body)


def verify_bpn_rank_recursion(truncation: int = 128) -> VerificationReport:
    """rank BPn(j)_m = rank BPn(j-1)_m + rank BPn(j)_(m - (2^(j+1)-2))
    for levels j = 2..6: a monomial either avoids the top generator or
    divides by it once.

    Consecutive rungs of one BPn ladder are compared, so each level is
    one rung, built once, and no BPn profile is built.  A level past the ladder's
    top has the top rung's ranks."""
    j_min, j_max = 2, 6
    params = {"j_min": j_min, "j_max": j_max, "max_degree": truncation}

    def body():
        rungs = bpn_ladder(truncation, j_max)
        below = next(rungs)
        for j in range(j_min, j_max + 1):
            whole = next(rungs, below)
            step = 2 ** (j + 1) - 2
            rhs = below + whole.shift(step) if step <= truncation else below
            bad = first_mismatch(whole, rhs)
            if bad is not None:
                return bad, {"level": j}
            below = whole

    return run_check("bpn-rank-recursion", params, body)


def verify_bop6_homotopy_splitting(truncation: int = 256) -> VerificationReport:
    """BoP_i = F_i x bo_i for i = 4..6, in homology: the paper's complete
    homotopy type of BoP_i for i <= 6.

    The tower through space 6 is solved from one BPbar and one F profile,
    and each SES-solved space 4..6's exponents are compared with
    v(F_i) + v(bo_i), F's read off the same profile; spaces 2 and 3 are
    built as that product.  Space 7 would first differ at degree 1,
    where the catalogued bo_7 is the periodic table."""
    params = {"max_degree": truncation}

    def body():
        bpbar = homotopy_profile(BPBAR, truncation)
        fiber = homotopy_profile(F, truncation)
        for i, table in enumerate(bop_tower(6, bpbar, fiber), 2):
            if i >= 4:
                bad = first_mismatch(exponents(table),
                                     _product_exponents(i, truncation, fiber))
                if bad is not None:
                    return bad, {"index": i}

    return run_check("bop6-splitting", params, body)
