"""Experimental checks around the conjectured mod-2 cohomology of the
truncated BoP analogues.

Everything here is generating-function arithmetic over the Steenrod
algebra's graded dimensions.  The conjectured answer for the n-th
truncation is a sum of suspended quotient-algebra series, indexed by a
pair (s, K') with a parity correction epsilon that splits 1..n-1 into
a lower, middle, and upper band.  As n grows the suspensions of all but
the lead terms escape any fixed degree range, and the sums stabilize to
the known cohomology of BoP itself; the verifiers pin down that shape,
the stabilization, the first-appearance bookkeeping for each summand,
and the Sq^2-annihilated monomial decompositions feeding the whole
computation.  The quotients form a chain, one exterior factor apart;
each run walks it with one cursor entry, keeps no other entry, and
checks each entry for nonnegativity the first time it reads it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import ConjectureShapeError, InvalidParameter, NotApplicable
from .reports import VerificationReport, first_mismatch, run_check
from .series import TruncatedSeries, product_over, shifted_sum

__all__ = [
    "steenrod_series",
    "milnor_quotient_series",
    "milnor_sq2_quotient_series",
    "epsilon",
    "summand_suspensions",
    "conjectured_bopn_cohomology",
    "bop_cohomology_series",
    "first_appearance",
    "SquareMonomial",
    "square_monomial",
    "verify_epsilon_partition",
    "verify_stable_limit",
    "verify_first_appearance",
    "verify_square_decompositions",
    "verify_conjecture_shape",
]


# -- graded dimension series -------------------------------------------------

def steenrod_series(truncation: int) -> TruncatedSeries:
    """Graded dimensions of the mod-2 Steenrod algebra: the Milnor basis
    is monomials in generators of degree 2^i - 1, each of infinite
    height, so the series is a product of geometric factors.

    >>> [steenrod_series(8).coefficient(d) for d in range(5)]
    [1, 1, 1, 2, 2]
    """
    return product_over((2 ** i - 1 for i in itertools.count(1)), truncation)


def _quotient_chain(truncation: int) -> Callable[[int], TruncatedSeries]:
    """Sq^2 quotients n = 0, 1, ... through the stable one (indices come
    through _entry), read by one cursor entry: entry n is the Steenrod
    series over (1 + x^2) with the exterior factors 1 + x^(2^(i+1) - 1),
    0 <= i <= n, divided out.  The cursor moves one factor at a time,
    dividing going up and multiplying going down, both exact modulo
    x^(N+1); it starts at its first move, so it holds no entry until one
    is read.  Milnor quotient n is entry n times (1 + x^2), so a
    nonnegative entry has a nonnegative one."""
    index, entry = -1, None

    def move(n: int) -> TruncatedSeries:
        nonlocal index, entry
        if entry is None:
            entry = steenrod_series(truncation).times_binomial(2, 1, -1)
        while index < n:
            index += 1
            entry = entry.times_binomial(2 ** (index + 1) - 1, 1, -1)
        while index > n:
            entry = entry.times_binomial(2 ** (index + 1) - 1, 1, 1)
            index -= 1
        return entry

    return move


def _entry(n: Optional[int], truncation: int) -> int:
    """The chain index that n reads: the last one, whose factor's degree
    2^(n+1) - 1 is at most N (0 if none is), is the stable entry, and
    None or an index past it reads that."""
    if n is not None and n < 0:
        raise InvalidParameter(f"subalgebra index {n} must be >= 0")
    last = max((truncation + 1).bit_length() - 2, 0)
    return last if n is None else min(n, last)


class _CheckedReader:
    """Reads the chain's entries by index, as _entry resolves them,
    through one cursor: it keeps the cursor's entry and no other, so an
    entry read again is walked to again.  Each index is checked for
    nonnegativity on its first read only: every walk to an index is
    exact, so it lands on the same series, and one check serves every
    height that reads it.  at is the index the cursor was last moved
    to, -1 before the first read."""

    __slots__ = ("truncation", "at", "_move", "_checked")

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.at = -1
        self._move = _quotient_chain(truncation)
        self._checked = set()

    def __call__(self, n: Optional[int]) -> TruncatedSeries:
        index = _entry(n, self.truncation)
        entry = self._move(index)
        self.at = index
        if index not in self._checked:
            _nonnegative(entry)
            self._checked.add(index)
        return entry


def _nonnegative(quotient: TruncatedSeries) -> TruncatedSeries:
    bad = quotient.check_nonnegative()
    if bad is not None:
        raise ConjectureShapeError(
            f"quotient series negative at degree {bad}")
    return quotient


def milnor_quotient_series(n: Optional[int],
                           truncation: int) -> TruncatedSeries:
    """Dimensions of the Steenrod algebra modulo its n-th Milnor
    subalgebra, as a left module: divide out one exterior factor of
    degree 2^(i+1) - 1 for each 0 <= i <= n.  n=None divides out every
    factor in range, the stable quotient.

    >>> [milnor_quotient_series(1, 8).coefficient(d) for d in range(9)]
    [1, 0, 1, 0, 1, 0, 2, 1, 2]
    """
    sq2 = _quotient_chain(truncation)(_entry(n, truncation))
    return _nonnegative(sq2.times_binomial(2, 1, 1))


def milnor_sq2_quotient_series(k: Optional[int],
                               truncation: int) -> TruncatedSeries:
    """The same quotient with an extra degree-2 exterior factor divided
    out, matching cohomology of the k-th truncated tower summand.

    >>> [milnor_sq2_quotient_series(1, 8).coefficient(d) for d in range(9)]
    [1, 0, 0, 0, 1, 0, 1, 1, 1]
    """
    return _CheckedReader(truncation)(k)


# -- the epsilon bands -------------------------------------------------------

def _band_data(n: int) -> Tuple[int, int]:
    """Band data (power, offset) for truncation height n: power is the
    exponent of the largest 2-power at most n-1, offset = n - 1 - 2^power
    measures how far n-1 sits past it.  Offsets bound the two epsilon=1
    bands."""
    power = (n - 1).bit_length() - 1
    return power, n - 1 - 2 ** power


def epsilon(n: int, s: int) -> int:
    """1 on the lower band (s <= offset) and the upper band
    (s >= n - offset), 0 on the middle band between them."""
    if n <= 2:
        raise InvalidParameter(f"truncation height {n} must exceed 2")
    if not 1 <= s <= n - 1:
        raise InvalidParameter(f"summand index {s} outside 1..{n - 1}")
    _, offset = _band_data(n)
    if s <= offset or s >= n - offset:
        return 1
    return 0


def summand_suspensions(n: int,
                        cap: int) -> Iterator[Tuple[int, int, int, int]]:
    """All (s, level, eps, suspension) with suspension <= cap, where
    suspension = 2^(level + 3 + eps) - 8s and level runs upward from the
    band power, in order of s, then level.  Heights down to 2 are
    accepted so scans can cover the degenerate single-summand case.  A
    negative suspension would mean the conjectured shape is broken, so
    it raises instead of being skipped.

    eps is fixed on each band, and the suspension falls as s grows, so
    the summands with a suspension <= cap at the band power, the only
    ones with any, are the top of the band from
    ceil((2^(power + 3 + eps) - cap) / 8) up.  Only those are visited:
    O(cap) of them, whatever the height.
    """
    if n < 2:
        raise InvalidParameter(f"truncation height {n} must be >= 2")
    power, offset = _band_data(n)
    for lo, hi, eps in ((1, offset, 1), (offset + 1, n - offset - 1, 0),
                        (n - offset, n - 1, 1)):
        start = -((cap - 2 ** (power + 3 + eps)) // 8)
        for s in range(max(lo, start), hi + 1):
            level = power
            while True:
                suspension = 2 ** (level + 3 + eps) - 8 * s
                if suspension > cap:
                    break
                if suspension < 0:
                    raise ConjectureShapeError(
                        f"summand (s={s}, level={level}) suspends to "
                        f"{suspension} < 0 at height {n}")
                yield s, level, eps, suspension
                level += 1


def conjectured_bopn_cohomology(n: int, truncation: int) -> TruncatedSeries:
    """Conjectured graded dimensions for the n-th truncation: one copy
    of the doubly-quotiented series at quotient index level + 2 + eps,
    suspended by 2^(level + 3 + eps) - 8s, for each summand."""
    if n <= 2:
        raise InvalidParameter(f"truncation height {n} must exceed 2")
    return _conjectured(n, truncation, _CheckedReader(truncation))


def _conjectured(n: int, truncation: int,
                 read: _CheckedReader) -> TruncatedSeries:
    # The suspensions are gathered per quotient index, and the quotients
    # are read (and checked, the first time any height reads one) in
    # order of index from the end nearer the cursor, so within a height
    # the cursor moves one way only; a fresh reader reads ascending.
    shifts: Dict[int, List[int]] = {}
    for s, level, eps, suspension in summand_suspensions(n, truncation):
        shifts.setdefault(level + 2 + eps, []).append(suspension)
    order = sorted(shifts)
    if order and read.at - order[0] > order[-1] - read.at:
        order.reverse()
    return shifted_sum(((read(index), shifts[index]) for index in order),
                       truncation)


def bop_cohomology_series(truncation: int) -> TruncatedSeries:
    """Graded dimensions of the cohomology of BoP itself: the stable
    quotient suspended by each multiple of 8, i.e. over (1 - x^8)."""
    return _bop_cohomology(_CheckedReader(truncation))


def _bop_cohomology(read: _CheckedReader) -> TruncatedSeries:
    return read(None).times_binomial(8, -1, -1)


def first_appearance(q: int) -> int:
    """Smallest truncation height whose conjectured answer contains a
    summand suspended by exactly 8q: writing q = 2^J + u with
    0 <= u < 2^J, the height is 2^J + 1 - u.

    >>> [first_appearance(q) for q in range(1, 9)]
    [2, 3, 2, 5, 4, 3, 2, 9]
    """
    if q < 1:
        raise InvalidParameter(f"summand residue {q} must be >= 1")
    j = q.bit_length() - 1
    return 2 ** j + 1 - (q - 2 ** j)


# -- Sq^2-annihilated monomial decompositions --------------------------------

class SquareMonomial(namedtuple("SquareMonomial", "index factors")):
    """Decomposition of the j-th squared polynomial generator, j not a
    2-power, into generators b(m) of degree 2^(m+1): factors pairs each
    exponent base m with its multiplicity."""

    __slots__ = ()


def square_monomial(j: int) -> SquareMonomial:
    """Write j as a sum of distinct 2-powers 2^(s_1) < ... < 2^(s_k);
    for k >= 2 the square of the j-th generator is detected by the
    monomial with factors b(s_i - (i - 1)) to the power 2^i.  Ascending
    bit order keeps every base nonnegative (s_i >= i - 1), and the
    powers 2^i make the total degree come out to exactly 4j.

    >>> square_monomial(3).factors
    ((0, 2), (0, 4))
    >>> square_monomial(5).factors
    ((0, 2), (1, 4))
    """
    if j <= 0:
        raise InvalidParameter(f"generator index {j} must be positive")
    if j & (j - 1) == 0:
        raise NotApplicable(
            f"index {j} is a 2-power; its square is not decomposable")
    factors = []
    rest = j
    while rest:
        low = rest & -rest          # 2^(s_i), the lowest bit left
        i = len(factors)
        factors.append((low.bit_length() - 1 - i, 2 << i))
        rest ^= low
    return SquareMonomial(j, tuple(factors))


# -- verifiers ---------------------------------------------------------------

def verify_epsilon_partition(n_max: int = 64) -> VerificationReport:
    """The three epsilon bands partition 1..n-1 for every height
    3..n_max, and out-of-range summand indices are rejected.  With
    n_max <= 2 there is no height to check and the check passes.
    epsilon's value on each band is its own formula, so
    tests/test_conjecture.py::test_epsilon_band_structure pins it
    against an independent band rule instead, at heights 3..64."""
    params = {"n_max": n_max}

    def body():
        for n in range(3, n_max + 1):
            _, offset = _band_data(n)
            for s in range(1, n):
                in_lower = s <= offset
                in_upper = s >= n - offset
                in_middle = offset < s < n - offset
                if in_lower + in_middle + in_upper != 1:
                    return s, {"height": n, "stage": "overlap"}
            for s in (0, n):
                try:
                    epsilon(n, s)
                except InvalidParameter:
                    continue
                return s, {"height": n, "stage": "range"}

    return run_check("epsilon-partition", params, body)


def verify_stable_limit(limit_degree: int = 64) -> VerificationReport:
    """At heights 16, 20, 24, 33, 48 and 64 the conjectured series
    agrees with the cohomology of BoP exactly below the edge
    e(n) = 2^(p+4) - 1, p the band power of n: it agrees through
    min(e(n) - 1, limit degree), and differs at e(n) when e(n) is
    within the limit degree (stage "edge" if it agrees there)."""
    heights = (16, 20, 24, 33, 48, 64)
    params = {"heights": list(heights), "max_degree": limit_degree}

    def body():
        read = _CheckedReader(limit_degree)
        target = _bop_cohomology(read)
        for n in heights:
            edge = 2 ** (_band_data(n)[0] + 4) - 1
            bad = first_mismatch(_conjectured(n, limit_degree, read), target)
            if bad is not None and bad < edge:
                return bad, {"height": n}
            if edge <= limit_degree and bad != edge:
                return edge, {"height": n, "stage": "edge"}

    return run_check("conjecture-limit", params, body)


def verify_first_appearance(q_max: int = 64) -> VerificationReport:
    """The closed form for the first height containing each summand
    residue matches a direct scan over heights."""
    params = {"q_max": q_max}

    def body():
        cap = 8 * q_max
        seen: Dict[int, int] = {}
        for n in range(2, q_max + 2):
            for s, level, eps, suspension in summand_suspensions(n, cap):
                q = suspension // 8
                if 1 <= q <= q_max:
                    seen.setdefault(q, n)
        for q in range(1, q_max + 1):
            if seen.get(q) != first_appearance(q):
                return q, {"scanned": seen.get(q),
                           "formula": first_appearance(q)}

    return run_check("first-appearance", params, body)


def verify_square_decompositions(bound: int = 4096) -> VerificationReport:
    """Every 2-power index 2..bound is rejected as indecomposable; that
    is all this check covers.  The degree 4j and the nonnegative bases
    of every other index are what square_monomial's docstring proves,
    so tests/test_conjecture.py (test_square_monomial_matches_oracle)
    pins them through j = 8192 instead.  Only the 2-powers are walked,
    so a bound costs its bit length."""
    params = {"bound": bound}

    def body():
        j = 2
        while j <= bound:
            try:
                square_monomial(j)
            except NotApplicable:
                j *= 2
            else:
                return j, {"stage": "indecomposable"}

    return run_check("squares", params, body)


def verify_conjecture_shape(truncation: int = 128) -> VerificationReport:
    """Every summand suspension is nonnegative and the conjectured
    series has nonnegative coefficients for each height 3..16."""
    n_max = 16
    params = {"n_max": n_max, "max_degree": truncation}

    def body():
        read = _CheckedReader(truncation)
        for n in range(3, n_max + 1):
            # each height's sum is dropped before the next is built
            try:
                bad = _conjectured(n, truncation, read).check_nonnegative()
            except ConjectureShapeError as exc:
                return n, {"height": n, "error": str(exc)}
            if bad is not None:
                return bad, {"height": n}

    return run_check("conjecture-shape", params, body)
