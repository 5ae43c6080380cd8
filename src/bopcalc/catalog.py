"""Catalogued 2-local spectra: homotopy profiles and the bo space tables.

The spectra tracked here are the usual connective suspects at the prime 2:

* ``BP``      Brown-Peterson spectrum, homotopy polynomial on v_n in
              degree 2(2^n - 1)
* ``BPbar``   the wedge of copies of BP regraded by multiples of 8 that
              carries the same rational data as BoP
* ``BPn(k)``  truncated Brown-Peterson spectrum on v_1 .. v_k
* ``bu``      connective complex K-theory (2-local)
* ``bo``      connective real K-theory (2-local)
* ``BoP``     the torsion-minimal splitting summand lying between bo and
              BPbar; its torsion agrees with bo's and its free part is
              polynomial-sized
* ``F``       fiber spectrum measuring BoP against bo (free part only)
* ``X``       fiber spectrum measuring BPbar against bu (free part only)

A homotopy profile records, degree by degree, the rank of the free part
and the number of Z/2 summands.  None of the catalogued spectra carries
any other torsion, so this is a complete description through the
truncation degree.  homotopy_profile builds a profile on every call, and
the profile lives as long as its caller holds it; a caller that reads
one twice fetches it once and hands it on.  A profile is a read-only
value (its torsion map is a mappingproxy).  Those that BPbar, F and X
are derived from (BP; BoP and bo; BPbar, BP and bu) are built for the
derivation and dropped.  The BPn levels share one rule, bpn_ladder,
which yields BPn(1), BPn(2), ... one binomial pass apart and holds one
live rung: a BPn(k) profile costs k passes and keeps no level below
it, and a caller that reads every level in turn, as the splitting
regiment does, walks the ladder once and builds no BPn profile at all.

Space homology uses Omega-spectrum indexing: space i of a spectrum E has
pi_d = E_(d-i).  The bo spaces have classical tables, recorded here;
everything torsion-free, bu's Z x BU, U and BU included, comes from the
rank rule in the towers module.  For index i < 4 the bo tower agrees with
its 8-periodic counterpart, and the periodic tables are what the catalog
stores; from 4 to 6 the connective and periodic answers differ, and both
are available (connective by default, periodic on request).  No
connective table is catalogued from 7 up: at 7 the periodic one stands
in for it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from types import MappingProxyType

from .algebra import GeneratorTable
from .errors import InvalidParameter, NegativeDimension
from .series import (
    _as_int,
    geometric,
    product_over,
)

__all__ = [
    "SpectrumId",
    "SpaceRef",
    "HomotopyProfile",
    "bpn",
    "parse_spectrum",
    "homotopy_profile",
    "bpn_ladder",
    "bo_space_homology",
    "CATALOGUED_SPECTRA",
    "BP",
    "BPBAR",
    "BO",
    "BOP",
    "BU",
    "F",
    "X",
]

_TAGS = ("BP", "BPbar", "BPn", "bu", "bo", "BoP", "F", "X")


class SpectrumId(namedtuple("SpectrumId", "tag level")):
    """Name of a catalogued spectrum; BPn carries its truncation level."""

    __slots__ = ()

    def __new__(cls, tag: str, level: Optional[int] = None):
        if tag not in _TAGS:
            raise InvalidParameter(f"unknown spectrum tag {tag!r}")
        if tag == "BPn":
            level = None if level is None else _as_int(level, "BPn level")
            if level is None or level < 1:
                raise InvalidParameter("BPn needs a level k >= 1")
        elif level is not None:
            raise InvalidParameter(f"{tag} takes no level")
        return super().__new__(cls, tag, level)

    def __str__(self):
        return f"BPn({self.level})" if self.tag == "BPn" else self.tag


BP = SpectrumId("BP")
BPBAR = SpectrumId("BPbar")
BU = SpectrumId("bu")
BO = SpectrumId("bo")
BOP = SpectrumId("BoP")
F = SpectrumId("F")
X = SpectrumId("X")


def bpn(level: int) -> SpectrumId:
    return SpectrumId("BPn", level)


def parse_spectrum(name: str) -> SpectrumId:
    """Parse a CLI-style spectrum name such as ``bo`` or ``BPn:3``."""
    if name.startswith("BPn"):
        rest = name[3:].lstrip(":").strip("()")
        if not rest:
            raise InvalidParameter("BPn needs a level, e.g. BPn:2")
        try:
            return bpn(int(rest))
        except ValueError as exc:
            raise InvalidParameter(f"bad BPn level {rest!r}") from exc
    if name in _TAGS and name != "BPn":
        return SpectrumId(name)
    raise InvalidParameter(f"unknown spectrum {name!r}")


class SpaceRef(namedtuple("SpaceRef", "spectrum index")):
    """Space `index` in the Omega spectrum for `spectrum`."""

    __slots__ = ()

    def __new__(cls, spectrum: SpectrumId, index: int):
        return super().__new__(cls, spectrum, _as_int(index, "space index"))


class HomotopyProfile(namedtuple("HomotopyProfile",
                                 "spectrum free_ranks torsion_z2")):
    """Free ranks (as a series) and Z/2 counts per degree, through N.
    torsion_z2 is kept as a read-only copy of the mapping passed in,
    whose degrees and counts are ints and whose counts are >= 0."""

    __slots__ = ()

    def __new__(cls, spectrum: SpectrumId, free_ranks: TruncatedSeries,
                torsion_z2: Mapping[int, int]):
        torsion = {}
        for d, c in torsion_z2.items():
            d = _as_int(d, "torsion degree")
            c = _as_int(c, "torsion count")
            if c < 0:
                raise NegativeDimension(
                    d, f"negative torsion count {c} at degree {d}")
            torsion[d] = c
        return super().__new__(cls, spectrum, free_ranks,
                               MappingProxyType(torsion))

    @property
    def truncation(self) -> int:
        return self.free_ranks.truncation

    def free_rank(self, degree: int) -> int:
        """Rank of the free part; connectivity makes negative degrees 0."""
        if degree < 0:
            return 0
        return self.free_ranks.coefficient(degree)


# -- homotopy profiles -------------------------------------------------------

def _vn_degrees() -> Iterator[int]:
    """Degrees 2(2^n - 1) of the polynomial homotopy generators of BP."""
    return (2 * (2 ** n - 1) for n in itertools.count(1))


def _bo_torsion(truncation: int) -> Dict[int, int]:
    """One Z/2 in each degree congruent to 1 or 2 mod 8, degree >= 1."""
    out = {}
    for d in range(1, truncation + 1):
        if d % 8 in (1, 2):
            out[d] = 1
    return out


def bpn_ladder(truncation: int,
               top: Optional[int] = None) -> Iterator[TruncatedSeries]:
    """Free ranks of BPn(1), BPn(2), ..., BPn(top) through the truncation,
    one rung at a time: BPn(k) is BPn(k-1) with v_k adjoined, one binomial
    pass on the rung below.  BPn(1) always comes; past the last v_k at or
    below the truncation every level has the same free ranks, so the
    ladder stops there (top=None climbs to that level).

    >>> [r.coefficient(6) for r in bpn_ladder(8)]
    [1, 2]
    """
    if top is not None:  # v_k sits in degree 2^(k+1) - 2: none past this
        top = min(top, truncation.bit_length() + 2)
    rungs = itertools.islice(_vn_degrees(), 1, top)
    free = geometric(2, truncation)
    yield free
    for degree in itertools.takewhile(lambda d: d <= truncation, rungs):
        free = free.times_binomial(degree, -1, -1)
        yield free


def homotopy_profile(spectrum: SpectrumId, truncation: int) -> HomotopyProfile:
    """Homotopy groups of a catalogued spectrum through the truncation,
    built afresh on each call.

    >>> prof = homotopy_profile(BP, 8)
    >>> [prof.free_rank(d) for d in (2, 4, 6, 8)]
    [1, 1, 2, 2]
    >>> homotopy_profile(BOP, 12).torsion_z2[9]
    1
    """
    tag = spectrum.tag
    if tag == "BP":
        free = product_over(_vn_degrees(), truncation)
        return HomotopyProfile(spectrum, free, {})
    if tag == "BPbar":
        bp = homotopy_profile(BP, truncation).free_ranks
        return HomotopyProfile(spectrum, bp.times_binomial(8, -1, -1), {})
    if tag == "BPn":
        for free in bpn_ladder(truncation, spectrum.level):
            pass  # the top rung is this level's
        return HomotopyProfile(spectrum, free, {})
    if tag == "bu":
        return HomotopyProfile(spectrum, geometric(2, truncation), {})
    if tag == "bo":
        free = geometric(4, truncation)
        return HomotopyProfile(spectrum, free, _bo_torsion(truncation))
    if tag == "BoP":
        # 4 and 8 merged into the degrees 6, 14, 30, ... of v_2, v_3, ...
        degrees = itertools.chain([4, 6, 8],
                                  itertools.islice(_vn_degrees(), 2, None))
        free = product_over(degrees, truncation)
        return HomotopyProfile(spectrum, free, _bo_torsion(truncation))
    if tag == "F":
        return _difference_profile(spectrum, BOP, BO, truncation)
    if tag == "X":
        return _difference_profile(spectrum, BPBAR, BU, truncation)
    raise InvalidParameter(f"unknown spectrum tag {tag!r}")


def _difference_profile(spectrum, total, sub, truncation) -> HomotopyProfile:
    """Free part of a fiber whose homotopy splits off the sub-spectrum."""
    free = (homotopy_profile(total, truncation).free_ranks
            - homotopy_profile(sub, truncation).free_ranks)
    bad = free.check_nonnegative()
    if bad is not None:
        raise NegativeDimension(bad, f"profile of {spectrum} broken at {bad}")
    return HomotopyProfile(spectrum, free, {})


CATALOGUED_SPECTRA = (BP, BPBAR, bpn(1), bpn(2), bpn(3), bpn(4),
                      BU, BO, BOP, F, X)


# -- classical space homology tables -----------------------------------------

def _degrees(start: int, step: int, truncation: int) -> Dict[int, int]:
    return {d: 1 for d in range(start, truncation + 1, step)}


def _ko_table(residue: int, n: int) -> GeneratorTable:
    """Homology of space `residue` in the 8-periodic real K-theory tower."""
    if residue == 0:
        return GeneratorTable("polynomial", _degrees(1, 1, n), 1, n)
    if residue == 1:
        return GeneratorTable("polynomial", _degrees(1, 2, n), 0, n)
    if residue == 2:
        return GeneratorTable("polynomial", _degrees(2, 4, n), 0, n)
    if residue == 3:
        return GeneratorTable("exterior", _degrees(3, 4, n), 0, n)
    if residue == 4:
        return GeneratorTable("polynomial", _degrees(4, 4, n), 1, n)
    if residue == 5:
        counts = _degrees(5, 4, n)
        if n >= 1:
            counts[1] = 1
        return GeneratorTable("exterior", counts, 0, n)
    if residue == 6:
        return GeneratorTable("exterior", _degrees(2, 2, n), 0, n)
    if residue == 7:
        return GeneratorTable("exterior", _degrees(1, 1, n), 0, n)
    raise InvalidParameter(f"residue {residue} out of range")


def _bo_connective_table(i: int, n: int) -> GeneratorTable:
    """Connective tables where they differ from the periodic ones (4..7)."""
    if i == 4:
        return GeneratorTable("polynomial", _degrees(4, 4, n), 0, n)
    if i == 5:
        return GeneratorTable("exterior", _degrees(5, 4, n), 0, n)
    if i == 6:
        counts = {d: 1 for d in range(2, n + 1, 2) if d & (d - 1)}
        return GeneratorTable("exterior", counts, 0, n)
    if i == 7:
        # No separate connective table is catalogued at index 7; the
        # periodic one stands in for it.  See the delooping regression
        # tests for where this matters.
        return _ko_table(7, n)
    raise InvalidParameter(f"no connective table at index {i}")


def bo_space_homology(index: int, truncation: int,
                      periodic: bool = False) -> GeneratorTable:
    """Mod-2 homology of space `index` in the bo tower.

    Below index 4 the connective and 8-periodic towers coincide and the
    catalogued table is returned outright.  For indices 4..7 the default
    is the connective answer; periodic=True asks for the 8-periodic one
    instead.  Above index 7 only the periodic tower is catalogued.

    >>> sorted(bo_space_homology(2, 20).counts)
    [2, 6, 10, 14, 18]
    >>> bo_space_homology(-4, 12).component_rank
    1
    """
    # each table fills a dict over degrees up to N one key at a time;
    # sized first, past sys.maxsize len() raises OverflowError at once
    len(range(truncation + 1))
    if index < 4:
        return _ko_table(index % 8, truncation)
    if index <= 7:
        if periodic:
            return _ko_table(index, truncation)
        return _bo_connective_table(index, truncation)
    if periodic:
        return _ko_table(index % 8, truncation)
    raise InvalidParameter(
        f"no connective bo table catalogued at index {index}; "
        "pass periodic=True for the 8-periodic tower")

