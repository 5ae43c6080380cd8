"""Planted faults: every way a registered check is made to fail on purpose.

Each row runs one check of the CLI registry, `cli._REGISTRY[check].run(
scale, inject_fault)`, with its plant in place.  A plant is a tuple of
(module, attribute, make) triples: for the length of the run the
attribute is make(real), real being its value before the plant.  `want`
is what the report must say, exactly: the pair (first_failure_degree,
detail); or a function of the scale that works that pair out by an
independent route (the oracles of tests/oracles.py, or real profiles
summed by hand), called before anything is planted; or None for a
planted run that must still pass.

Every check has at least one failing row, and the rows with
inject_fault set are the CLI's --inject-fault checks, at the first
failing degree its help states and one below it; test_mutants.py
asserts both, and runs the UNNAMED rows; test_towers.py runs the rows
whose id prefixes are in NAMED, under their long-standing test names.
"""

from collections import namedtuple

import oracles
from bopcalc import catalog, conjecture, splitting, towers
from bopcalc.algebra import GeneratorTable
from bopcalc.catalog import (
    BO,
    BOP,
    BP,
    BPBAR,
    BU,
    F,
    SpaceRef,
    bo_space_homology,
    bpn,
    homotopy_profile,
)
from bopcalc.cli import _REGISTRY
from bopcalc.errors import NegativeDimension
from bopcalc.series import TruncatedSeries, make_polynomial

row = namedtuple("Mutant", "id check scale plant want inject_fault",
                defaults=((), None, False))


def apply(plant, setattr):
    """Put each triple of a plant in place through setattr(module,
    attribute, value), monkeypatch.setattr for a test."""
    for module, name, make in plant:
        setattr(module, name, make(getattr(module, name)))


def _with_generator(table, degree):
    """The table with one more generator in the given degree."""
    counts = dict(table.counts)
    counts[degree] = counts.get(degree, 0) + 1
    return GeneratorTable(table.kind, counts, table.component_rank,
                          table.truncation)


def _series(table, n):
    """A table's Poincare series through n, by oracle, as a dict."""
    coeffs = oracles.table_series(table.counts, table.kind == "exterior", n)
    return {d: c for d, c in enumerate(coeffs) if c}


def _first_difference(left, right, n):
    return next(d for d in range(n + 1) if left.get(d, 0) != right.get(d, 0))


# -- splitting ----------------------------------------------------------------

def bpn_rank(level, degree):
    """BPn(level) with one more free rank in `degree`, wherever the
    splitting module reads its ranks: as a profile, and as the rung the
    BPn ladder yields for that level only (the rungs above are built
    from the real one)."""
    def plant(ranks, truncation):
        ranks = list(ranks.coefficients)
        ranks[degree] += 1
        return TruncatedSeries(ranks, truncation)

    def profile(real):
        def planted(spectrum, truncation):
            profile = real(spectrum, truncation)
            if spectrum != bpn(level):
                return profile
            return type(profile)(spectrum,
                                 plant(profile.free_ranks, truncation),
                                 profile.torsion_z2)
        return planted

    def ladder(real):
        def planted(truncation, top=None):
            for k, ranks in enumerate(real(truncation, top), 1):
                yield plant(ranks, truncation) if k == level else ranks
        return planted

    return ((splitting, "homotopy_profile", profile),
            (splitting, "bpn_ladder", ladder))


def _splitting_failure(level, degree, n):
    """Where BoP's free ranks through n first leave bo's plus one shifted
    BPn profile per splitting index, BPn(level) gaining a rank in
    `degree`."""
    total = list(homotopy_profile(BO, n).free_ranks.coefficients)
    for k in range(2, 8):
        ranks = list(homotopy_profile(bpn(k), n).free_ranks.coefficients)
        ranks[degree] += k == level
        for u in range(2 ** (k - 2)):
            shift = 2 ** (k + 1) + 8 * u - 2
            for d in range(shift, n + 1):
                total[d] += ranks[d - shift]
    bop = homotopy_profile(BOP, n).free_ranks.coefficients
    return next(d for d in range(n + 1) if bop[d] != total[d])


def _accepts_offset(level, offset):
    """SplittingIndex accepting (level, offset) past its last offset."""
    def make(real):
        class Planted(real):
            __slots__ = ()

            def __new__(cls, k, u):
                if (k, u) == (level, offset):
                    return tuple.__new__(cls, (k, u))
                return super().__new__(cls, k, u)

        return Planted

    return ((splitting, "SplittingIndex", make),)


def _indices(change):
    return ((splitting, "splitting_indices",
             lambda real: lambda limit: change(list(real(limit)))),)


PLANTED_BPN_RANKS = [(2, 0), (2, 9), (3, 4), (3, 40), (4, 0), (5, 30)]

SPLITTING = [
    # the fault drops a two-cell factor from the layer series
    *(row(f"{check}-fault-{n}", check, n, inject_fault=True, want=want)
      for check, want in (("rhs-one", (8, {"stage": "master"})),
                          ("head-induction", (8, {"level": 2})))
      for n in (64, 8)),
    row("rhs-one-fault-7", "rhs-one", 7, inject_fault=True),
    row("head-induction-fault-7", "head-induction", 7, inject_fault=True),
    # one BPn level gains a free rank: rational-splitting fails where the
    # per-summand sum of shifted profiles first leaves BoP; bop6-splitting
    # passes, since F is BoP - bo and the tower reads no BPn rank
    *(row(f"rational-splitting-bpn{level}-{degree}", "rational-splitting",
          160, bpn_rank(level, degree),
          lambda n, level=level, degree=degree:
          (_splitting_failure(level, degree, n), {"side": "free"}))
      for level, degree in PLANTED_BPN_RANKS),
    *(row(f"bop6-splitting-bpn{level}-{degree}", "bop6-splitting", 160,
          bpn_rank(level, degree))
      for level, degree in PLANTED_BPN_RANKS),
    # the first level whose recursion reads the planted rung fails at the
    # planted degree; BPn(1) is the level below the first step
    *(row(f"bpn-rank-recursion-bpn{level}-{degree}", "bpn-rank-recursion",
          128, bpn_rank(level, degree), (degree, {"level": failing}))
      for level, degree, failing in ((1, 10, 2), (2, 0, 2), (3, 40, 3),
                                     (6, 127, 6))),
    # level 3 accepts the offset just past its last one, 2^(3-2) = 2; the
    # check fails at the bottom of level 4's window, 2^(3+2) + 4
    row("irreducibility-offset-3-2", "irreducibility", 12,
        _accepts_offset(3, 2),
        (36, {"level": 3, "offset": 2, "stage": "boundary"})),
    # a dropped summand: 44 is missing from the connectivities
    row("index-bijection-dropped", "index-bijection", 100,
        _indices(lambda indices: [i for i in indices if i != (4, 1)]),
        (44, None)),
    # a repeated summand: 12 twice, where the progression has 20
    row("index-bijection-repeated", "index-bijection", 100,
        _indices(lambda indices: indices[:1] + indices), (12, None)),
    # the last summand lost: the progression runs one further
    row("index-bijection-last-lost", "index-bijection", 100,
        _indices(lambda indices: indices[:-1]),
        (100, {"progression": 12, "connectivities": 11})),
    # a summand past the bound: the connectivities run one further
    row("index-bijection-past-bound", "index-bijection", 100,
        _indices(lambda indices:
                 indices + [splitting.SplittingIndex(5, 5)]),
        (108, {"progression": 12, "connectivities": 13})),
]


# -- towers -------------------------------------------------------------------

def _bo_generator(target, degree):
    """bo_target, as the towers module reads it, with one more generator
    in `degree`."""
    def make(real):
        def planted(index, truncation, periodic=False):
            table = real(index, truncation, periodic)
            return _with_generator(table, degree) if index == target \
                else table
        return planted

    return ((towers, "bo_space_homology", make),)


def _tower(plants):
    """bop_tower with the table of space i replaced by plants[i]: a
    table, the degree of one more generator, or an exception raised when
    the walk reaches space i."""
    def make(real):
        def planted(*args):
            for i, table in enumerate(real(*args), 2):
                plant = plants.get(i, table)
                if isinstance(plant, Exception):
                    raise plant
                yield _with_generator(table, plant) \
                    if isinstance(plant, int) else plant
        return planted

    return ((towers, "bop_tower", make),)


def _factorization_failure(degree, n):
    """Where the naive product of the bo_2 and bo_4 series, bo_4 gaining
    a generator in `degree`, first leaves bu_2's."""
    product = oracles.naive_mul(
        _series(bo_space_homology(2, n), n),
        _series(_with_generator(bo_space_homology(4, n), degree), n), n)
    bu2 = _series(towers.rank_rule_homology(SpaceRef(BU, 2), n), n)
    return _first_difference(product, bu2, n)


def _profile_rank(spectrum, degree):
    """The spectrum's profile with one more free rank in `degree`,
    wherever it is read: by the splitting module, and inside the
    catalogue, whose derived profiles (BPbar from BP, F from BoP and bo)
    read it too."""
    def make(real):
        def planted(target, truncation):
            profile = real(target, truncation)
            if target != spectrum:
                return profile
            bump = make_polynomial({degree: 1}, truncation)
            return type(profile)(target, profile.free_ranks + bump,
                                 profile.torsion_z2)
        return planted

    return ((catalog, "homotopy_profile", make),
            (splitting, "homotopy_profile", make))


def _bpbar_exponent(index, degree):
    """BPbar_index's exponents, as the tower reads its middles, with one
    more in `degree`."""
    def make(real):
        def planted(spectrum, i, truncation, profile):
            v = real(spectrum, i, truncation, profile)
            if (spectrum, i) != (BPBAR, index):
                return v
            return v + make_polynomial({degree: 1}, truncation)
        return planted

    return ((towers, "_rank_rule_exponents", make),)


def _bop6_failure(n, spectrum=None, degree=None, bo4=None):
    """Where BoP spaces 4..6 first leave F_i x bo_i, by naive series:
    space i is BPbar_(i-2)'s series over space i - 2's, from spaces 2
    and 3 = F x bo.  BPbar's and F's free ranks are partition counts,
    the profile of `spectrum` gaining a rank in `degree`, and bo_4's
    table gains a generator in degree bo4.  (degree, {"index": i}), or
    None where every space agrees."""
    def planted(ranks, of):
        if of == spectrum:
            ranks[degree] += 1
        return ranks

    v = oracles.bp_generator_degrees(n)
    bp = planted(oracles.partition_counts(v, n), BP)
    bpbar = oracles.naive_mul(dict(enumerate(bp)),
                              oracles.geometric_dict(8, n), n)
    bpbar = planted([bpbar.get(d, 0) for d in range(n + 1)], BPBAR)
    bop = planted(oracles.partition_counts([4, 6, 8] + v[2:], n), BOP)
    bo = planted([int(d % 4 == 0) for d in range(n + 1)], BO)
    fiber = planted([a - b for a, b in zip(bop, bo)], F)

    def rank_rule(profile, i):
        counts = {d: profile[d - i] for d in range(i, n + 1) if profile[d - i]}
        kind = "exterior" if i % 2 else "polynomial"
        return _series(GeneratorTable(kind, counts, 0, n), n)

    def product(i):
        base = bo_space_homology(i, n)
        if i == 4 and bo4 is not None:
            base = _with_generator(base, bo4)
        return oracles.naive_mul(rank_rule(fiber, i), _series(base, n), n)

    space = {2: product(2), 3: product(3)}
    for i in (4, 5, 6):
        space[i] = oracles.naive_mul(
            rank_rule(bpbar, i - 2), oracles.naive_invert(space[i - 2], n), n)
        if space[i] != product(i):
            return _first_difference(space[i], product(i), n), {"index": i}
    return None


def _bump_rank(table):
    return GeneratorTable(table.kind, table.counts, table.component_rank + 1,
                          table.truncation)


def _kind_changed(real):
    def planted(*args, **kwargs):
        return [GeneratorTable("even_unresolved" if t.kind == "polynomial"
                               else t.kind,
                               t.counts, t.component_rank, t.truncation)
                for t in real(*args, **kwargs)]
    return planted


# a Poincare series with two classes in degree 2: the Hurewicz probe,
# the one series bop-tower builds, fails there once N reaches 2
_HUREWICZ = ((towers, "poincare_series",
              lambda real: lambda *tables: real(*tables) + make_polynomial(
                  {2: 1}, tables[0].truncation)),)

TOWERS = [
    # one extra generator in bo_4: the report fails where the naive
    # product of the bo_2 and bo_4 series first leaves bu_2's
    *(row(f"bu-bo-factorization-bo4-{degree}", "bu-bo-factorization", 48,
          _bo_generator(4, degree),
          lambda n, degree=degree:
          (_factorization_failure(degree, n), None))
      for degree in (1, 4, 7, 12, 30, 48)),
    # the fault raises the F rank in degree 7; the sweeps against the
    # oracle are test_towers.py's test_negative_tower_fault_sweep_*
    *(row(f"negative-tower-fault-{n}", "negative-tower", n,
          inject_fault=True, want=(1, {"index": -8})) for n in (32, 1)),
    row("negative-tower-fault-0", "negative-tower", 0, inject_fault=True),
    # one returned table gains a generator of its space's parity while
    # the solver's own exponents stay right: the bar walk, which starts
    # from space 2 and reads no later table, leaves it at that degree;
    # a planted space 2 starts the walk, and its polynomial generator in
    # degree 10 suspends to an exterior one in degree 11 at space 3
    *(row(f"bop-tower-bar-agreement-{index}", "bop-tower", 32,
          _tower({index: 10 - index % 2}),
          (10 - index % 2 + (index == 2),
           {"stage": "bar_agreement", "index": max(index, 3),
            "field": "counts"}))
      for index in range(2, 13)),
    # one more exponent in BPbar_4, the middle of space 6: the solver
    # divides it in, and the bar walk and the product both see it there
    *(row(f"{check}-bpbar4-30-{n}", check, n, _bpbar_exponent(4, 30),
          (30, want))
      for n in (60, 256)
      for check, want in (("bop-tower", {"stage": "bar_agreement",
                                         "index": 6, "field": "counts"}),
                          ("bop6-splitting", {"index": 6}))),
    # a space's table has a generator of the wrong parity: the parity
    # stage names the lowest such degree, whether the table is all wrong
    # or mixed
    *(row(f"bop-tower-parity-{index}-{'-'.join(map(str, counts))}",
          "bop-tower", 30,
          _tower({index: GeneratorTable(kind, counts, truncation=30)}),
          (want, {"stage": "parity", "index": index}))
      for index, kind, counts, want in (
          (2, "polynomial", {3: 1, 5: 2}, 3),
          (2, "polynomial", {2: 1, 3: 1}, 3),
          (3, "exterior", {6: 1}, 6),
          (3, "exterior", {3: 1, 4: 1}, 4))),
    # the check reads the tower once, so a later stage can fail before
    # an earlier one has seen every space; the report is still the
    # earliest stage's first failure.  Space 3 has the wrong parity (and
    # leaves the bar walk), then the tower raises further up: the tower
    # stage wins
    row("bop-tower-earliest-tower", "bop-tower", 30,
        _tower({3: GeneratorTable("exterior", {4: 1}, truncation=30),
                9: NegativeDimension(7)}),
        (7, {"stage": "tower"})),
    # space 4 leaves the bar walk, and space 11 arrives later with the
    # wrong parity: the parity stage wins
    row("bop-tower-earliest-parity", "bop-tower", 30,
        _tower({4: 10,
                11: GeneratorTable("exterior", {6: 1}, truncation=30)}),
        (6, {"stage": "parity", "index": 11})),
    *(row(f"bop-tower-hurewicz-{n}", "bop-tower", n, _HUREWICZ,
          None if n < 2 else (2, {"stage": "hurewicz", "index": 2}))
      for n in (0, 1, 2, 3, 32)),
    # bo_4's table gains one generator; the solved tower does not read
    # it, so bop6-splitting fails at space 4, where its naive product
    # leaves the solved space
    *(row(f"bop6-splitting-bo4-{degree}", "bop6-splitting", 32,
          _bo_generator(4, degree),
          lambda n, degree=degree: _bop6_failure(n, bo4=degree))
      for degree in (2, 4, 6, 8, 14, 20, 32)),
    # one profile gains a free rank at d: every one reaches the tower,
    # through BPbar's middles or F's fiber factors, and bop6-splitting
    # fails where the naive series of the spaces leave the products
    *(row(f"bop6-splitting-{spectrum}-{degree}", "bop6-splitting", 64,
          _profile_rank(spectrum, degree),
          lambda n, spectrum=spectrum, degree=degree:
          _bop6_failure(n, spectrum, degree))
      for spectrum in (BP, BPBAR, F, BOP, BO) for degree in (8, 20, 30)),
    row("bo-deloopings-component-rank", "bo-deloopings", 32,
        ((towers, "tor_suspend",
          lambda real: lambda t, r=0: _bump_rank(real(t, r))),),
        (0, {"step": "2->3", "mode": "exact", "field": "component_rank"})),
    # a series-mode step compares exponents; a generator planted in its
    # target shows at its degree, before any later step reads that table
    *(row(f"bo-deloopings-series-bo{target}-{degree}", "bo-deloopings", 32,
          _bo_generator(target, degree),
          (degree, {"step": f"{target - 1}->{target}", "mode": "series"}))
      for target in (1, 2, 4, 6) for degree in (3, 5, 8, 13, 20)),
    row("rank-rule-bss-kind", "rank-rule-bss", 12,
        ((towers, "bss_iterate", _kind_changed),),
        (0, {"spectrum": "BP", "index": -4, "field": "kind"})),
]


# -- conjecture ---------------------------------------------------------------

# each chain entry read one index further up: the first mismatch of
# heights 16, 20 and 24 moves past their edges 127, 255 and 255
ENTRY_ONE_UP = ((conjecture, "_entry",
                 lambda real: lambda n, truncation:
                 real(n if n is None else n + 1, truncation)),)


def _negative_entries(planted_degree):
    """The Sq^2 quotient chain with entry k negative at degree
    planted_degree[k]."""
    def make(real):
        def planted(truncation):
            move = real(truncation)

            def read(n):
                if n not in planted_degree:
                    return move(n)
                coefficients = list(move(n).coefficients)
                coefficients[planted_degree[n]] = -1
                return TruncatedSeries(coefficients, truncation)

            return read
        return planted

    return ((conjecture, "_quotient_chain", make),)


def _bumped_at_100(real):
    def planted(read):
        target = real(read)
        return target + make_polynomial({100: 1}, target.truncation)
    return planted


def _epsilon_zero(height, s):
    return ((conjecture, "epsilon",
             lambda real: lambda n, index:
             0 if (n, index) == (height, s) else real(n, index)),)


CONJECTURE = [
    # a 2-power accepted
    row("squares-indecomposable-2", "squares", 64,
        ((conjecture, "square_monomial",
          lambda real: lambda j:
          conjecture.SquareMonomial(j, ((1, 2),)) if j == 2 else real(j)),),
        (2, {"stage": "indecomposable"})),
    # the offset shows only at the edge stage, from scale 127 up
    *(row(f"conjecture-limit-entry-offset-{n}", "conjecture-limit", n,
          ENTRY_ONE_UP, want) for n, want in (
              (64, None), (126, None),
              (256, (127, {"height": 16, "stage": "edge"})))),
    row("conjecture-limit-below-edge", "conjecture-limit", 256,
        ((conjecture, "_bop_cohomology", _bumped_at_100),),
        (100, {"height": 16})),
    row("first-appearance-off-by-one", "first-appearance", 64,
        ((conjecture, "first_appearance",
          lambda real: lambda q: real(q) + (q == 5)),),
        (5, {"scanned": 4, "formula": 5})),
    # height 3 is the first to read entry 5
    row("conjecture-shape-negative", "conjecture-shape", 128,
        _negative_entries({5: 40}),
        (3, {"height": 3,
             "error": "quotient series negative at degree 40"})),
    # height 3 reads both entries, from a fresh reader in ascending
    # order, so entry 4 is checked first
    row("conjecture-shape-lower-of-two", "conjecture-shape", 128,
        _negative_entries({4: 60, 5: 40}),
        (3, {"height": 3,
             "error": "quotient series negative at degree 60"})),
    # the index n itself accepted
    row("epsilon-partition-range-7-7", "epsilon-partition", 64,
        _epsilon_zero(7, 7), (7, {"height": 7, "stage": "range"})),
    # the index 0 accepted, at the first height
    row("epsilon-partition-range-3-0", "epsilon-partition", 64,
        _epsilon_zero(3, 0), (0, {"height": 3, "stage": "range"})),
    # at height 6 an offset of 4 puts s = 2 in the lower band and the
    # upper band (s >= 6 - 4) at once
    row("epsilon-partition-overlap", "epsilon-partition", 64,
        ((conjecture, "_band_data",
          lambda real: lambda n:
          (real(n)[0], 4) if n == 6 else real(n)),),
        (2, {"height": 6, "stage": "overlap"})),
]

ROWS = SPLITTING + TOWERS + CONJECTURE
BY_ID = {mutant.id: mutant for mutant in ROWS}
NAMED = ("bop-tower-bar-agreement-", "bop6-splitting-bo4-",
         "bo-deloopings-series-")
UNNAMED = [mutant for mutant in ROWS if not mutant.id.startswith(NAMED)]


def outcome(mutant, setattr):
    """(want, got): what a row's report must say, worked out before its
    plant goes in, and what it says then, as (check, failure or None)."""
    want = mutant.want(mutant.scale) if callable(mutant.want) else mutant.want
    apply(mutant.plant, setattr)
    report = _REGISTRY[mutant.check].run(mutant.scale, mutant.inject_fault)
    got = None if report.passed else (report.first_failure_degree,
                                      report.detail)
    return (mutant.check, want), (report.check, got)
