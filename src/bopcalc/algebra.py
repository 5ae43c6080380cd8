"""Free graded-commutative algebras presented by generator counts.

Over the field with two elements, the homology Hopf algebras this package
manipulates are free on families of generators, so a generator table
(kind, degree -> count, component rank) is a complete presentation.  Kinds:

* ``polynomial``      polynomial generators, series factor 1/(1-x^d)
* ``exterior``        exterior generators, series factor (1+x^d)
* ``divided_power``   divided-power generators; same series as polynomial,
                      but multiplicative extensions are unresolved
* ``even_unresolved`` even-degree generators of unknown multiplicative
                      structure; series treated as polynomial

The component rank counts degree-0 generators coming from a free abelian
group of components; the group ring of one such component behaves like a
polynomial algebra on one degree-0 generator.  Component generators never
contribute to the Poincare series (which describes one component), but
each one suspends to a degree-1 generator of the next delooping.

The bar-construction step is tor_suspend: polynomial tables on even
generators give exterior tables one degree up, exterior tables on odd
generators give divided-power tables one degree up, and the spectral
sequence collapses, so counts carry over verbatim.  Whether a
divided-power answer is actually polynomial is a genuine extension
question; resolve_extensions commits a table to polynomial once the
caller has settled it.

A table also has a direct route to its Euler exponents: the unique
integers v_d with P = prod_d (1 - x^d)^(-v_d) for its Poincare series P
(Metropolis & Rota, "Witt vectors and the algebra of necklaces", 1983).
exponents reads them off the counts as a relabelling: a polynomial-type
generator of degree d adds 1 to v_d, and an exterior one, since
1 + x^d = (1 - x^(2d))/(1 - x^d), adds 1 to v_d and -1 to v_(2d).
table_from_exponents inverts it: the exterior count at d is v_d plus the
count at d/2, filled in by doubling blocks of degrees.  A tensor product
of tables of one kind is a sum of exponent vectors (and of component
ranks) and a short exact sequence a difference, each an O(N) pass; the
tower solver and the tower checks work there.

log_from_exponents is the one pass from exponents to the log-derivative
L(P) = x P'/P (series.log_derivative), L_n = sum over d | n of d*v_d,
and poincare_series is the Euler pass on that L.  extract_generators
goes the other way, from a series through its L and back to exponents
by an ascending sieve, so a series and a table meet only in exponent
space.  Two exponent vectors first differ where their L's, and so their
series, do: if they agree below m, the L's agree below m and differ at
m by m times the exponents' difference (series.py says why L's first
differ where the series do).
"""

from __future__ import annotations

import itertools
from math import isqrt
from operator import add, floordiv, mul, sub

from .errors import (
    InvalidKind,
    InvalidParameter,
    NegativeDimension,
    TruncationError,
    UnresolvedExtension,
)
from .series import (
    TruncatedSeries,
    _from_ints,
    _listed,
    from_log_derivative,
    log_derivative,
)

__all__ = [
    "KINDS",
    "GeneratorTable",
    "poincare_series",
    "poincare_log_derivative",
    "exponents",
    "table_from_exponents",
    "log_from_exponents",
    "tor_suspend",
    "resolve_extensions",
    "extract_generators",
    "off_parity",
]

KINDS = ("polynomial", "exterior", "divided_power", "even_unresolved")


class GeneratorTable:
    """Counts of free algebra generators per degree, up to a truncation.

    counts maps degree -> number of generators; only degrees 1..truncation
    with a positive count are stored.  The constructor takes the counts
    as a mapping or as (degree, count) pairs, which it reads once, so a
    builder can hand it a lazy iterator and never hold a second copy.
    Treat instances as immutable.
    """

    __slots__ = ("kind", "counts", "component_rank", "truncation")

    def __init__(self, kind: str,
                 counts: Union[Mapping[int, int], Iterable[Tuple[int, int]]],
                 component_rank: int = 0, truncation: int = 0):
        if kind not in KINDS:
            raise InvalidKind(f"unknown kind {kind!r}")
        if truncation < 0:
            raise TruncationError("truncation degree must be >= 0")
        if component_rank < 0:
            raise InvalidParameter("component rank must be >= 0")
        clean: Dict[int, int] = {}
        for d, c in counts.items() if hasattr(counts, "items") else counts:
            if not 1 <= d <= truncation:
                raise TruncationError(
                    f"generator degree {d} outside 1..{truncation}")
            if c < 0:
                raise NegativeDimension(d, f"negative count {c} at degree {d}")
            if c:
                clean[d] = int(c)
        self.kind = kind
        self.counts = clean
        self.component_rank = int(component_rank)
        self.truncation = truncation

    def count(self, degree: int) -> int:
        return self.counts.get(degree, 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratorTable)
                and self.kind == other.kind
                and self.counts == other.counts
                and self.component_rank == other.component_rank
                and self.truncation == other.truncation)

    __hash__ = None

    def __repr__(self):
        return (f"GeneratorTable({self.kind!r}, {self.counts!r}, "
                f"component_rank={self.component_rank}, "
                f"truncation={self.truncation})")

    def lazy_json(self) -> dict:
        """Schema: kind, component_rank, generators (sorted), truncation;
        the generator rows an iterator, each made as it is read."""
        return {
            "kind": self.kind,
            "component_rank": self.component_rank,
            "generators": ({"degree": d, "count": self.counts[d]}
                           for d in sorted(self.counts)),
            "truncation": self.truncation,
        }

    def to_json(self) -> dict:
        """lazy_json() with its rows listed."""
        return _listed(self.lazy_json())

    def csv_rows(self) -> Iterator[Tuple[int, int]]:
        """Rows (degree, count) in degree order."""
        return iter(sorted(self.counts.items()))


def poincare_series(*tables: GeneratorTable) -> TruncatedSeries:
    """Poincare series of the free algebra the tables present, tensored:
    the Euler transform of their log-derivative, at the first table's
    truncation.

    >>> from .series import make_polynomial
    >>> t = GeneratorTable("exterior", {3: 1, 5: 1}, truncation=8)
    >>> poincare_series(t) == make_polynomial({0: 1, 3: 1, 5: 1, 8: 1}, 8)
    True
    """
    return from_log_derivative(poincare_log_derivative(*tables))


def poincare_log_derivative(*tables: GeneratorTable) -> TruncatedSeries:
    """Log-derivative of the tables' tensored Poincare series, straight
    from the counts through their exponents, at the first table's
    truncation.  Like poincare_series, it ignores the component rank.

    >>> t = GeneratorTable("exterior", {3: 1, 5: 1}, component_rank=2,
    ...                    truncation=8)
    >>> print(poincare_log_derivative(t))
    3*x^3 + 5*x^5 - 3*x^6
    >>> poincare_log_derivative(t) == log_derivative(poincare_series(t))
    True
    """
    return log_from_exponents(exponents(*tables))


def exponents(*tables: GeneratorTable) -> TruncatedSeries:
    """Euler exponents of the tables' tensored Poincare series, as the
    coefficients of a series with constant term 0: v_d with
    P = prod_d (1 - x^d)^(-v_d), at the first table's truncation.
    Generators above it are dropped, and the component rank is ignored.
    With no table there is no truncation, and InvalidParameter is raised.

    >>> t = GeneratorTable("exterior", {1: 1, 3: 2}, truncation=6)
    >>> print(exponents(t))
    x - x^2 + 2*x^3 - 2*x^6
    """
    if not tables:
        raise InvalidParameter("need at least one generator table")
    n = tables[0].truncation
    v = None
    for table in tables:
        counts = list(map(table.counts.get, range(n + 1),
                          itertools.repeat(0)))
        term = _dense_exponents(table.kind, counts)
        v = term if v is None else list(map(add, v, term))
    return _from_ints(v, n)


def _dense_exponents(kind: str, counts: List[int]) -> List[int]:
    """Exponents of generators of one kind, counts[d] of them in each
    degree d (counts[0] unused): the counts, less the exterior counts
    at d/2 for an exterior kind."""
    v = list(counts)
    if kind == "exterior":
        v[2::2] = map(sub, v[2::2], counts[1:len(counts) // 2 + 1])
    return v


def table_from_exponents(v: TruncatedSeries, kind: str,
                         component_rank: int = 0) -> GeneratorTable:
    """The table of a kind whose Poincare series has exponents v and
    whose component rank, which the series does not see, is given.

    Polynomial-type counts are the exponents; an exterior count at d is
    v_d plus the count at d/2, added in doubling blocks: the counts on
    lo..2lo-1 are final once those below lo are, and feed the even
    degrees 2lo..4lo-2.  A negative count raises NegativeDimension at
    its degree, the lowest one, which is where dividing the factors out
    of the series one degree at a time would first leave a negative
    coefficient.

    >>> t = GeneratorTable("exterior", {1: 1, 3: 2}, truncation=6)
    >>> table_from_exponents(exponents(t), "exterior") == t
    True
    """
    if kind not in KINDS:
        raise InvalidKind(f"unknown kind {kind!r}")
    counts = list(v.coefficients)
    n = v.truncation
    if kind == "exterior":
        lo = 1
        while 2 * lo <= n:
            hi = min(2 * lo, n // 2 + 1)
            counts[2 * lo:2 * hi:2] = map(add, counts[2 * lo:2 * hi:2],
                                          counts[lo:hi])
            lo *= 2
    if min(counts) < 0:
        raise NegativeDimension(next(d for d, c in enumerate(counts)
                                     if c < 0))
    return GeneratorTable(kind, zip(itertools.compress(range(n + 1), counts),
                                    filter(None, counts)),
                          component_rank, n)


def log_from_exponents(v: TruncatedSeries) -> TruncatedSeries:
    """The log-derivative whose exponents are v: L_n = sum over d | n of
    d*v_d.  Each d up to r = isqrt(N) adds to all its multiples in one
    slice; the degrees d > r have fewer than N/r multiples, so one slice
    per multiplier j adds d*v_d at j*d for all of them at once.

    >>> from .series import make_polynomial
    >>> print(log_from_exponents(make_polynomial({2: 1, 3: -1}, 6)))
    2*x^2 - 3*x^3 + 2*x^4 - x^6
    """
    n = v.truncation
    w = list(map(mul, range(n + 1), v.coefficients))
    b = [0] * (n + 1)
    r = isqrt(n)
    for d in range(1, r + 1):
        if w[d]:
            b[d::d] = map(add, b[d::d], itertools.repeat(w[d]))
    for j in range(1, n // (r + 1) + 1):
        top = n // j
        b[j * (r + 1):j * top + 1:j] = map(
            add, b[j * (r + 1):j * top + 1:j], w[r + 1:top + 1])
    return _from_ints(b, n)


def _exponents_from_log(log: TruncatedSeries) -> TruncatedSeries:
    """The exponents whose log-derivative is log, the inverse of
    log_from_exponents: in ascending d, what is left of log at d once
    the lower exponents are taken off is d*v_d, and it comes off every
    multiple of d.  The log-derivative of an integer series with
    constant term 1 has integer exponents, so each division is exact.

    >>> from .series import make_polynomial
    >>> v = make_polynomial({2: 1, 3: -1}, 6)
    >>> _exponents_from_log(log_from_exponents(v)) == v
    True
    """
    n = log.truncation
    w = list(log.coefficients)
    for d in range(1, n // 2 + 1):
        if w[d]:
            w[2 * d::d] = map(sub, w[2 * d::d], itertools.repeat(w[d]))
    return _from_ints([0, *map(floordiv, w[1:], range(1, n + 1))], n)


def tor_suspend(table: GeneratorTable, next_component_rank: int = 0) -> GeneratorTable:
    """One bar-construction step: generators move up one degree.

    Polynomial input yields an exterior table, exterior input yields a
    divided-power table.  Each degree-0 component generator suspends to a
    degree-1 generator.  Generators at the truncation degree fall off the
    end; the result is still exact through the same truncation.
    """
    if table.kind == "polynomial":
        kind = "exterior"
    elif table.kind == "exterior":
        kind = "divided_power"
    else:
        raise UnresolvedExtension(
            f"cannot suspend a table of kind {table.kind!r}; "
            "resolve extensions first")
    counts = {d + 1: c for d, c in table.counts.items()
              if d + 1 <= table.truncation}
    if table.component_rank:
        if table.truncation >= 1:
            counts[1] = counts.get(1, 0) + table.component_rank
    return GeneratorTable(kind, counts, next_component_rank, table.truncation)


def resolve_extensions(table: GeneratorTable) -> GeneratorTable:
    """Commit a divided-power table to polynomial.

    The series is unchanged; only the multiplicative structure label
    moves.  Call it when an independent argument (a catalogued space, an
    evenness constraint) backs the polynomial answer.
    """
    if table.kind != "divided_power":
        raise InvalidKind(
            f"only divided_power tables can be resolved, got {table.kind!r}")
    return GeneratorTable("polynomial", table.counts, table.component_rank,
                          table.truncation)


def extract_generators(series: TruncatedSeries, kind: str) -> GeneratorTable:
    """Recover generator counts from a series known to be free of a kind.

    The series must have constant term 1.  Its exponents, read off its
    log-derivative, give the table (table_from_exponents); a series not
    free of the kind raises NegativeDimension at the lowest degree
    whose count is negative.

    >>> from .series import geometric
    >>> t = extract_generators(geometric(2, 8), "polynomial")
    >>> t.counts
    {2: 1}
    """
    return table_from_exponents(_exponents_from_log(log_derivative(series)),
                                kind)


def off_parity(table: GeneratorTable, parity: int) -> Optional[int]:
    """The lowest generator degree d with d % 2 != parity, or None.

    >>> off_parity(GeneratorTable("polynomial", {2: 1, 3: 1, 5: 1},
    ...                           truncation=6), 0)
    3
    """
    return min((d for d in table.counts if d % 2 != parity), default=None)
