"""Exact truncated power series over the integers.

A TruncatedSeries stores the coefficients of a formal power series in one
variable x through a fixed truncation degree N.  Coefficients are plain
Python ints, so all arithmetic is exact at every degree; there is no float
anywhere in this package.  A series of truncation N knows nothing about
degrees above N, and every binary operation insists both operands share
the same N rather than silently extending one of them.

product_over multiplies out the factors 1/(1-x^d) of a family of
degrees d, one O(N) binomial pass per degree.  The family may be an
infinite generator as long as its degrees never decrease: factors
beyond the truncation degree are 1 up to truncation, so enumeration
stops at the first degree above N.  times_binomial multiplies or
divides by (1 +- x^d) with the same pass instead of inverting a dense
polynomial and convolving with it.  The pass (_binomial_pass) runs in
C: multiplying is one map(add or sub) of the list against itself moved
up d places; dividing by 1 - x^d is one itertools.accumulate per
residue class mod d while d^2 <= 4N, else one map(add) per block of d
degrees against the block below it; dividing by 1 + x^d multiplies by
1 - x^d and divides by 1 - x^(2d) while 4d^2 <= N, else takes the block
form with sub.  Those thresholds are where the forms' measured costs
cross.  shift multiplies by x^k as a slice, and shifted_sum adds a
series at many shifts through one division by 1 - x^8.

A generator table's Poincare series (algebra.poincare_series) is built
instead as the Euler transform of its log-derivative, whatever its kind
and counts (Bernstein & Sloane, "Some canonical sequences of integers",
1995).  The log-derivative b of a product P = sum p_n x^n, defined by
x P'/P = sum b_k x^k, is additive over factors: 1/(1-x^d)^c adds d*c at
every multiple of d and (1+x^d)^c adds (-1)^(j+1)*d*c at j*d.  The
recurrence n*p_n = sum_k b_k*p_(n-k) (_euler) rebuilds P from b with
exact divisions, and its inverse b_n = n*p_n - sum_(k<n) b_k*p_(n-k)
(_log_derivative) recovers b from P.  Either way a whole family costs
one O(N^2) pass whose inner sums run in C, instead of one convolution
per generator degree.

Both passes first compress by the stride g, the gcd of the degrees where
their input (b for _euler, P for _log_derivative) is nonzero.  When P is
supported on multiples of g, P(x) = Q(x^g) and L_x(Q(x^g)) = g*L_y(Q)(x^g),
so the pass runs on every g-th entry, a sequence g times shorter (g^2
times less work), and spreads the result back out.  _euler compresses
only when g divides every b_(gk): then its divisions are those of the
compressed recurrence, and a remainder at compressed degree k is the
remainder at degree g*k.  Even-indexed tower spaces have g = 2.  Each
inner sum is one sum(map(mul, ...)) of a fixed tail of the input against
a reversed copy of the output that grows by one entry per degree; map
stops at the shorter operand, so no degree copies a slice.

Division by a series with unit constant term is a single support-
restricted recurrence; invert is division of 1.

log_derivative and from_log_derivative expose the pair as series: the
log-derivative L(P) = x P'/P of a series with constant term 1 is a
series with constant term 0, and L(P*Q) = L(P) + L(Q).  A short exact
sequence of free algebras divides series, which is a subtraction of
log-derivatives, and a product identity P = Q*R is the sum
L(P) = L(Q) + L(R), with no convolution.  Comparing there names the
same first failing degree as comparing the series: two series with
constant term 1 agree through degree m-1 exactly when their
log-derivatives do, since n*p_n - b_n depends only on lower degrees; at
degree m the log-derivatives then differ by m*(p_m - q_m).  The tower
solvers go one step further, to the Euler exponents of a series
(algebra.exponents), where the same sums and differences need no pass
over the multiples of each degree.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import add, index, mul, sub

from .errors import (
    InvalidParameter,
    NotInvertible,
    TruncationError,
    ZeroDegreeFactor,
)

__all__ = [
    "TruncatedSeries",
    "make_polynomial",
    "product_over",
    "shifted_sum",
    "log_derivative",
    "from_log_derivative",
    "geometric",
    "one",
]


class TruncatedSeries:
    """Formal power series with int coefficients, exact through degree N.

    >>> a = make_polynomial({0: 1, 2: -1}, 6)
    >>> print(a.invert())
    1 + x^2 + x^4 + x^6
    >>> a * a.invert() == one(6)
    True
    """

    __slots__ = ("truncation", "coefficients")

    def __init__(self, coefficients: Iterable[int], truncation: int):
        _init(self, tuple(_as_int(c, "coefficient") for c in coefficients),
              _as_int(truncation, "truncation"))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- basic queries ----------------------------------------------------

    def coefficient(self, degree: int) -> int:
        """Coefficient of x^degree; out-of-range degrees are an error."""
        if not 0 <= degree <= self.truncation:
            raise TruncationError(
                f"degree {degree} outside stored range 0..{self.truncation}")
        return self.coefficients[degree]

    def check_nonnegative(self) -> Optional[int]:
        """None if every coefficient is >= 0, else the first bad degree."""
        if min(self.coefficients) >= 0:
            return None
        for d, c in enumerate(self.coefficients):
            if c < 0:
                return d
        return None

    # -- ring operations --------------------------------------------------

    def _match(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if other.truncation != self.truncation:
            raise TruncationError(
                f"mixed truncations {self.truncation} and {other.truncation}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._match(other)
        return _from_ints(map(add, self.coefficients, other.coefficients),
                          self.truncation)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._match(other)
        return _from_ints(map(sub, self.coefficients, other.coefficients),
                          self.truncation)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._match(other)
        a, b = self.coefficients, other.coefficients
        return _from_ints(
            [sum(map(mul, a[:m + 1], b[m::-1]))
             for m in range(self.truncation + 1)],
            self.truncation)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact quotient by a series whose constant term is +1 or -1.

        >>> a = make_polynomial({0: 1, 2: 1}, 4)
        >>> print(a / make_polynomial({0: 1, 1: 1}, 4))
        1 - x + 2*x^2 - 2*x^3 + 2*x^4
        """
        self._match(other)
        a, s = self.coefficients, other.coefficients
        unit = s[0]
        if unit not in (1, -1):
            raise NotInvertible(f"constant term {unit} is not a unit")
        n = self.truncation
        support = [(k, s[k]) for k in range(1, n + 1) if s[k]]
        q = [0] * (n + 1)
        for m in range(n + 1):
            acc = a[m]
            for k, c in support:
                if k > m:
                    break
                acc -= c * q[m - k]
            q[m] = unit * acc
        return _from_ints(q, n)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be +1 or -1.

        >>> print(make_polynomial({0: 1, 1: 1}, 3).invert())
        1 - x + x^2 - x^3
        """
        return one(self.truncation) / self

    def times_binomial(self, degree: int, sign: int,
                       power: int) -> "TruncatedSeries":
        """Multiply by (1 + sign*x^degree)^power, power +1 or -1, in O(N).

        A factor of degree above the truncation is 1 and leaves the
        series unchanged.

        >>> g = one(6).times_binomial(2, -1, -1)
        >>> print(g)
        1 + x^2 + x^4 + x^6
        >>> print(g.times_binomial(3, 1, 1))
        1 + x^2 + x^3 + x^4 + x^5 + x^6
        >>> g.times_binomial(2, -1, 1) == one(6)
        True
        """
        if degree <= 0:
            raise ZeroDegreeFactor(f"factor degree {degree} must be positive")
        if sign not in (1, -1) or power not in (1, -1):
            raise ValueError(
                f"sign {sign} and power {power} must each be +1 or -1")
        if degree > self.truncation:
            return self
        coeffs = list(self.coefficients)
        _binomial_pass(coeffs, degree, sign, power)
        return _from_ints(coeffs, self.truncation)

    def shift(self, amount: int) -> "TruncatedSeries":
        """Multiply by x^amount, dropping degrees pushed past N.

        >>> print(make_polynomial({0: 1, 1: 2, 3: 1}, 3).shift(2))
        x^2 + 2*x^3
        """
        n = self.truncation
        if not 0 <= amount <= n:
            raise TruncationError(f"shift {amount} outside 0..{n}")
        return _from_ints((0,) * amount + self.coefficients[: n + 1 - amount],
                          n)

    # -- comparisons, hashing, display ------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.truncation == other.truncation
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash((self.truncation, self.coefficients))

    def __repr__(self):
        return f"TruncatedSeries({list(self.coefficients)!r}, {self.truncation})"

    def __str__(self):
        terms = []
        for d, c in enumerate(self.coefficients):
            if not c:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                x = "x" if d == 1 else f"x^{d}"
                body = x if mag == 1 else f"{mag}*{x}"
            terms.append(("- " if c < 0 else "+ ") + body)
        if not terms:
            return "0"
        head = terms[0].replace("+ ", "", 1).replace("- ", "-", 1)
        return " ".join([head] + terms[1:])


# -- constructors ----------------------------------------------------------

def make_polynomial(terms: Mapping[int, int], truncation: int) -> TruncatedSeries:
    """Series with the given degree -> coefficient support.

    Degrees above the truncation are rejected rather than dropped, so a
    typo in a test cannot silently vanish; a degree, coefficient or
    truncation that is not an int is rejected rather than truncated.

    >>> print(make_polynomial({0: 1, 8: 5}, 10))
    1 + 5*x^8
    """
    truncation = _as_int(truncation, "truncation")
    coeffs = [0] * (truncation + 1)
    for d, c in terms.items():
        d = _as_int(d, "term degree")
        if not 0 <= d <= truncation:
            raise TruncationError(
                f"term degree {d} outside 0..{truncation}")
        coeffs[d] += _as_int(c, "coefficient")
    return _from_ints(coeffs, truncation)


def one(truncation: int) -> TruncatedSeries:
    """The constant series 1."""
    return make_polynomial({0: 1}, truncation)


def geometric(degree: int, truncation: int) -> TruncatedSeries:
    """1/(1 - x^degree)."""
    return product_over([degree], truncation)


def product_over(degrees: Iterable[int],
                 truncation: int) -> TruncatedSeries:
    """Product of 1/(1 - x^d) over the degrees d, truncated at N.

    A degree listed c times contributes 1/(1 - x^d)^c.  The family may be
    infinite provided it is non-decreasing; enumeration stops at the
    first degree beyond N.  Each factor is one O(N) binomial pass.

    >>> product_over(itertools.count(2, 2), 8).coefficient(8)
    5
    >>> print(product_over([1, 1, 2], 3))
    1 + 2*x + 4*x^2 + 6*x^3
    """
    acc = [1] + [0] * truncation
    last = 0
    for degree in degrees:
        if degree <= 0:
            raise ZeroDegreeFactor(f"factor degree {degree} must be positive")
        if degree < last:
            raise ValueError(
                f"factor degrees must be non-decreasing, saw {degree} after {last}")
        last = degree
        if degree > truncation:
            break
        _binomial_pass(acc, degree, -1, -1)
    return _from_ints(acc, truncation)


def shifted_sum(parts: Iterable[Tuple[TruncatedSeries, Iterable[int]]],
                truncation: int) -> TruncatedSeries:
    """Sum of series * x^shift over each (series, shifts) pair and each
    shift >= 0 in its shifts, truncated at N.

    The shifts of a series, as a polynomial, times (1 - x^8) keep only
    the two ends of each run in steps of 8, so the sum is built from
    those ends and divided by 1 - x^8 once.  Any shifts give the exact
    sum: dividing by a unit series undoes multiplying by it modulo
    x^(N+1).

    >>> print(shifted_sum([(one(20), [2, 10, 18]), (one(20), [3])], 20))
    x^2 + x^3 + x^10 + x^18
    """
    acc = [0] * (truncation + 1)
    for series, shifts in parts:
        if series.truncation != truncation:
            raise TruncationError(
                f"mixed truncations {truncation} and {series.truncation}")
        ends = {}
        for shift in shifts:
            if shift < 0:
                raise TruncationError(f"shift {shift} is negative")
            ends[shift] = ends.get(shift, 0) + 1
            ends[shift + 8] = ends.get(shift + 8, 0) - 1
        coeffs = series.coefficients
        for shift, m in ends.items():
            if m and shift <= truncation:
                op, m = (add, m) if m > 0 else (sub, -m)
                acc[shift:] = map(op, acc[shift:],
                                  coeffs if m == 1 else [m * c for c in coeffs])
    if truncation >= 8:
        _binomial_pass(acc, 8, -1, -1)
    return _from_ints(acc, truncation)


def log_derivative(series: TruncatedSeries) -> TruncatedSeries:
    """x P'/P for a series P with constant term 1 (inverse Euler
    transform); the result has constant term 0.

    >>> p = geometric(2, 6)
    >>> print(log_derivative(p))
    2*x^2 + 2*x^4 + 2*x^6
    >>> log_derivative(p * p) == log_derivative(p) + log_derivative(p)
    True
    """
    if series.coefficients[0] != 1:
        raise InvalidParameter(
            f"series has constant term {series.coefficients[0]}, expected 1")
    return _from_ints(_log_derivative(series.coefficients), series.truncation)


def from_log_derivative(log: TruncatedSeries) -> TruncatedSeries:
    """The series P with constant term 1 and x P'/P = log (Euler
    transform).  log must be the log-derivative of an integer series:
    constant term 0, and every division of the recurrence exact.

    >>> from_log_derivative(log_derivative(geometric(3, 9))) == geometric(3, 9)
    True
    """
    if log.coefficients[0]:
        raise InvalidParameter(
            f"log-derivative has constant term {log.coefficients[0]}, "
            "expected 0")
    return _from_ints(_euler(log.coefficients), log.truncation)


# -- internal helpers --------------------------------------------------------

def _init(series, coeffs: tuple, truncation: int) -> TruncatedSeries:
    if truncation < 0:
        raise TruncationError("truncation degree must be >= 0")
    if len(coeffs) != truncation + 1:
        raise TruncationError(
            f"expected {truncation + 1} coefficients, got {len(coeffs)}")
    object.__setattr__(series, "truncation", truncation)
    object.__setattr__(series, "coefficients", coeffs)
    return series


def _as_int(value, what: str) -> int:
    """`value` as an exact int, through operator.index: a float or a
    str is refused, never truncated or parsed."""
    try:
        return index(value)
    except TypeError:
        raise InvalidParameter(f"{what} {value!r} is not an int") from None


def _from_ints(coeffs, truncation: int) -> TruncatedSeries:
    """Build a result whose coefficients are already ints, skipping the
    per-coefficient check of the public constructor."""
    return _init(object.__new__(TruncatedSeries), tuple(coeffs), truncation)


def _binomial_pass(coeffs, degree, sign, power):
    """Multiply the list coeffs in place by (1 + sign*x^degree)^power,
    power +1 or -1, with degree <= N; the forms and their thresholds are
    in the module docstring.

    Multiplying adds sign*c[k - d] to every c[k] at once, from the old
    list.  Dividing solves q[k] = c[k] - sign*q[k - d]: a running sum
    along each residue class, or block by block upward, so each
    q[k - d] is solved before it is read.
    """
    n = len(coeffs) - 1
    d = degree
    if power == 1:
        coeffs[d:] = map(add if sign == 1 else sub, coeffs[d:],
                         coeffs[:n + 1 - d])
    elif sign == 1 and 4 * d * d <= n:
        _binomial_pass(coeffs, d, -1, 1)
        _binomial_pass(coeffs, 2 * d, -1, -1)
    elif sign == -1 and d * d <= 4 * n:
        for r in range(d):
            coeffs[r::d] = itertools.accumulate(coeffs[r::d])
    else:
        op = add if sign == -1 else sub
        for k in range(d, n + 1, d):
            coeffs[k:k + d] = map(op, coeffs[k:k + d], coeffs[k - d:k])


def _stride(seq):
    """The gcd g of the degrees k >= 1 where seq is nonzero, or len(seq)
    when there are none: seq[k] is 0 unless g divides k."""
    return gcd(*itertools.compress(range(len(seq)), seq)) or len(seq)


def _spread(seq, stride, length):
    """seq placed at the multiples of stride in a list of zeros."""
    out = [0] * length
    out[::stride] = seq
    return out


def _euler(b):
    """Coefficients p with p_0 = 1 and log-derivative b (b_0 unused):
    n*p_n = sum_(k=1..n) b_k*p_(n-k).  Each division is exact when p is
    an integer series; one that is not raises InvalidParameter."""
    g = _stride(b)
    if any(c % g for c in b[g::g]):
        g = 1
    c = [x // g for x in b[::g]]
    c1, p, rev = c[1:], [1], [1]
    for m in range(1, len(c)):
        q, rest = divmod(sum(map(mul, c1, rev)), m)
        if rest:
            raise InvalidParameter(
                "not the log-derivative of an integer series at degree "
                f"{m * g}")
        p.append(q)
        rev.insert(0, q)
    return _spread(p, g, len(b))


def _log_derivative(p):
    """Inverse of _euler: b_n = n*p_n - sum_(k=1..n-1) b_k*p_(n-k) for
    coefficients p with p_0 = 1; b_0 is left 0."""
    g = _stride(p)
    c = p[::g]
    c1, b, rev = c[1:], [0], []
    for m in range(1, len(c)):
        b_m = m * c[m] - sum(map(mul, c1, rev))
        b.append(g * b_m)
        rev.insert(0, b_m)
    return _spread(b, g, len(p))

