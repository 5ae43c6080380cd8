"""Brute-force reference computations for the test suite.

Everything here is deliberately naive: dict-based polynomial arithmetic
and direct enumeration, sharing no code with the package, so the two
sides can disagree when the package is wrong.
"""

from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def naive_mul(a: Dict[int, int], b: Dict[int, int], n: int) -> Dict[int, int]:
    """Polynomial product, coefficients through degree n."""
    out: Dict[int, int] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            if d <= n:
                out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def naive_invert(a: Dict[int, int], n: int) -> Dict[int, int]:
    """Multiplicative inverse through degree n; constant must be +-1."""
    unit = a.get(0, 0)
    assert unit in (1, -1)
    out = {0: unit}
    for d in range(1, n + 1):
        acc = 0
        for k, c in a.items():
            if 0 < k <= d:
                acc += c * out.get(d - k, 0)
        out[d] = -unit * acc
    return {d: c for d, c in out.items() if c}


def naive_power(a: Dict[int, int], exponent: int, n: int) -> Dict[int, int]:
    """a**exponent through degree n by repeated squaring, exponent >= 0."""
    out = {0: 1}
    while exponent:
        if exponent & 1:
            out = naive_mul(out, a, n)
        a = naive_mul(a, a, n)
        exponent >>= 1
    return out


def naive_log_derivative(a: Dict[int, int], n: int) -> Dict[int, int]:
    """x a'/a through degree n, as x a' times the inverse of a; the
    constant term of a must be 1."""
    assert a.get(0, 0) == 1
    return naive_mul({d: d * c for d, c in a.items() if d}, naive_invert(a, n),
                     n)


def sparse_log_derivative(tables) -> List[int]:
    """x P'/P through the first table's truncation for the tensored
    Poincare series P of generator tables, added one generator degree
    at a time: 1/(1-x^d)^c adds d*c at every multiple j*d, and (1+x^d)^c
    for an exterior table adds (-1)^(j+1)*d*c there."""
    n = tables[0].truncation
    b = [0] * (n + 1)
    for table in tables:
        exterior = table.kind == "exterior"
        for d, c in table.counts.items():
            for j in range(1, n // d + 1):
                b[j * d] += -d * c if exterior and j % 2 == 0 else d * c
    return b


def naive_tensor(left, right):
    """Tensor product of two generator tables of one kind and one
    truncation: their counts merged degree by degree and their
    component ranks added, in a table of the inputs' own class."""
    assert left.kind == right.kind and left.truncation == right.truncation
    counts = dict(left.counts)
    for d, c in right.counts.items():
        counts[d] = counts.get(d, 0) + c
    return type(left)(left.kind, counts,
                      left.component_rank + right.component_rank,
                      left.truncation)


def naive_euler(b: Sequence[int]) -> Tuple[List[int], Optional[int]]:
    """The series p with p_0 = 1 and x p'/p = b, from n*p_n =
    sum_(k=1..n) b_k*p_(n-k) one degree at a time.  Returns (p, None),
    or (p below d, d) at the first degree d whose division is inexact."""
    p = [1]
    for n in range(1, len(b)):
        total = 0
        for k in range(1, n + 1):
            total += b[k] * p[n - k]
        if total % n:
            return p, n
        p.append(total // n)
    return p, None


def table_series(degrees_counts: Dict[int, int], exterior: bool,
                 n: int) -> List[int]:
    """Poincare series through degree n of a free algebra with the given
    generator counts: subsets of the generators for exterior, multisets
    otherwise."""
    parts = [d for d in sorted(degrees_counts) if d <= n
             for _ in range(degrees_counts[d])]
    return (subset_sum_counts if exterior else partition_counts)(parts, n)


def naive_peel(coeffs: Sequence[int],
               exterior: bool) -> Tuple[Dict[int, int], Optional[int]]:
    """Generator counts of a series with constant term 1, peeled one
    degree at a time: the residual at degree d is the count there, and
    (1-x^d)^c, or 1/(1+x^d)^c for exterior, divides it out before the
    next degree.  Returns (counts, None), or (counts so far, d) at the
    first negative residual."""
    n = len(coeffs) - 1
    cur = {d: c for d, c in enumerate(coeffs) if c}
    counts: Dict[int, int] = {}
    for d in range(1, n + 1):
        c = cur.get(d, 0)
        if c < 0:
            return counts, d
        if c == 0:
            continue
        counts[d] = c
        if exterior:
            factor = {d * m: comb(c - 1 + m, m) * (-1) ** m
                      for m in range(n // d + 1)}
        else:
            factor = {d * m: comb(c, m) * (-1) ** m
                      for m in range(min(c, n // d) + 1)}
        cur = naive_mul(cur, factor, n)
    return counts, None


def geometric_dict(degree: int, n: int) -> Dict[int, int]:
    return {d: 1 for d in range(0, n + 1, degree)}


def partition_counts(parts: Sequence[int], n: int) -> List[int]:
    """Number of multisets of `parts` summing to each degree 0..n,
    i.e. the product of 1/(1 - x^d) over the given degrees."""
    dp = [0] * (n + 1)
    dp[0] = 1
    for p in parts:
        for d in range(p, n + 1):
            dp[d] += dp[d - p]
    return dp


def subset_sum_counts(parts: Sequence[int], n: int) -> List[int]:
    """Number of subsets of `parts` summing to each degree 0..n,
    i.e. the product of (1 + x^d) over the given degrees."""
    dp = [0] * (n + 1)
    dp[0] = 1
    for p in parts:
        for d in range(n, p - 1, -1):
            dp[d] += dp[d - p]
    return dp


def repeated(parts: Iterable[int], count: int) -> List[int]:
    """Each degree in `parts` repeated `count` times."""
    out: List[int] = []
    for p in parts:
        out.extend([p] * count)
    return out


def bp_generator_degrees(n: int) -> List[int]:
    """Degrees 2(2^i - 1), i >= 1, up to n."""
    out = []
    i = 1
    while 2 * (2 ** i - 1) <= n:
        out.append(2 * (2 ** i - 1))
        i += 1
    return out


def steenrod_dims(n: int) -> List[int]:
    """Graded dimensions of the mod-2 Steenrod algebra through degree n
    by counting Milnor basis monomials: partitions with parts 2^i - 1,
    i >= 1, each part of unlimited multiplicity."""
    parts = []
    i = 1
    while 2 ** i - 1 <= n:
        parts.append(2 ** i - 1)
        i += 1
    return partition_counts(parts, n)


def quotient_by_exterior(dims: List[int], degree: int) -> List[int]:
    """Divide a dimension series by (1 + x^degree), exactly."""
    out = [0] * len(dims)
    for d in range(len(dims)):
        out[d] = dims[d] - (out[d - degree] if d >= degree else 0)
    return out


def naive_square_monomial(j: int) -> Optional[Tuple[Tuple[int, int], ...]]:
    """The monomial detecting the square of the j-th generator, as
    (base, power) pairs: with j = 2^(s_1) + ... + 2^(s_k), s_1 < ... <
    s_k, factor i (counted from 1) is b(s_i - (i - 1)) to the power 2^i.
    None when k < 2 (j is a 2-power); ValueError when j <= 0."""
    if j <= 0:
        raise ValueError(j)
    exponents = [s for s, digit in enumerate(reversed(bin(j)[2:]))
                 if digit == "1"]
    if len(exponents) < 2:
        return None
    return tuple((s - (i - 1), 2 ** i)
                 for i, s in enumerate(exponents, start=1))


# -- frozen reference values -------------------------------------------------

# Multisets of even parts {2, 4, 6, 8} summing to 8.
EVEN_PARTITIONS_OF_8 = 5

# Free homotopy ranks of BP in degrees 2, 4, 6, 8: partitions into
# parts of degree 2(2^i - 1).
BP_RANKS_2_4_6_8 = [1, 1, 2, 2]

# Free homotopy ranks of BoP in degrees 4, 6, 8.
BOP_RANKS_4_6_8 = [1, 1, 2]

# Free homotopy ranks of the fiber F = BoP - bo by degree.
F_RANKS = {4: 0, 6: 1, 8: 1, 10: 1, 12: 2, 14: 3}

# Graded dimensions of the Steenrod algebra, degrees 0..4.
STEENROD_DIMS_0_4 = [1, 1, 1, 2, 2]

# Dimensions of the quotient by the first Milnor subalgebra, 0..8.
MILNOR_1_DIMS_0_8 = [1, 0, 1, 0, 1, 0, 2, 1, 2]

# Same with the degree-2 generator also divided out, 0..8.
MILNOR_SQ2_1_DIMS_0_8 = [1, 0, 0, 0, 1, 0, 1, 1, 1]

# Generator degrees of the homology of the second fiber space.
F2_GENERATORS = {8: 1, 10: 1, 12: 1}

# Smallest truncation height containing the 8q-suspended summand,
# for q = 1..8.
FIRST_APPEARANCE_1_8 = [2, 3, 2, 5, 4, 3, 2, 9]

# Connectivities of all splitting summands below 64, in order.
CONNECTIVITIES_BELOW_64 = [12, 20, 28, 36, 44, 52, 60]

# Coefficients of (1+x^3)(1+x^5) through degree 8.
EXTERIOR_3_5_COEFFS = [1, 0, 0, 1, 0, 1, 0, 0, 1]

# Free ranks of X = BPbar - bu in even degrees 0, 2, ..., 16.
X_RANKS_EVEN_0_16 = [0, 0, 0, 1, 2, 2, 3, 5, 6]

# Conjectured dimensions for truncation height 5, degrees 0..10,
# expanded by hand from the three summands visible below degree 10.
CONJECTURED_HEIGHT5_0_10 = [1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1]


def naive_summand_suspensions(n: int, cap: int,
                              band: Optional[Tuple[int, int]] = None,
                              ) -> Tuple[List[Tuple[int, int, int, int]],
                                         Optional[Tuple[int, int]]]:
    """The rows (s, level, eps, suspension) of a truncation height with
    suspension <= cap, by the direct scan over s = 1..n-1 and each
    level from the band power up, with the suspension
    2^(level + 3 + eps) - 8s.  band is (power, offset), by default
    2^power <= n - 1 < 2^(power + 1) and offset = n - 1 - 2^power.
    Returns (rows, stop): stop is the (s, level) of the first negative
    suspension, where the scan ends, or None."""
    power, offset = band or ((n - 1).bit_length() - 1,
                             n - 1 - 2 ** ((n - 1).bit_length() - 1))
    rows = []
    for s in range(1, n):
        eps = 1 if s <= offset or s >= n - offset else 0
        level = power
        while 2 ** (level + 3 + eps) - 8 * s <= cap:
            suspension = 2 ** (level + 3 + eps) - 8 * s
            if suspension < 0:
                return rows, (s, level)
            rows.append((s, level, eps, suspension))
            level += 1
    return rows, None
