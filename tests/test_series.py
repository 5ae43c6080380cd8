import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from bopcalc.algebra import (
    GeneratorTable,
    poincare_log_derivative,
    poincare_series,
)
from bopcalc.errors import (
    InvalidParameter,
    NotInvertible,
    TruncationError,
    ZeroDegreeFactor,
)
from bopcalc import series as series_mod
from bopcalc.cli import _csv_lines, _json_chunks, _series_json
from bopcalc.reports import first_mismatch
from bopcalc.series import (
    TruncatedSeries,
    from_log_derivative,
    geometric,
    log_derivative,
    make_polynomial,
    one,
    product_over,
    shifted_sum,
)

# Small sparse integer polynomials, as degree -> coefficient dicts.
coeff_dicts = st.dictionaries(st.integers(0, 12), st.integers(-9, 9),
                              max_size=6)


def from_dict(d, n=12):
    return make_polynomial({k: v for k, v in d.items() if v}, n)


def as_dict(s):
    return {d: c for d, c in enumerate(s.coefficients) if c}


def test_construction_and_queries():
    s = make_polynomial({0: 1, 3: -2}, 5)
    assert s.truncation == 5
    assert s.coefficients == (1, 0, 0, -2, 0, 0)
    assert s.coefficient(3) == -2
    with pytest.raises(TruncationError):
        s.coefficient(6)
    with pytest.raises(TruncationError):
        s.coefficient(-1)
    with pytest.raises(TruncationError):
        make_polynomial({9: 1}, 4)
    with pytest.raises(TruncationError):
        TruncatedSeries([1, 2], 3)
    with pytest.raises(TruncationError):
        TruncatedSeries([], -1)
    # every coefficient, degree and truncation is an exact int: a float
    # or a str is refused, never truncated or parsed
    for bad in ([1, 2.9], ["3", 1], [1, None]):
        with pytest.raises(InvalidParameter, match="coefficient .* an int"):
            TruncatedSeries(bad, 1)
    with pytest.raises(InvalidParameter, match="truncation 1.0 is not an int"):
        TruncatedSeries([1, 2], 1.0)
    for terms, n in (({0: 1.5}, 4), ({2.0: 1}, 4), ({"2": 1}, 4),
                     ({0: 1}, 4.0)):
        with pytest.raises(InvalidParameter, match="not an int"):
            make_polynomial(terms, n)


def test_immutable_hashable():
    s = one(4)
    with pytest.raises(AttributeError):
        s.truncation = 7
    assert hash(s) == hash(one(4))
    assert s == one(4)
    assert s != one(5)
    assert s != "not a series"


def test_str_forms():
    assert str(make_polynomial({}, 3)) == "0"
    assert str(make_polynomial({0: 1, 1: 1, 4: -3}, 4)) == "1 + x - 3*x^4"


def test_mixed_truncation_rejected():
    with pytest.raises(TruncationError):
        one(4) + one(5)
    with pytest.raises(TruncationError):
        one(4) * one(5)
    with pytest.raises(TypeError):
        one(4) * 3


@given(coeff_dicts, coeff_dicts)
def test_mul_matches_naive(a, b):
    got = as_dict(from_dict(a) * from_dict(b))
    assert got == oracles.naive_mul(a, b, 12)


@given(coeff_dicts, coeff_dicts)
def test_add_sub_roundtrip(a, b):
    sa, sb = from_dict(a), from_dict(b)
    assert (sa + sb) - sb == sa


@given(coeff_dicts, coeff_dicts, coeff_dicts)
def test_mul_commutative_associative(a, b, c):
    sa, sb, sc = from_dict(a), from_dict(b), from_dict(c)
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)


@given(coeff_dicts, st.sampled_from([1, -1]))
def test_invert_roundtrip(a, unit):
    a[0] = unit
    s = from_dict(a)
    assert s * s.invert() == one(12)
    assert as_dict(s.invert()) == oracles.naive_invert(
        {k: v for k, v in a.items() if v}, 12)


def test_invert_requires_unit():
    with pytest.raises(NotInvertible):
        make_polynomial({0: 2}, 4).invert()
    with pytest.raises(NotInvertible):
        make_polynomial({1: 1}, 4).invert()


def test_check_nonnegative():
    assert one(4).check_nonnegative() is None
    assert make_polynomial({3: -1}, 4).check_nonnegative() == 3
    assert make_polynomial({1: -1, 3: -5}, 4).check_nonnegative() == 1


def test_geometric_is_partition_series():
    n = 30
    for d in (1, 2, 5, 8):
        got = geometric(d, n)
        assert list(got.coefficients) == oracles.partition_counts([d], n)
    with pytest.raises(ZeroDegreeFactor):
        geometric(0, 8)


def test_product_over_inverse_form_matches_partitions():
    # a degree listed twice is the factor 1/(1 - x^4)^2
    n = 40
    got = product_over([2, 4, 4, 6], n)
    parts = oracles.repeated([2], 1) + oracles.repeated([4], 2) + [6]
    assert list(got.coefficients) == oracles.partition_counts(parts, n)


def test_poincare_series_exterior_matches_subsets():
    n = 8
    got = poincare_series(GeneratorTable("exterior", {3: 1, 5: 1},
                                         truncation=n))
    assert list(got.coefficients) == oracles.EXTERIOR_3_5_COEFFS
    n = 20
    got = poincare_series(GeneratorTable("exterior", {2: 3, 5: 2},
                                         truncation=n))
    parts = oracles.repeated([2], 3) + oracles.repeated([5], 2)
    assert list(got.coefficients) == oracles.subset_sum_counts(parts, n)


def test_product_over_lazy_and_validating():
    def infinite():
        d = 2
        while True:
            yield d
            d *= 2

    got = product_over(infinite(), 10)
    assert list(got.coefficients) == oracles.partition_counts([2, 4, 8], 10)

    with pytest.raises(ZeroDegreeFactor):
        product_over([0], 4)
    with pytest.raises(ValueError):
        product_over([4, 2], 8)


@given(coeff_dicts)
def test_json_roundtrip(a):
    # decimal strings carry every coefficient through any JSON parser
    s = from_dict(a)
    doc = json.loads("".join(_json_chunks(_series_json(s))))
    assert doc["truncation"] == s.truncation
    assert [int(c) for c in doc["coefficients"]] == list(s.coefficients)


def test_csv_rows():
    s = make_polynomial({0: 1, 2: 5}, 3)
    assert list(enumerate(s.coefficients)) == [(0, 1), (1, 0), (2, 5), (3, 0)]
    assert "".join(_csv_lines(("degree", "coefficient"),
                              enumerate(s.coefficients))) == \
        "degree,coefficient\n0,1\n1,0\n2,5\n3,0\n"


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(10, 60))
def test_binomial_fast_path_matches_repeated_mul(degree, count, n):
    # the closed-form expansion for (1 - x^d)^c and its inverse must
    # agree with literal repeated multiplication
    base = make_polynomial({0: 1, degree: -1}, n) if degree <= n else one(n)
    direct = one(n)
    for _ in range(count):
        direct = direct * base
    assert poincare_series(GeneratorTable(
        "polynomial", {degree: count}, truncation=n)) == direct.invert()
    plus = make_polynomial({0: 1, degree: 1}, n) if degree <= n else one(n)
    direct_plus = one(n)
    for _ in range(count):
        direct_plus = direct_plus * plus
    assert poincare_series(GeneratorTable(
        "exterior", {degree: count}, truncation=n)) == direct_plus


@given(coeff_dicts, st.integers(1, 14), st.sampled_from([1, -1]),
       st.sampled_from([1, -1]))
def test_times_binomial_matches_naive(a, degree, sign, power):
    # degrees 13 and 14 lie above the truncation, where the factor is 1
    binomial = {0: 1, degree: sign} if degree <= 12 else {0: 1}
    factor = binomial if power == 1 else oracles.naive_invert(binomial, 12)
    got = as_dict(from_dict(a).times_binomial(degree, sign, power))
    assert got == oracles.naive_mul(
        {k: v for k, v in a.items() if v}, factor, 12)


def test_binomial_pass_matches_naive_at_every_degree():
    # every form of the kernel: the slice multiply, running sums per
    # residue class (d^2 small against N), blocks of d degrees (up to
    # d = N), and 1 + x^d through 1 - x^(2d); 80-bit coefficients keep
    # small-int caching out of the picture
    rng = random.Random(20)
    for n in range(81):
        coeffs = [rng.randrange(-2 ** 80, 2 ** 80) for _ in range(n + 1)]
        a = {k: c for k, c in enumerate(coeffs) if c}
        for d in range(1, n + 1):
            for sign in (1, -1):
                binomial = {0: 1, d: sign}
                inverse = oracles.naive_invert(binomial, n)
                for power, factor in ((1, binomial), (-1, inverse)):
                    got = list(coeffs)
                    series_mod._binomial_pass(got, d, sign, power)
                    want = oracles.naive_mul(a, factor, n)
                    assert got == [want.get(k, 0) for k in range(n + 1)], \
                        (n, d, sign, power)


shift_parts = st.lists(st.tuples(coeff_dicts,
                                 st.lists(st.integers(0, 20), max_size=8)),
                       max_size=4)


@given(shift_parts)
def test_shifted_sum_matches_naive(parts):
    # repeated shifts, shifts past N and gaps other than 8 included
    want = {}
    for a, shifts in parts:
        for shift in shifts:
            term = oracles.naive_mul({k: v for k, v in a.items() if v},
                                     {shift: 1}, 12)
            for k, v in term.items():
                want[k] = want.get(k, 0) + v
    got = shifted_sum([(from_dict(a), shifts) for a, shifts in parts], 12)
    assert as_dict(got) == {k: v for k, v in want.items() if v}


def test_shifted_sum_runs_and_domain():
    q = make_polynomial({0: 1, 1: -2, 5: 3}, 40)
    shifts = list(range(3, 41, 8)) + [7, 7]
    want = make_polynomial({}, 40)
    for shift in shifts:
        want = want + q.shift(shift)
    assert shifted_sum([(q, shifts)], 40) == want
    assert shifted_sum([], 3) == make_polynomial({}, 3)
    with pytest.raises(TruncationError):
        shifted_sum([(one(4), [1])], 5)
    with pytest.raises(TruncationError):
        shifted_sum([(one(4), [-1])], 4)


def test_times_binomial_rejects_bad_factors():
    with pytest.raises(ZeroDegreeFactor):
        one(4).times_binomial(0, 1, 1)
    with pytest.raises(ValueError):
        one(4).times_binomial(2, 2, 1)
    with pytest.raises(ValueError):
        one(4).times_binomial(2, 1, 2)


@given(coeff_dicts, st.integers(0, 12))
def test_shift_matches_naive(a, amount):
    got = as_dict(from_dict(a).shift(amount))
    assert got == oracles.naive_mul(
        {k: v for k, v in a.items() if v}, {amount: 1}, 12)


def test_shift_rejects_out_of_range():
    with pytest.raises(TruncationError):
        one(4).shift(5)
    with pytest.raises(TruncationError):
        one(4).shift(-1)


@given(st.lists(st.integers(1, 24), max_size=6))
def test_product_over_count_one_matches_oracles(degrees):
    n = 24
    degrees = sorted(degrees)
    got = product_over(degrees, n)
    assert list(got.coefficients) == oracles.partition_counts(degrees, n)
    got = poincare_series(GeneratorTable("exterior", Counter(degrees),
                                         truncation=n))
    assert list(got.coefficients) == oracles.subset_sum_counts(degrees, n)


# Generator counts per degree for one table: counts mixing 1 with
# 2..10^20, degrees up to the truncation.
count_tables = st.dictionaries(
    st.integers(1, 20),
    st.one_of(st.just(1), st.integers(2, 6), st.integers(2, 10 ** 20)),
    max_size=4)


def _oracle_series(counts, exterior, n):
    """The series of one table as a dict, from naive products of its
    factors (1 + x^d)^c or 1/(1 - x^d)^c."""
    want = {0: 1}
    for degree, count in counts.items():
        if exterior:
            base = {0: 1, degree: 1}
        else:
            base = oracles.naive_invert({0: 1, degree: -1}, n)
        want = oracles.naive_mul(want, oracles.naive_power(base, count, n), n)
    return want


@given(count_tables, count_tables)
def test_poincare_series_matches_repeated_naive_mul(odd, even):
    # mixed kinds, as for the BoP spaces below 2: the series of the
    # exterior and polynomial tables tensored is the product of theirs
    n = 20
    exterior = GeneratorTable("exterior", odd, truncation=n)
    polynomial = GeneratorTable("polynomial", even, truncation=n)
    want = oracles.naive_mul(_oracle_series(odd, True, n),
                             _oracle_series(even, False, n), n)
    assert as_dict(poincare_series(exterior, polynomial)) == want


@given(count_tables, st.sampled_from(["exterior", "polynomial"]),
       count_tables, st.sampled_from(["exterior", "polynomial"]),
       st.integers(0, 20))
def test_poincare_log_derivative_adds_over_tables(a, kind_a, b, kind_b, n):
    ta = GeneratorTable(kind_a, {d: c for d, c in a.items() if d <= n},
                        truncation=n)
    tb = GeneratorTable(kind_b, {d: c for d, c in b.items() if d <= n},
                        truncation=n)
    assert poincare_log_derivative(ta, tb) == \
        poincare_log_derivative(ta) + poincare_log_derivative(tb)


@given(st.lists(st.tuples(st.integers(1, 24), st.integers(1, 10)),
                max_size=6).map(sorted))
def test_product_over_counts_match_partition_oracles(family):
    n = 24
    parts = [p for d, c in family for p in oracles.repeated([d], c)]
    got = product_over(parts, n)
    assert list(got.coefficients) == oracles.partition_counts(parts, n)
    counts = Counter(parts)
    got = poincare_series(GeneratorTable("polynomial", counts, truncation=n))
    assert list(got.coefficients) == oracles.partition_counts(parts, n)
    got = poincare_series(GeneratorTable("exterior", counts, truncation=n))
    assert list(got.coefficients) == oracles.subset_sum_counts(parts, n)


@given(coeff_dicts, coeff_dicts, st.sampled_from([1, -1]))
def test_division_matches_naive(a, b, unit):
    b[0] = unit
    b = {k: v for k, v in b.items() if v}
    got = from_dict(a) / from_dict(b)
    assert as_dict(got) == oracles.naive_mul(
        {k: v for k, v in a.items() if v}, oracles.naive_invert(b, 12), 12)
    assert got * from_dict(b) == from_dict(a)


def test_division_rejects_non_units_and_mixed_truncations():
    with pytest.raises(NotInvertible):
        one(4) / make_polynomial({0: 2, 1: 1}, 4)
    with pytest.raises(NotInvertible):
        one(4) / make_polynomial({1: 1}, 4)
    with pytest.raises(TruncationError):
        one(4) / one(5)


# Integer series with constant term 1, as degree -> coefficient dicts.
unit_dicts = coeff_dicts.map(lambda d: {**d, 0: 1})


@given(unit_dicts)
def test_log_derivative_matches_naive(a):
    assert as_dict(log_derivative(from_dict(a))) == \
        oracles.naive_log_derivative(a, 12)
    assert from_log_derivative(log_derivative(from_dict(a))) == from_dict(a)


@given(unit_dicts, unit_dicts)
def test_log_derivative_is_additive_over_products(a, b):
    product = from_dict(oracles.naive_mul(a, b, 12))
    assert log_derivative(product) == \
        log_derivative(from_dict(a)) + log_derivative(from_dict(b))


@given(unit_dicts, st.integers(1, 12), st.integers(-3, 3), unit_dicts)
def test_first_mismatch_is_the_same_in_log_derivative_space(a, m, delta, tail):
    # b agrees with a below degree m, is moved by delta at m and is
    # arbitrary above it; the two series and their log-derivatives then
    # first differ at the same degree, by m*delta there
    b = {d: c for d, c in a.items() if d < m}
    b.update({d: c for d, c in tail.items() if d > m})
    b[m] = a.get(m, 0) + delta
    la, lb = log_derivative(from_dict(a)), log_derivative(from_dict(b))
    got = first_mismatch(la, lb)
    assert got == first_mismatch(from_dict(a), from_dict(b))
    if delta:
        assert got == m
        assert (lb - la).coefficient(m) == m * delta


def test_log_derivative_domain():
    with pytest.raises(InvalidParameter):
        log_derivative(make_polynomial({0: 2, 1: 1}, 4))
    with pytest.raises(InvalidParameter):
        log_derivative(make_polynomial({1: 1}, 4))
    with pytest.raises(InvalidParameter):  # nonzero constant term
        from_log_derivative(one(4))
    with pytest.raises(InvalidParameter) as info:  # 2*p_2 = 1
        from_log_derivative(make_polynomial({2: 1}, 4))
    assert "degree 2" in str(info.value)


# -- the Euler pair on strided input ------------------------------------
#
# Both passes run on every g-th entry when their input is supported on
# multiples of g; these inputs exercise that path against the oracles.

def _spread_dict(d, g):
    return {k * g: c for k, c in d.items()}


def _euler_outcome(coeffs):
    """from_log_derivative's result as (coefficients, None) or
    (None, error message)."""
    try:
        got = from_log_derivative(TruncatedSeries(coeffs, len(coeffs) - 1))
    except InvalidParameter as exc:
        return None, str(exc)
    return list(got.coefficients), None


def _naive_euler_outcome(coeffs):
    p, bad = oracles.naive_euler(coeffs)
    if bad is None:
        return p, None
    return None, f"not the log-derivative of an integer series at degree {bad}"


@given(unit_dicts, st.integers(2, 6), st.integers(0, 40))
def test_strided_log_derivative_matches_naive(a, g, n):
    # P(x) = Q(x^g): only every g-th coefficient is nonzero
    a = {d: c for d, c in _spread_dict(a, g).items() if c and d <= n}
    series = make_polynomial(a, n)
    log = log_derivative(series)
    assert as_dict(log) == oracles.naive_log_derivative(a, n)
    assert from_log_derivative(log) == series
    assert _euler_outcome(list(log.coefficients)) == \
        _naive_euler_outcome(list(log.coefficients))


@given(st.dictionaries(st.integers(1, 8), st.integers(-20, 20), min_size=1),
       st.integers(2, 6), st.integers(0, 40))
def test_strided_euler_with_indivisible_entries_matches_naive(c, g, n):
    # b on multiples of g, with some b_(gk) not divisible by g
    b = [0] * (n + 1)
    for k, v in _spread_dict(c, g).items():
        if k <= n:
            b[k] = v
    first = min(c) * g
    assume(first <= n)
    if b[first] % g == 0:
        b[first] += 1
    assert _euler_outcome(b) == _naive_euler_outcome(b)


@given(st.dictionaries(st.integers(1, 8), st.integers(-20, 20)),
       st.integers(2, 6), st.integers(0, 40))
def test_strided_euler_divisible_but_inexact_matches_naive(c, g, n):
    # b = g * c(x^g): the compressed pass runs, and a remainder at
    # compressed degree k must be reported at degree g*k
    b = [0] * (n + 1)
    for k, v in _spread_dict(c, g).items():
        if k <= n:
            b[k] = g * v
    assert _euler_outcome(b) == _naive_euler_outcome(b)


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
def test_strided_euler_names_the_uncompressed_degree(g):
    # compressed c = y + 2*y^2 gives q_1 = 1, then 2*q_2 = c_1*q_1 + c_2 = 3
    b = [0] * (4 * g + 1)
    b[g], b[2 * g] = g, 2 * g
    assert _euler_outcome(b) == (
        None, f"not the log-derivative of an integer series at degree {2 * g}")
    assert _euler_outcome(b) == _naive_euler_outcome(b)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_euler_pair_on_trivial_input(n):
    assert from_log_derivative(make_polynomial({}, n)) == one(n)
    assert log_derivative(one(n)) == make_polynomial({}, n)
    assert _naive_euler_outcome([0] * (n + 1)) == ([1] + [0] * n, None)
