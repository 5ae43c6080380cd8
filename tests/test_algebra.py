import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bopcalc.algebra import (
    KINDS,
    GeneratorTable,
    _exponents_from_log,
    exponents,
    extract_generators,
    log_from_exponents,
    off_parity,
    poincare_log_derivative,
    poincare_series,
    resolve_extensions,
    table_from_exponents,
    tor_suspend,
)
from bopcalc.cli import _json_chunks, _table_json
from bopcalc.errors import (
    BopcalcError,
    InvalidKind,
    InvalidParameter,
    NegativeDimension,
    TruncationError,
    UnresolvedExtension,
)
from bopcalc.reports import first_mismatch
from bopcalc.series import (
    TruncatedSeries,
    from_log_derivative,
    log_derivative,
    make_polynomial,
    one,
)

count_dicts = st.dictionaries(st.integers(1, 10), st.integers(1, 4),
                              max_size=5)


def test_table_validation():
    with pytest.raises(InvalidKind):
        GeneratorTable("free", {2: 1}, truncation=4)
    with pytest.raises(NegativeDimension):
        GeneratorTable("polynomial", {2: -1}, truncation=4)
    with pytest.raises(InvalidParameter):
        GeneratorTable("polynomial", {2: 1}, component_rank=-1, truncation=4)
    with pytest.raises(TruncationError):
        GeneratorTable("polynomial", {9: 1}, truncation=4)
    with pytest.raises(TruncationError):
        GeneratorTable("polynomial", {0: 1}, truncation=4)
    t = GeneratorTable("polynomial", {2: 1, 4: 0}, truncation=4)
    assert t.counts == {2: 1}
    assert t.count(4) == 0 and t.count(2) == 1
    # degrees, counts, the component rank and the truncation are exact
    # ints: a float or a str is refused, never truncated or parsed
    for counts, rank, n in (({2: 1.5}, 0, 4), ({2.0: 1}, 0, 4),
                            ({"2": 1}, 0, 4), ({2: "1"}, 0, 4),
                            ({2: 1}, 1.9, 4), ({2: 1}, 0, 4.0)):
        with pytest.raises(InvalidParameter, match="not an int"):
            GeneratorTable("polynomial", counts, component_rank=rank,
                           truncation=n)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(-1, 14), st.integers(-2, 4)),
                max_size=8, unique_by=lambda pair: pair[0]),
       st.sampled_from(KINDS), st.integers(0, 12))
@example([(0, 1)], "polynomial", 4)
@example([(2, 1), (5, 1)], "exterior", 4)
@example([(1, 1), (3, -1)], "polynomial", 4)
def test_table_reads_pairs_as_their_dict(pairs, kind, n):
    # (degree, count) pairs, read once, make the table their dict makes,
    # or raise the same error with the same message: degree 0, a degree
    # above N, a negative count
    try:
        want = GeneratorTable(kind, dict(pairs), 0, n)
    except BopcalcError as exc:
        with pytest.raises(type(exc)) as info:
            GeneratorTable(kind, iter(pairs), 0, n)
        assert str(info.value) == str(exc)
    else:
        got = GeneratorTable(kind, iter(pairs), 0, n)
        assert got == want and got.counts == want.counts


@given(st.dictionaries(st.integers(1, 40), st.integers(1, 5), max_size=12),
       st.sampled_from(["polynomial", "exterior"]), st.integers(0, 40))
def test_table_from_exponents_round_trips(counts, kind, n):
    t = GeneratorTable(kind, {d: c for d, c in counts.items() if d <= n},
                       0, n)
    assert table_from_exponents(exponents(t), kind) == t


def test_table_equality_and_json():
    t = GeneratorTable("exterior", {3: 2}, component_rank=1, truncation=6)
    same = GeneratorTable("exterior", {3: 2}, component_rank=1, truncation=6)
    assert t == same
    assert t != GeneratorTable("polynomial", {3: 2}, 1, 6)
    doc = json.loads("".join(_json_chunks(_table_json(t))))
    assert doc == {"kind": "exterior", "component_rank": 1,
                   "generators": [{"degree": 3, "count": 2}],
                   "truncation": 6}
    assert sorted(t.counts.items()) == [(3, 2)]


@pytest.mark.parametrize("read", [poincare_series, poincare_log_derivative,
                                  exponents])
def test_reading_no_table_is_an_invalid_parameter(read):
    # with no table there is no truncation to read the series at
    with pytest.raises(InvalidParameter, match="at least one"):
        read()


def test_poincare_polynomial_matches_partitions():
    t = GeneratorTable("polynomial", {2: 1, 4: 2}, truncation=20)
    parts = [2] + oracles.repeated([4], 2)
    assert list(poincare_series(t).coefficients) == \
        oracles.partition_counts(parts, 20)


def test_poincare_exterior_matches_subsets():
    t = GeneratorTable("exterior", {3: 1, 5: 1}, truncation=8)
    assert list(poincare_series(t).coefficients) == \
        oracles.EXTERIOR_3_5_COEFFS


def test_poincare_ignores_component_rank():
    with_rank = GeneratorTable("polynomial", {2: 1}, 3, 8)
    without = GeneratorTable("polynomial", {2: 1}, 0, 8)
    assert poincare_series(with_rank) == poincare_series(without)


@given(count_dicts, st.sampled_from(["polynomial", "exterior"]))
def test_extract_roundtrip(counts, kind):
    table = GeneratorTable(kind, counts, truncation=12)
    back = extract_generators(poincare_series(table), kind)
    assert back.counts == table.counts
    assert back.kind == kind
    assert back.component_rank == 0


def test_extract_rejects_bad_series():
    with pytest.raises(InvalidParameter):
        extract_generators(make_polynomial({0: 2}, 4), "polynomial")
    with pytest.raises(InvalidKind):
        extract_generators(one(4), "bogus")
    # 1 - x^2 has no free polynomial presentation
    with pytest.raises(NegativeDimension) as info:
        extract_generators(make_polynomial({0: 1, 2: -1}, 4), "polynomial")
    assert info.value.degree == 2
    # (1+x^3) read as polynomial leaves -1 at degree 6
    with pytest.raises(NegativeDimension) as info:
        extract_generators(make_polynomial({0: 1, 3: 1}, 6), "polynomial")
    assert info.value.degree == 6


def test_tor_suspend_shifts_and_folds_components():
    t = GeneratorTable("polynomial", {2: 1, 8: 3}, component_rank=2,
                       truncation=8)
    up = tor_suspend(t, next_component_rank=5)
    assert up.kind == "exterior"
    # degree 8 falls off the end, the component rank lands in degree 1
    assert up.counts == {1: 2, 3: 1}
    assert up.component_rank == 5
    up2 = tor_suspend(up)
    assert up2.kind == "divided_power"
    # the rank-5 component of `up` suspends into five degree-1 generators
    assert up2.counts == {1: 5, 2: 2, 4: 1}
    assert up2.component_rank == 0
    for kind in ("divided_power", "even_unresolved"):
        with pytest.raises(UnresolvedExtension):
            tor_suspend(GeneratorTable(kind, {2: 1}, truncation=4))


def test_resolve_extensions():
    t = GeneratorTable("divided_power", {2: 1}, truncation=4)
    assert resolve_extensions(t).kind == "polynomial"
    assert resolve_extensions(t).counts == t.counts
    with pytest.raises(InvalidKind):
        resolve_extensions(GeneratorTable("polynomial", {2: 1},
                                          truncation=4))


@given(count_dicts, count_dicts, st.sampled_from(["polynomial", "exterior"]))
def test_tensor_multiplies_series(a, b, kind):
    # the table read off the sum of two tables' exponents presents the
    # product of their series
    ta = GeneratorTable(kind, a, truncation=12)
    tb = GeneratorTable(kind, b, truncation=12)
    both = table_from_exponents(exponents(ta, tb), kind)
    assert poincare_series(both) == poincare_series(ta) * poincare_series(tb)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 40), st.data())
def test_exponent_sum_is_the_naive_tensor_product(kind, n, data):
    # two tables of one kind, component ranks 0..3, N = 0..40: the table
    # read off the sum of their exponents, with the sum of their ranks,
    # is their counts merged degree by degree
    def table():
        counts = data.draw(st.dictionaries(st.integers(1, n),
                                           st.integers(1, 5), max_size=12)
                           if n else st.just({}))
        return GeneratorTable(kind, counts, data.draw(st.integers(0, 3)), n)

    a, b = table(), table()
    assert table_from_exponents(exponents(a, b), kind,
                                a.component_rank + b.component_rank) == \
        oracles.naive_tensor(a, b)


def test_parity_check():
    even = GeneratorTable("polynomial", {2: 1, 4: 1}, truncation=4)
    odd = GeneratorTable("exterior", {3: 1}, truncation=4)
    mixed = GeneratorTable("polynomial", {4: 1, 2: 1, 3: 2}, truncation=4)
    empty = GeneratorTable("polynomial", {}, truncation=4)
    assert off_parity(even, 0) is None and off_parity(even, 1) == 2
    assert off_parity(odd, 1) is None and off_parity(odd, 0) == 3
    # the lowest degree of the wrong parity, wherever it sits
    assert (off_parity(mixed, 0), off_parity(mixed, 1)) == (3, 2)
    assert off_parity(empty, 0) is None and off_parity(empty, 1) is None


def test_kinds_constant():
    assert KINDS == ("polynomial", "exterior", "divided_power",
                     "even_unresolved")


@settings(max_examples=25)
@given(count_dicts)
def test_suspension_shifts_series_degreewise(counts):
    # without components or truncation loss, suspension moves every
    # generator up one degree; check on the series of an exterior table
    table = GeneratorTable("polynomial", counts, truncation=20)
    up = tor_suspend(table)
    assert up.counts == {d + 1: c for d, c in counts.items()}


@st.composite
def unit_series(draw):
    """Coefficients 0..n of an integer series with constant term 1:
    either arbitrary, or a free series with counts up to 10^6 whose
    coefficient at one degree is then moved by -3..3."""
    n = draw(st.integers(0, 14))
    if draw(st.booleans()):
        return [1] + draw(st.lists(st.integers(-4, 12), min_size=n,
                                   max_size=n))
    coeffs = {0: 1}
    for d in range(1, n + 1):
        base = draw(st.sampled_from([{0: 1, d: 1}, {0: 1, d: -1}]))
        count = draw(st.integers(0, 10 ** 6))
        if base[d] == -1:
            base = oracles.naive_invert(base, n)
        coeffs = oracles.naive_mul(coeffs, oracles.naive_power(base, count, n),
                                   n)
    out = [coeffs.get(d, 0) for d in range(n + 1)]
    if n:
        out[draw(st.integers(1, n))] += draw(st.integers(-3, 3))
    return out


@given(unit_series(), st.sampled_from(["polynomial", "exterior"]))
def test_extract_matches_naive_peel(coeffs, kind):
    # arbitrary integer series with constant term 1: the same counts as
    # peeling factor by factor, or the same failing degree
    series = make_polynomial(dict(enumerate(coeffs)), len(coeffs) - 1)
    want, bad = oracles.naive_peel(coeffs, kind == "exterior")
    if bad is None:
        assert extract_generators(series, kind).counts == want
    else:
        with pytest.raises(NegativeDimension) as info:
            extract_generators(series, kind)
        assert info.value.degree == bad


@given(st.dictionaries(st.integers(1, 16), st.integers(1, 10 ** 12),
                       max_size=6),
       st.sampled_from(KINDS), st.integers(0, 3), st.integers(0, 16))
def test_poincare_log_derivative_matches_series(counts, kind, rank, n):
    # every kind, with and without components; the rank changes nothing
    table = GeneratorTable(kind, {d: c for d, c in counts.items() if d <= n},
                           rank, n)
    got = poincare_log_derivative(table)
    assert got == log_derivative(poincare_series(table))
    series = dict(enumerate(poincare_series(table).coefficients))
    assert {d: c for d, c in enumerate(got.coefficients) if c} == \
        oracles.naive_log_derivative({d: c for d, c in series.items() if c}, n)
    if kind in ("polynomial", "exterior"):
        back = extract_generators(poincare_series(table), kind)
        assert back == GeneratorTable(kind, table.counts, 0, n)


def _oracle_series(tables):
    """The tables' tensored Poincare series through the first table's
    truncation, as subset and multiset counts multiplied naively."""
    n = tables[0].truncation
    out = {0: 1}
    for table in tables:
        coeffs = oracles.table_series(table.counts, table.kind == "exterior",
                                      n)
        out = oracles.naive_mul(out, {d: c for d, c in enumerate(coeffs)
                                      if c}, n)
    return out


@st.composite
def table_lists(draw, n=None):
    """One to three tables of any kinds: the first at truncation n (or
    0..80), the others at mixed truncations around it."""
    n = draw(st.integers(0, 80)) if n is None else n
    tables = []
    for k in range(draw(st.integers(1, 3))):
        top = n if k == 0 else draw(st.integers(0, 90))
        counts = draw(st.dictionaries(st.integers(1, max(top, 1)),
                                      st.integers(0, 3), max_size=8))
        tables.append(GeneratorTable(
            draw(st.sampled_from(KINDS)),
            {d: c for d, c in counts.items() if d <= top}, 0, top))
    return tables


@settings(max_examples=60, deadline=None)
@given(table_lists())
def test_exponents_match_the_oracle_series(tables):
    # every kind, N = 0..80, later tables at other truncations: the L
    # of the exponents is the generator-by-generator L and the naive
    # series' L, and its Euler transform is the naive series
    n = tables[0].truncation
    v = exponents(*tables)
    assert v.truncation == n and v.coefficients[0] == 0
    log = log_from_exponents(v)
    assert log == poincare_log_derivative(*tables)
    assert list(log.coefficients) == oracles.sparse_log_derivative(tables)
    want = _oracle_series(tables)
    assert {d: c for d, c in enumerate(log.coefficients) if c} == \
        oracles.naive_log_derivative(want, n)
    assert list(poincare_series(*tables).coefficients) == \
        [want.get(d, 0) for d in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 80))
def test_exponents_first_differ_where_the_series_do(data, n):
    # two presentations at one truncation: their exponents, their L's
    # and their naive series first differ at the same degree
    left = data.draw(table_lists(n))
    right = data.draw(table_lists(n))
    if data.draw(st.booleans()):  # a near miss: one count moved
        t = left[-1]
        d = data.draw(st.integers(1, max(t.truncation, 1)))
        if d <= t.truncation:
            counts = dict(t.counts)
            counts[d] = counts.get(d, 0) + 1
            right = left[:-1] + [GeneratorTable(t.kind, counts, 0,
                                                t.truncation)]
    a, b = _oracle_series(left), _oracle_series(right)
    want = next((d for d in range(n + 1) if a.get(d, 0) != b.get(d, 0)),
                None)
    assert first_mismatch(exponents(*left), exponents(*right)) == want
    assert first_mismatch(
        TruncatedSeries(oracles.sparse_log_derivative(left), n),
        TruncatedSeries(oracles.sparse_log_derivative(right), n)) == want


@settings(max_examples=80, deadline=None)
@given(table_lists(), st.sampled_from(KINDS), st.data())
def test_table_from_exponents_matches_the_peel(tables, kind, data):
    # exponents of a presentation, often moved at a few degrees: the
    # same table as peeling the naive series, or NegativeDimension at
    # the degree where the peel stops
    n = tables[0].truncation
    v = list(exponents(*tables).coefficients)
    for _ in range(data.draw(st.integers(0, 3))):
        if n:
            v[data.draw(st.integers(1, n))] += data.draw(st.integers(-2, 2))
    v = TruncatedSeries(v, n)
    coeffs = list(from_log_derivative(log_from_exponents(v)).coefficients)
    naive, bad = oracles.naive_peel(coeffs, kind == "exterior")
    if bad is None:
        got = table_from_exponents(v, kind)
        assert got == GeneratorTable(kind, naive, 0, n)
        assert exponents(got) == v
    else:
        with pytest.raises(NegativeDimension) as info:
            table_from_exponents(v, kind)
        assert info.value.degree == bad


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 80).flatmap(lambda n: st.lists(
    st.integers(-3, 3) | st.integers(-10 ** 12, 10 ** 12),
    min_size=n, max_size=n)))
def test_exponents_from_log_inverts_log_from_exponents(tail):
    # signed exponents at N = 0..80: the ascending sieve takes the L
    # back to them exactly
    v = TruncatedSeries([0] + tail, len(tail))
    assert _exponents_from_log(log_from_exponents(v)) == v


def test_exterior_exponents_double_up():
    # 1 + x^d = (1 - x^(2d))/(1 - x^d); counts at d/2, d/4, ... feed d
    t = GeneratorTable("exterior", {1: 1, 2: 1, 3: 2, 8: 1}, truncation=16)
    v = exponents(t)
    assert {d: c for d, c in enumerate(v.coefficients) if c} == \
        {1: 1, 3: 2, 4: -1, 6: -2, 8: 1, 16: -1}
    assert table_from_exponents(v, "exterior") == t
    with pytest.raises(NegativeDimension) as info:
        table_from_exponents(v, "polynomial")
    assert info.value.degree == 4
    with pytest.raises(InvalidKind):
        table_from_exponents(v, "bogus")
