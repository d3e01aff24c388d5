from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longedge.series import (
    RatSeries,
    b1_b2,
    d2g2,
    dg2,
    disc,
    g2,
    log_exp_coeffs,
    partition_counts,
    partition_series,
    partition_series_in_power,
    sigma,
)

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


def series_from(vals):
    return RatSeries([Fraction(v) for v in vals])


def test_sigma():
    assert [sigma(n) for n in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]


def test_partition_counts():
    assert partition_counts(9) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_constructors_and_basics():
    s = series_from([1, 2, 3])
    assert s.order == 2
    assert s[1] == 2
    assert list(s) == [1, 2, 3]
    assert RatSeries.zero(2) == series_from([0, 0, 0])
    assert RatSeries.one(2) == series_from([1, 0, 0])
    assert RatSeries.identity(2) == series_from([0, 1, 0])
    with pytest.raises(ValueError):
        RatSeries([])
    assert s.truncate(1) == series_from([1, 2])
    assert s.truncate(5) is s


def test_arithmetic_truncates_to_shorter():
    a = series_from([1, 1, 1, 1])
    b = series_from([1, 2, 3])
    assert (a + b).order == 2
    assert a + b == series_from([2, 3, 4])
    assert a - b == series_from([0, -1, -2])
    assert a * b == series_from([1, 3, 6])
    assert a.scale(Fraction(1, 2)) == series_from(
        [Fraction(1, 2)] * 4
    )
    assert b.shift(2) == series_from([0, 0, 1])


def test_exp_log_roundtrip():
    s = series_from([0, 1, -2, Fraction(3, 5)])
    assert s.exp().log() == s
    u = series_from([1, 4, Fraction(-1, 3), 7])
    assert u.log().exp() == u
    # exp(t) has factorial denominators
    e = RatSeries.identity(4).exp()
    assert e == series_from(
        [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    )
    with pytest.raises(ValueError):
        series_from([1, 1]).exp()
    with pytest.raises(ValueError):
        series_from([0, 1]).log()


def test_pow():
    u = series_from([1, 2, 1])  # (1+t)^2
    assert u.pow(Fraction(1, 2)) == series_from([1, 1, 0])
    assert u.pow(-1) == series_from([1, -2, 3])
    assert u.pow(0) == RatSeries.one(2)


@given(
    st.lists(rationals, min_size=3, max_size=5),
    rationals,
    rationals,
)
@settings(max_examples=60, deadline=None)
def test_pow_is_additive_in_the_exponent(tail, p, q):
    u = RatSeries([Fraction(1), *tail])
    assert u.pow(p) * u.pow(q) == u.pow(p + q)


@given(st.lists(rationals, min_size=1, max_size=6), rationals)
@settings(max_examples=60, deadline=None)
def test_pow_recurrence_equals_log_exp(tail, p):
    # Miller's recurrence gives exactly exp(p log u)
    u = RatSeries([Fraction(1), *tail])
    assert u.pow(p) == u.log().scale(p).exp()


def test_compose():
    outer = series_from([1, 1, 1])  # 1 + u + u^2
    inner = series_from([0, 1, 1])  # t + t^2
    assert outer.compose(inner) == series_from([1, 1, 2])
    with pytest.raises(ValueError):
        outer.compose(series_from([1, 1, 0]))


def test_revert_known_series():
    # inverse of t/(1-t) is t/(1+t)
    f = series_from([0, 1, 1, 1, 1])
    assert f.revert() == series_from([0, 1, -1, 1, -1])
    with pytest.raises(ValueError):
        series_from([0, 0, 1]).revert()
    with pytest.raises(ValueError):
        series_from([1, 1]).revert()


@given(st.lists(rationals, min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_revert_inverts_composition(tail):
    f = RatSeries([Fraction(0), Fraction(1), *tail])
    g = f.revert()
    assert f.compose(g) == RatSeries.identity(f.order)
    assert g.compose(f) == RatSeries.identity(f.order)


def test_log_exp_coeffs_scalar_transform():
    vals = [Fraction(2), Fraction(-1), Fraction(5)]
    out = log_exp_coeffs(vals)
    assert out[0] == 2
    assert out[1] == -1 + Fraction(4, 2)
    assert out[2] == 5 + 2 * (-1) + Fraction(8, 6)


def test_weight_two_generators():
    assert g2(4) == series_from([Fraction(-1, 24), 1, 3, 4, 7])
    assert dg2(4) == series_from([0, 1, 6, 12, 28])
    assert d2g2(4) == series_from([0, 1, 12, 36, 112])


def test_disc_q_expansion():
    assert disc(6) == series_from([0, 1, -24, 252, -1472, 4830, -6048])


def test_partition_series():
    assert partition_series(5) == series_from([1, 1, 2, 3, 5, 7])
    # log P has coefficients sigma(n)/n
    logp = partition_series(6).log()
    assert list(logp)[1:] == [
        Fraction(sigma(n), n) for n in range(1, 7)
    ]
    assert partition_series_in_power(6, 2) == series_from(
        [1, 0, 1, 0, 2, 0, 3]
    )
    assert partition_series_in_power(5, 3) == series_from(
        [1, 0, 0, 1, 0, 0]
    )


def test_revert_of_weight_two_generator():
    assert dg2(4).revert() == series_from([0, 1, -6, 60, -748])


def test_closed_form_factors():
    b1, b2 = b1_b2(3)
    assert b1 == series_from([1, -1, -5, 39])
    assert b2 == series_from([1, 5, 2, 35])
