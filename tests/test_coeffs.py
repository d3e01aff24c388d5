import itertools
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longedge import cli, coeffs
from longedge.coeffs import (
    a_series,
    b_coeffs,
    cor,
    cor_doubleprime,
    diffq,
    q_beta_delta,
    template_coefficients,
    template_data,
)
from longedge.orderings import fit_linear_phi
from longedge.polygon import BetaStats, beta_stats
from longedge.series import RatSeries

from oracles import (
    enumerate_graphs,
    p_by_walk,
    phi_by_partitions,
    q_beta_by_templates,
    q_delta_linearized,
    template_sums_by_fractions,
)


def test_beta_stats():
    assert beta_stats((0, 1, 2, 3)) == BetaStats(9, 9, 3, 0)
    assert beta_stats((4, 4, 4)) == BetaStats(16, 12, 2, 0)
    assert beta_stats((0, 3, 6, 6, 6)) == BetaStats(36, 14, 4, 3)
    with pytest.raises(ValueError):
        beta_stats((5,))


def test_coefficient_table_delta_one():
    tab = template_coefficients(1)
    assert (tab.A, tab.L, tab.H, tab.D, tab.C) == (3, -2, 0, 0, 4)
    assert tab.Ctilde == 0
    assert tab.b == (Fraction(1),)


def test_coefficient_table_delta_two():
    tab = template_coefficients(2)
    assert (tab.A, tab.L, tab.D, tab.C) == (-21, Fraction(39, 2), 4, -38)
    assert tab.H == 0
    assert tab.Ctilde == -36
    assert tab.b == (Fraction(-9, 2), Fraction(1))


def test_coefficient_table_as_dict(capsys):
    # the cogenus-2 row as the CLI prints it: each exact value as its string
    assert cli.main(["coeffs", "--delta", "2"]) == 0
    d = json.loads(capsys.readouterr().out)[-1]
    assert d["delta"] == 2
    assert d["A"] == "-21"
    assert d["L"] == "39/2"
    assert d["Ctilde"] == "-36"
    assert d["b"] == ["-9/2", "1"]


def test_b_column_delta_three():
    assert b_coeffs(3, 1) == Fraction(130, 3)
    assert b_coeffs(3, 2) == -12
    assert b_coeffs(3, 3) == 1


def test_b_vanishes_above_the_cogenus():
    for delta, i in [(1, 2), (2, 3), (3, 4), (3, 5)]:
        assert b_coeffs(delta, i) == 0
    with pytest.raises(ValueError):
        b_coeffs(2, 0)


def test_b_diagonal_is_one():
    # the lowest-order term of log P(g^i) is g^i's leading t^i
    for delta in (1, 2, 3):
        assert b_coeffs(delta, delta) == 1


@pytest.mark.parametrize("delta, count", [(1, 2), (2, 7), (3, 26), (4, 102)])
def test_reflected_forms_equal_direct_fits(delta, count, monkeypatch):
    # a cold build of a whole cogenus fits each template as it fits it alone
    monkeypatch.setattr(coeffs, "_disk_cache", False)
    data = template_data.__wrapped__(delta)
    assert len(data) == count
    for t, form in data:
        assert form == fit_linear_phi(t), t


@pytest.mark.parametrize("delta", [0, -1])
def test_template_data_below_cogenus_one_is_empty(delta, tmp_path, monkeypatch):
    # no template and nothing fitted, read or written, as enumerate_templates
    # and `templates --delta 0` have it
    monkeypatch.setenv("LONGEDGE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(coeffs, "_disk_cache", True)
    for name in ("fit_templates", "_load", "_store"):
        monkeypatch.setattr(coeffs, name, None)
    assert template_data.__wrapped__(delta) == ()
    assert not (tmp_path / "cache").exists()


def test_a_series():
    assert a_series(3) == RatSeries([1, -6, 60, -748])


def test_h_vanishes_and_both_l_formulas_agree():
    # the L agreement is asserted inside the sum; H must come out zero
    for delta in (1, 2, 3, 4):
        assert template_coefficients(delta).H == 0


def test_integer_sums_match_fraction_oracle(tmp_path, monkeypatch):
    # the integer sums against the same sums taken one Fraction at a time,
    # over a cold build and then over the templates read back from the
    # cache; then the sums read back from their own files
    monkeypatch.setenv("LONGEDGE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(coeffs, "_disk_cache", True)
    expected = {}
    for source in ("cold", "loaded"):
        template_data.cache_clear()
        coeffs._template_sums.cache_clear()
        # the loaded pass sums the loaded templates, not the stored sums
        for path in tmp_path.glob("sums-*.json"):
            path.unlink()
        for delta in range(1, 7):
            expected[delta] = template_sums_by_fractions(delta, template_data(delta))
            assert coeffs._template_sums(delta) == expected[delta], (source, delta)
        # the second pass must load every cogenus, not fit it
        monkeypatch.setattr(coeffs, "fit_templates", None)
    coeffs._template_sums.cache_clear()
    monkeypatch.setattr(coeffs, "template_data", None)
    for delta in range(1, 7):
        assert coeffs._template_sums(delta) == expected[delta], ("sums file", delta)


@pytest.mark.parametrize("moment", ["eta0", "zeta0"])
def test_integer_sums_catch_a_moment_off_by_one_over_den(monkeypatch, moment):
    # one template's eta0 or zeta0 off by the least step the sums can
    # see, 1/den: one formula for L moves and the other does not, which
    # the library sees as H off 0
    delta = 4
    data = template_data(delta)
    den = lcm(*(m.denominator for _, form in data for m in form))
    assert den > 1
    # a template with a middle, so that zeta0 reaches L
    at = next(i for i, (t, _) in enumerate(data) if t.length - t.epsilon0 - t.epsilon1)
    t, form = data[at]
    off = form._replace(**{moment: getattr(form, moment) + Fraction(1, den)})
    bumped = data[:at] + ((t, off),) + data[at + 1 :]
    monkeypatch.setattr(coeffs, "template_data", lambda d: bumped)
    # the sums are computed, not read from a file an earlier test stored
    monkeypatch.setattr(coeffs, "_disk_cache", False)
    with pytest.raises(ArithmeticError, match=r"H = -?\d+(/\d+)? at delta=4, not 0"):
        coeffs._template_sums.__wrapped__(delta)
    with pytest.raises(ArithmeticError, match="the two formulas for L disagree"):
        template_sums_by_fractions(delta, bumped)


def test_diffq_fixed_values():
    assert diffq(0, 1) == 0
    assert diffq(0, 3) == 0
    for p in range(1, 6):
        assert diffq(p, 1) == -p
    for p in range(2, 6):
        assert diffq(p, 2) == Fraction(19 * p, 2) - 9
    assert diffq(1, 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        diffq(-1, 1)


# diffq(p, delta) for p = 1..4, as the template loop over phi computed it;
# test_diffq_fixed_values pins delta = 1 and 2
DIFFQ_PINNED = {
    3: ("119/3", "-296/3", "-227", "-1066/3"),
    4: ("-4159/4", "1230", "12675/4", "10225/2"),
    5: ("109959/5", "-86272/5", "-241683/5", "-397974/5"),
    6: ("-2633309/6", "779632/3", "1555303/2", "3899477/3"),
    7: ("60018174/7", "-28733280/7", "-90768786/7", "-153482760/7"),
}


@pytest.mark.parametrize("delta", sorted(DIFFQ_PINNED))
def test_diffq_pinned_values(delta):
    values = [diffq(p, delta) for p in range(1, 5)]
    assert values == [Fraction(v) for v in DIFFQ_PINNED[delta]]


def test_diffq_matches_linearized_oracle():
    # the closed sum of eta0 + p*(k*zeta0 + zeta1) over the shifts against
    # the bump fit's forms evaluated shift by shift; diffq(0, delta) is 0 by
    # definition, though the two sums differ there
    for delta in range(1, 6):
        for p in range(5):
            beta = tuple(p * j for j in range(delta + 1))
            linear = q_beta_by_templates(beta, delta) - q_delta_linearized(beta, delta)
            assert diffq(p, delta) == (linear if p else 0), (p, delta)


def test_row_linear_part_matches_template_shift_sum():
    # at the widths p*(k, ..., k+ell-1) under a shift k a template's form is
    # eta0 + p*(k*zeta0 + zeta1); summed over every template and admitted
    # shift, that is the row's linear form at the stats of p*(0..delta)
    for delta in range(1, 7):
        for p in range(1, 6):
            shift_sum = Fraction(0)
            for t, form in template_data(delta):
                for k in t.shifts(delta):
                    shift_sum += t.multiplicity * (
                        form.eta0 + p * (k * form.zeta0 + form.zeta1)
                    )
            stats = beta_stats(tuple(p * j for j in range(delta + 1)))
            assert coeffs._linear_part(delta, stats) == shift_sum, (p, delta)


def test_diffq_end_template_closed_form():
    # for p >= delta only templates touching the top contribute, linearly in p
    for delta in (1, 2, 3):
        ends = [
            (t.multiplicity, form.zeta1, form.eta0)
            for t, form in template_data(delta)
            if t.epsilon0 == 1
        ]
        for p in range(delta, delta + 4):
            closed = -sum(mu * (p * z1 + e0) for mu, z1, e0 in ends)
            assert diffq(p, delta) == closed


def test_cor_fixed_values():
    for delta in (1, 2, 3):
        assert cor(0, delta) == 0
        assert cor(1, delta) == 0
        assert cor(2, delta) == 0
    assert cor(3, 1) == -1
    assert cor(3, 2) == Fraction(21, 2)


def test_cor_doubleprime():
    assert [cor_doubleprime(p) for p in range(5)] == [
        0,
        0,
        0,
        Fraction(4, 3),
        3,
    ]
    with pytest.raises(ValueError):
        cor_doubleprime(-2)


def test_q_beta_delta_triangle():
    assert q_beta_delta((0, 1, 2, 3), 1) == 12
    assert q_delta_linearized((0, 1, 2, 3), 1) == 13
    with pytest.raises(ValueError):
        q_beta_delta((1, 1), 0)


def test_q_beta_delta_reads_no_template(monkeypatch):
    # the log of one direct transfer: no template, fit or log plan
    from longedge import graphs, orderings

    def refuse(*args):
        raise AssertionError("q_beta_delta reached the template side")

    for module, name in (
        (coeffs, "template_data"),
        (coeffs, "enumerate_templates"),
        (graphs, "enumerate_templates"),
        (orderings, "_plan"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert q_beta_delta((0, 2, 4, 6, 8), 4) == -41732


@pytest.mark.parametrize(
    "beta,delta,match",
    [
        ((-1, 2), 1, "nonnegative"),
        ((2, -1, 3), 2, "nonnegative"),
        ((1.5, 2), 1, "integers"),
        ((2, 2.0, 2), 2, "integers"),
        ((), 1, "empty"),
        ((0, 1, 2), 9, "out of reach"),
        # a bool is not read as width 1: q_beta_delta((1, 2, 3), 1) is 12
        ((True, 2, 3), 1, "integers"),
    ],
)
def test_q_beta_delta_rejects_bad_input(beta, delta, match):
    with pytest.raises(ValueError, match=match):
        q_beta_delta(beta, delta)


@given(
    beta=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8),
    delta=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_q_beta_delta_matches_template_loop(beta, delta):
    # zeros, length 1 and widths that are not semiallowable all drawn
    assert q_beta_delta(beta, delta) == q_beta_by_templates(beta, delta)


def q_beta_oracle(beta, delta):
    """Direct log-transform over all graphs, not just shifted templates,
    strictness read off the graph walk."""
    strict = lambda h, b: p_by_walk(h, b, True)
    total = Fraction(0)
    m = len(beta) - 1
    for g in enumerate_graphs(delta, m + 1):
        total += g.multiplicity * phi_by_partitions(g, beta, strict)
    return total


@pytest.mark.parametrize(
    "beta,delta",
    [
        ((0, 1, 2, 3), 1),
        ((3, 3, 3), 1),
        ((2, 4, 4, 2), 1),
        ((0, 1, 2, 3, 4), 2),
        ((4, 4, 4, 4), 2),
        ((0, 2, 4, 4), 2),
        ((1, 3, 5, 5, 3), 2),
        ((0, 1, 2, 3), 3),
        ((3, 3, 3, 3), 3),
    ],
)
def test_q_beta_delta_matches_direct_graph_sum(beta, delta):
    assert q_beta_delta(beta, delta) == q_beta_oracle(beta, delta)


@given(
    beta=st.lists(
        st.integers(min_value=0, max_value=4), min_size=2, max_size=5
    ),
    delta=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_q_beta_delta_matches_direct_graph_sum_random(beta, delta):
    beta = tuple(beta)
    assert q_beta_delta(beta, delta) == q_beta_oracle(beta, delta)


def test_linearized_sum_is_linear_in_beta():
    # bump a middle width on a tall staircase: the fitted forms are linear,
    # so the linearized sum moves by a constant slope
    base = (6, 7, 8, 9, 10, 11)
    for delta in (1, 2):
        f0 = q_delta_linearized(base, delta)
        bumped = (6, 7, 8 + 1, 9, 10, 11)
        f1 = q_delta_linearized(bumped, delta)
        bumped2 = (6, 7, 8 + 2, 9, 10, 11)
        f2 = q_delta_linearized(bumped2, delta)
        assert f2 - f1 == f1 - f0


def test_true_sum_agrees_with_linearization_on_large_widths():
    # all slices semiallowable: the deviation DiffQ comes only from the ends,
    # and a fat constant profile keeps every end slice in the linear region
    for delta in (1, 2):
        beta = tuple([delta + 3] * 5)
        assert q_beta_delta(beta, delta) == q_delta_linearized(beta, delta)
