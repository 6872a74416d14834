"""Tests for Eq. 1 / Theorem 2 math in repro.core.probability."""
from math import comb

import pytest

from repro.core.probability import (
    discovery_probability,
    gamma,
    variance,
    variance_upper_bound,
)


def test_probability_is_one_when_sample_holds_everything():
    # y == T: sample contains every live edge
    assert discovery_probability(100, 50, 0, 0) == pytest.approx(1.0)
    assert discovery_probability(100, 40, 5, 5) == pytest.approx(1.0)


def test_probability_zero_below_three_edges():
    assert discovery_probability(10, 2, 0, 0) == 0.0
    assert discovery_probability(2, 100, 0, 0) == 0.0


@pytest.mark.parametrize("k,e,cb,cg", [(5, 20, 0, 0), (10, 30, 2, 3), (8, 8, 1, 1)])
def test_probability_matches_hypergeometric(k, e, cb, cg):
    """Eq. 1 equals C(T-3, y-3)/C(T, y): prob a uniform y-subset of T
    contains 3 specific elements."""
    t = e + cb + cg
    y = min(k, t)
    expected = comb(t - 3, y - 3) / comb(t, y)
    assert discovery_probability(k, e, cb, cg) == pytest.approx(expected)


@pytest.mark.parametrize("k,e", [(5, 10), (5, 100), (20, 1000)])
def test_probability_monotone_decreasing_in_stream_size(k, e):
    assert discovery_probability(k, e, 0, 0) > discovery_probability(k, e + 10, 0, 0)


def test_gamma_definition():
    assert gamma(20, 10) == pytest.approx(comb(20, 10) / comb(16, 6))
    assert gamma(10, 10) == 1.0
    assert gamma(5, 10) == 1.0  # sample holds whole graph


def test_gamma_requires_k_at_least_4():
    with pytest.raises(ValueError):
        gamma(10, 3)


def test_gamma_is_reciprocal_of_4edge_probability():
    e, k = 30, 12
    p4 = comb(e - 4, k - 4) / comb(e, k)
    assert gamma(e, k) == pytest.approx(1.0 / p4)


def test_variance_zero_when_sample_is_whole_graph():
    # k >= |E|: gamma == 1, all pair probs 1 -> Var = E + 2*(y1+y2+y3) - E^2
    # with y1+y2+y3 = C(E_c, 2): Var = E_c + E_c(E_c-1) - E_c^2 = 0
    b = 6.0
    pairs = b * (b - 1) / 2
    assert variance(b, 10, 10, pairs, 0, 0) == pytest.approx(0.0)
    assert variance(b, 10, 10, 0, 0, pairs) == pytest.approx(0.0)


def test_variance_nonnegative_typical():
    assert variance(10.0, 100, 20, 30.0, 10.0, 5.0) >= 0.0


def test_upper_bound_dominates_closed_form():
    """Bound uses the largest pair probability for all pairs."""
    b, e, k = 8.0, 60, 14
    total_pairs = b * (b - 1) / 2
    for y1, y2 in [(total_pairs, 0), (0, total_pairs), (10, 10)]:
        y3 = total_pairs - y1 - y2
        assert variance_upper_bound(b, e, k) >= variance(b, e, k, y1, y2, y3) - 1e-9


def test_bound_equals_closed_form_when_all_pairs_share_two_edges():
    b, e, k = 5.0, 40, 10
    pairs = b * (b - 1) / 2
    assert variance_upper_bound(b, e, k) == pytest.approx(
        variance(b, e, k, 0, 0, pairs)
    )


@pytest.mark.parametrize("k", [6, 8, 10, 12])
def test_variance_decreases_with_budget(k):
    v1 = variance_upper_bound(10.0, 50, k)
    v2 = variance_upper_bound(10.0, 50, k + 2)
    assert v2 <= v1 + 1e-9
