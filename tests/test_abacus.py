"""Tests for ABACUS (Algorithm 1): exactness, unbiasedness, concentration."""
import statistics

import pytest

from repro.core import exact, probability
from repro.core.abacus import Abacus
from repro.core.encoding import enc_right
from repro.streamgen.graphs import complete_bipartite, zipf_bipartite
from repro.streamgen.stream import final_edges, fully_dynamic_stream


def truth_of(stream):
    return exact.butterflies_reference(final_edges(stream))


# ---------------------------------------------------------------------------
# exact mode: k >= stream length  =>  estimate == truth, always
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_exact_mode_fully_dynamic(seed):
    edges = zipf_bipartite(15, 15, 90, 0.8, 0.8, seed=seed)
    stream = fully_dynamic_stream(edges, 0.25, seed=seed)
    ab = Abacus(k=len(stream) + 1, seed=seed)
    est = ab.process_stream(stream)
    assert est == pytest.approx(truth_of(stream))


@pytest.mark.parametrize("seed", range(5))
def test_exact_mode_insert_only(seed):
    edges = zipf_bipartite(12, 12, 70, seed=seed)
    stream = fully_dynamic_stream(edges, 0.0, seed=seed)
    ab = Abacus(k=100, seed=seed)
    assert ab.process_stream(stream) == pytest.approx(
        exact.butterflies_reference(edges)
    )


def test_exact_mode_complete_bipartite():
    edges = complete_bipartite(4, 4)
    stream = [(u, v, 1) for u, v in edges]
    ab = Abacus(k=50, seed=0)
    assert ab.process_stream(stream) == pytest.approx(36.0)  # C(4,2)^2


def test_exact_mode_insert_then_delete_everything():
    edges = complete_bipartite(3, 3)
    stream = [(u, v, 1) for u, v in edges] + [(u, v, -1) for u, v in edges]
    ab = Abacus(k=100, seed=0)
    assert ab.process_stream(stream) == pytest.approx(0.0)


def test_exact_mode_delete_one_edge():
    """Deleting one edge of K_{3,3} kills the C(2,1)*C(2,1)=4 butterflies
    through it: 9 - 4 = 5 remain."""
    edges = complete_bipartite(3, 3)
    stream = [(u, v, 1) for u, v in edges] + [(edges[0][0], edges[0][1], -1)]
    ab = Abacus(k=100, seed=0)
    assert ab.process_stream(stream) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# estimator state and mechanics
# ---------------------------------------------------------------------------
def test_initial_state():
    ab = Abacus(k=5)
    assert ab.estimate == 0.0
    assert len(ab.rp.sample) == 0
    assert ab.comparisons == 0
    assert ab.elements_processed == 0


def test_process_returns_adjustment():
    edges = complete_bipartite(2, 2)
    ab = Abacus(k=10, seed=0)
    adjs = [ab.process(u, v, 1) for u, v in edges]
    # growing phase: sample = graph, so the 4th edge closes 1 butterfly
    # with probability 1 -> adjustment exactly +1
    assert adjs[:3] == [0.0, 0.0, 0.0]
    assert adjs[3] == pytest.approx(1.0)


def test_deletion_adjustment_is_negative():
    edges = complete_bipartite(2, 2)
    ab = Abacus(k=10, seed=0)
    for u, v in edges:
        ab.process(u, v, 1)
    adj = ab.process(edges[0][0], edges[0][1], -1)
    assert adj == pytest.approx(-1.0)
    assert ab.estimate == pytest.approx(0.0)


def test_elements_and_comparisons_counters():
    edges = zipf_bipartite(10, 10, 50, seed=1)
    stream = fully_dynamic_stream(edges, 0.2, seed=1)
    ab = Abacus(k=20, seed=1)
    ab.process_stream(stream)
    assert ab.elements_processed == len(stream)
    assert ab.comparisons > 0


def test_sample_bounded_by_budget():
    edges = zipf_bipartite(20, 20, 150, seed=2)
    stream = fully_dynamic_stream(edges, 0.2, seed=2)
    ab = Abacus(k=12, seed=2)
    for u, v, s in stream:
        ab.process(u, v, s)
        assert len(ab.rp.sample) <= 12


def test_increment_uses_pre_update_state():
    """The 4th edge of a butterfly is counted with Pr computed from the
    state *before* that edge is inserted (Appendix B: p^(s-1))."""
    ab = Abacus(k=3, seed=0)
    # fill sample with exactly the 3 partner edges (growing phase, all kept)
    ab.process(0, enc_right(1), 1)   # (u, w)
    ab.process(1, enc_right(0), 1)   # (x, v)
    ab.process(1, enc_right(1), 1)   # (x, w)
    # incoming (0, v): pre-state |E|=3, cb=cg=0, y=min(3,3)=3 -> Pr=1
    adj = ab.process(0, enc_right(0), 1)
    assert adj == pytest.approx(1.0)


def test_deterministic_given_seed():
    edges = zipf_bipartite(15, 15, 90, seed=4)
    stream = fully_dynamic_stream(edges, 0.3, seed=4)
    e1 = Abacus(k=20, seed=7).process_stream(stream)
    e2 = Abacus(k=20, seed=7).process_stream(stream)
    assert e1 == e2


# ---------------------------------------------------------------------------
# unbiasedness & concentration (statistical; generous tolerances)
# ---------------------------------------------------------------------------
def _mc_estimates(stream, k, trials, seed0=0):
    return [
        Abacus(k=k, seed=seed0 + t).process_stream(stream) for t in range(trials)
    ]


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_unbiasedness(alpha):
    """Theorem 1: E[c] = |B|. Monte-Carlo mean within 4 standard errors."""
    edges = zipf_bipartite(10, 10, 60, 0.6, 0.6, seed=8)
    stream = fully_dynamic_stream(edges, alpha, seed=8)
    truth = truth_of(stream)
    assert truth > 0
    trials = 600
    ests = _mc_estimates(stream, k=18, trials=trials, seed0=100)
    mean = statistics.fmean(ests)
    se = statistics.stdev(ests) / trials**0.5
    assert abs(mean - truth) <= 4 * se + 1e-9, (mean, truth, se)


def test_concentration_chebyshev():
    """Corollary 1 via empirical variance: P[|c - mean| >= 3 sd] <= 1/9
    (allow slack for MC noise)."""
    edges = zipf_bipartite(10, 10, 60, 0.6, 0.6, seed=9)
    stream = fully_dynamic_stream(edges, 0.2, seed=9)
    ests = _mc_estimates(stream, k=18, trials=600, seed0=5000)
    mean = statistics.fmean(ests)
    sd = statistics.stdev(ests)
    frac_far = sum(1 for e in ests if abs(e - mean) >= 3 * sd) / len(ests)
    assert frac_far <= 1 / 9 + 0.05


def test_bigger_sample_smaller_error():
    """Mean absolute relative error shrinks as k grows (Figs. 3/5 trend)."""
    edges = zipf_bipartite(25, 25, 220, 0.9, 0.9, seed=10)
    stream = fully_dynamic_stream(edges, 0.2, seed=10)
    truth = truth_of(stream)
    errs = {}
    for k in (20, 120):
        ests = _mc_estimates(stream, k=k, trials=120, seed0=k)
        errs[k] = statistics.fmean(abs(e - truth) / truth for e in ests)
    assert errs[120] < errs[20]


def test_variance_formula_on_uniform_sample():
    """Theorem 2's closed form describes c = γ|B_S| over a uniform
    k-subset; check it Monte-Carlo on a small graph."""
    import random as _random

    edges = zipf_bipartite(8, 8, 30, 0.5, 0.5, seed=12)
    n_edges = len(edges)
    k = 12
    bfs = exact.enumerate_butterflies_reference(edges)
    assert len(bfs) >= 2
    y1, y2, y3 = exact.butterfly_pair_profile(bfs)
    g = probability.gamma(n_edges, k)
    theo_var = probability.variance(float(len(bfs)), n_edges, k, y1, y2, y3)

    rng = _random.Random(0)
    trials = 4000
    vals = []
    for _ in range(trials):
        sample = rng.sample(edges, k)
        vals.append(g * exact.butterflies_reference(sample))
    mean = statistics.fmean(vals)
    var = statistics.variance(vals)
    assert mean == pytest.approx(len(bfs), rel=0.1)
    assert var == pytest.approx(theo_var, rel=0.25)
    assert theo_var <= probability.variance_upper_bound(float(len(bfs)), n_edges, k) + 1e-9
