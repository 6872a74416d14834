"""Tests for the FLEET3 baseline."""
import math
import statistics

import pytest

from repro.baselines.fleet import Fleet3
from repro.core import exact
from repro.core.encoding import StreamContractError
from repro.streamgen.graphs import complete_bipartite, zipf_bipartite
from repro.streamgen.stream import final_edges, fully_dynamic_stream


def test_validation():
    with pytest.raises(ValueError):
        Fleet3(1)


def test_exact_before_first_subsample():
    """While the reservoir never fills, p = 1 and counting is exact."""
    edges = complete_bipartite(4, 4)
    fl = Fleet3(capacity=100, seed=0)
    for u, v in edges:
        fl.process(u, v, 1)
    assert fl.estimate == pytest.approx(36.0)
    assert fl.p == 1.0
    assert len(fl.sample) == len(edges)  # never subsampled


def test_deletions_are_ignored():
    """The defining deficiency: deletion elements are complete no-ops."""
    edges = complete_bipartite(3, 3)
    fl = Fleet3(capacity=100, seed=0)
    for u, v in edges:
        fl.process(u, v, 1)
    before = (fl.estimate, len(fl.sample), fl.p)
    for u, v in edges:
        assert fl.process(u, v, -1) == 0.0
    assert (fl.estimate, len(fl.sample), fl.p) == before


def test_subsample_shrinks_sample_and_p():
    edges = zipf_bipartite(30, 30, 300, seed=1)
    fl = Fleet3(capacity=40, seed=1)
    for u, v in edges:
        fl.process(u, v, 1)
    # each subsample multiplies p by gamma = 0.75, so p = 0.75**n, n >= 1
    n = round(math.log(fl.p, 0.75))
    assert n >= 1
    assert fl.p == pytest.approx(0.75**n)
    assert len(fl.sample) <= 40


def test_sample_never_exceeds_capacity():
    edges = zipf_bipartite(40, 40, 500, seed=2)
    fl = Fleet3(capacity=25, seed=2)
    for u, v in edges:
        fl.process(u, v, 1)
        assert len(fl.sample) <= 25


@pytest.mark.parametrize("seed", range(3))
def test_roughly_unbiased_on_insert_only(seed):
    """On insert-only streams FLEET3's estimate tracks the truth."""
    edges = zipf_bipartite(20, 20, 200, 0.8, 0.8, seed=seed)
    truth = exact.butterflies_reference(edges)
    assert truth > 0
    ests = []
    for t in range(150):
        fl = Fleet3(capacity=60, seed=1000 * seed + t)
        for u, v in edges:
            fl.process(u, v, 1)
        ests.append(fl.estimate)
    mean = statistics.fmean(ests)
    assert abs(mean - truth) / truth < 0.30


def test_overestimates_under_deletions():
    """With α = 30% deletions ignored, FLEET's target is the insert-only
    count, which exceeds the fully dynamic truth."""
    edges = zipf_bipartite(25, 25, 250, 0.9, 0.9, seed=5)
    stream = fully_dynamic_stream(edges, 0.3, seed=5)
    truth = exact.butterflies_reference(final_edges(stream))
    insert_only_truth = exact.butterflies_reference(edges)
    assert insert_only_truth > truth
    fl = Fleet3(capacity=150, seed=5)
    est = fl.process_stream(stream)
    assert est > truth  # systematic overcount


def test_process_stream_equals_elementwise():
    edges = zipf_bipartite(15, 15, 100, seed=6)
    stream = fully_dynamic_stream(edges, 0.2, seed=6)
    a = Fleet3(capacity=30, seed=9)
    a.process_stream(stream)
    b = Fleet3(capacity=30, seed=9)
    for u, v, s in stream:
        b.process(u, v, s)
    assert a.estimate == b.estimate
    assert sorted(a.sample.edges()) == sorted(b.sample.edges())


def test_comparisons_counter_grows():
    edges = zipf_bipartite(15, 15, 120, seed=7)
    fl = Fleet3(capacity=200, seed=7)
    for u, v in edges:
        fl.process(u, v, 1)
    assert fl.comparisons > 0
    assert fl.p == 1.0 and len(fl.sample) == len(edges)  # every insertion stored


def fleet_state(fl):
    return (fl.estimate, fl.comparisons, fl.p, fl.sample.edges(), fl.rng.getstate())


def subsampled(seed):
    """FLEET3 at p < 1 after the insertions of a 150-edge graph."""
    fl = Fleet3(capacity=10, seed=seed)
    fl.process_stream([(a, b, 1) for a, b in zipf_bipartite(20, 20, 150, seed=4)])
    assert fl.p < 1
    return fl


@pytest.mark.parametrize("u, v", [(0, 1), (-1, -2)])
def test_non_bipartite_element_raises_before_sampling(u, v):
    """The sample's bitsets index each side separately, so a same-side
    edge must never enter it. At p < 1 the coin would mostly not sample
    it, yet it raises with nothing moved."""
    algo = Fleet3(capacity=10, seed=0)
    algo.process(2, -3, 1)
    with pytest.raises(StreamContractError):
        algo.process(u, v, 1)
    assert algo.sample.edges() == [(2, -3)]
    assert set(algo.sample.adj) == {2, -3}
    for seed in range(3):
        fl = subsampled(seed)
        before = fleet_state(fl)
        with pytest.raises(StreamContractError):
            fl.process(u, v, 1)
        assert fleet_state(fl) == before


def test_duplicate_insert_of_sampled_edge_raises():
    """In either orientation, at p = 1 and at p < 1, before counting."""
    full = Fleet3(capacity=100, seed=0)
    full.process_stream([(a, b, 1) for a, b in complete_bipartite(3, 3)])
    for fl in (full, subsampled(0)):
        a, b = fl.sample.edges()[0]
        before = fleet_state(fl)
        for u, v in ((a, b), (b, a)):
            with pytest.raises(StreamContractError):
                fl.process(u, v, 1)
        assert fleet_state(fl) == before
