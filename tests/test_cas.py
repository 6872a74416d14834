"""Tests for the CAS-R baseline."""
import statistics

import pytest

from repro.baselines.cas import CasR
from repro.core import exact
from repro.core.encoding import StreamContractError
from repro.streamgen.graphs import complete_bipartite, zipf_bipartite
from repro.streamgen.stream import final_edges, fully_dynamic_stream


def test_validation():
    with pytest.raises(ValueError):
        CasR(3)


def test_memory_split():
    cas = CasR(budget=300)
    assert cas.capacity == round(0.67 * 300)
    assert cas.capacity < 300
    assert cas.sketch.shape[0] == 4
    assert cas.sketch.shape[1] >= 1
    # reservoir + sketch counters stay within the budget
    assert cas.capacity + cas.sketch.size <= 300


def test_exact_while_reservoir_not_full():
    edges = complete_bipartite(4, 4)
    cas = CasR(budget=100, seed=0)
    for u, v in edges:
        cas.process(u, v, 1)
    assert cas.estimate == pytest.approx(36.0)


def test_deletions_are_ignored():
    edges = complete_bipartite(3, 3)
    cas = CasR(budget=50, seed=0)
    for u, v in edges:
        cas.process(u, v, 1)
    before = (cas.estimate, cas.rp.triplet, cas.rp.sample.edges())
    for u, v in edges:
        assert cas.process(u, v, -1) == 0.0
    assert (cas.estimate, cas.rp.triplet, cas.rp.sample.edges()) == before


def test_reservoir_bounded():
    edges = zipf_bipartite(40, 40, 500, seed=1)
    cas = CasR(budget=40, seed=1)
    for u, v in edges:
        cas.process(u, v, 1)
        assert len(cas.rp.sample) <= cas.capacity


def test_q_probability_decreases():
    cas = CasR(budget=20, seed=0)
    assert cas.q == 1.0
    for i in range(50):
        cas.process(i, -(i + 1), 1)
    assert cas.q == pytest.approx(cas.capacity / 50)


def test_sketch_is_updated_per_insertion():
    edges = zipf_bipartite(20, 20, 150, seed=2)
    cas = CasR(budget=60, seed=2)
    for u, v in edges:
        cas.process(u, v, 1)
    assert int(abs(cas.sketch).sum()) > 0


@pytest.mark.parametrize("seed", range(3))
def test_roughly_unbiased_on_insert_only(seed):
    edges = zipf_bipartite(20, 20, 200, 0.8, 0.8, seed=seed)
    truth = exact.butterflies_reference(edges)
    assert truth > 0
    ests = []
    for t in range(150):
        cas = CasR(budget=90, seed=1000 * seed + t)
        for u, v in edges:
            cas.process(u, v, 1)
        ests.append(cas.estimate)
    mean = statistics.fmean(ests)
    assert abs(mean - truth) / truth < 0.35


def test_overestimates_under_deletions():
    edges = zipf_bipartite(25, 25, 250, 0.9, 0.9, seed=5)
    stream = fully_dynamic_stream(edges, 0.3, seed=5)
    truth = exact.butterflies_reference(final_edges(stream))
    cas = CasR(budget=220, seed=5)
    est = cas.process_stream(stream)
    assert est > truth


def test_process_stream_equals_elementwise():
    edges = zipf_bipartite(15, 15, 100, seed=6)
    stream = fully_dynamic_stream(edges, 0.2, seed=6)
    a = CasR(budget=40, seed=9)
    a.process_stream(stream)
    b = CasR(budget=40, seed=9)
    for u, v, s in stream:
        b.process(u, v, s)
    assert a.estimate == b.estimate
    assert sorted(a.rp.sample.edges()) == sorted(b.rp.sample.edges())


def test_effective_sample_smaller_than_fleet_for_same_budget():
    """The λ split leaves CAS fewer edges than FLEET at equal budget —
    the paper's explanation for its (at best) FLEET-level accuracy."""
    cas = CasR(budget=100)
    assert cas.capacity < 100


def cas_state(cas):
    return (cas.estimate, cas.comparisons, cas.sketch.tobytes(), cas.rp.triplet,
            cas.rp.sample.edges(), cas.rp.rng.getstate())


@pytest.mark.parametrize("u, v", [(0, 1), (-1, -2)])
def test_non_bipartite_element_raises_before_sampling(u, v):
    """The sample's bitsets index each side separately, so a same-side
    edge must never enter it. With the reservoir full, the insert would
    not be sampled, yet it raises with nothing moved."""
    algo = CasR(budget=300, seed=0)
    algo.process(2, -3, 1)
    with pytest.raises(StreamContractError):
        algo.process(u, v, 1)
    assert algo.rp.sample.edges() == [(2, -3)]
    assert set(algo.rp.sample.adj) == {2, -3}
    full = CasR(budget=40, seed=0)
    full.process_stream([(a, b, 1) for a, b in zipf_bipartite(20, 20, 150, seed=4)])
    assert len(full.rp.sample) == full.capacity and full.q < 1
    before = cas_state(full)
    with pytest.raises(StreamContractError):
        full.process(u, v, 1)
    assert cas_state(full) == before
