"""Tests for the Random Pairing sampler (Algorithm 2)."""
from collections import Counter

import pytest

from repro.core.encoding import StreamContractError, enc_right
from repro.core.random_pairing import RandomPairing
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import final_edges, fully_dynamic_stream


def run_stream(rp, stream):
    for u, v, sign in stream:
        if sign > 0:
            rp.insert(u, v)
        else:
            rp.delete(u, v)


def small_stream(n_edges=40, alpha=0.3, seed=0):
    edges = [(i % 8, enc_right(i % 7)) for i in range(56)][:n_edges]
    # ensure distinct edges
    edges = list(dict.fromkeys(edges))[:n_edges]
    return fully_dynamic_stream(edges, alpha, seed=seed)


def test_budget_validation():
    with pytest.raises(ValueError):
        RandomPairing(1)


def test_growing_phase_keeps_everything():
    rp = RandomPairing(k=100, seed=0)
    for i in range(50):
        rp.insert(i, enc_right(i))
    assert len(rp.sample) == 50
    assert rp.n_live == 50
    assert rp.c_b == rp.c_g == 0


def test_sample_never_exceeds_budget():
    rp = RandomPairing(k=10, seed=1)
    for i in range(40):
        rp.insert(i, enc_right(i % 9))
        assert len(rp.sample) <= 10


def test_delete_sampled_edge_increments_cb():
    rp = RandomPairing(k=10, seed=0)
    rp.insert(1, enc_right(1))
    rp.delete(1, enc_right(1))
    assert rp.c_b == 1 and rp.c_g == 0
    assert len(rp.sample) == 0
    assert rp.n_live == 0


def test_delete_unsampled_edge_increments_cg():
    rp = RandomPairing(k=2, seed=0)
    for i in range(10):
        rp.insert(i, enc_right(i))
    # find an unsampled live edge
    unsampled = next(
        (i, enc_right(i)) for i in range(10) if (i, enc_right(i)) not in rp.sample
    )
    rp.delete(*unsampled)
    assert rp.c_g == 1 and rp.c_b == 0


def test_delete_from_empty_live_set_raises_and_changes_nothing():
    rp = RandomPairing(k=4, seed=0)
    with pytest.raises(ValueError):
        rp.delete(1, enc_right(1))
    assert rp.triplet == (0, 0, 0)
    # emptied again after an insert/delete pair: the pending c_b stays
    rp.insert(1, enc_right(1))
    rp.delete(1, enc_right(1))
    with pytest.raises(ValueError):
        rp.delete(2, enc_right(2))
    assert rp.triplet == (0, 1, 0)
    assert len(rp.sample) == 0


def test_compensation_shrinks_counters():
    rp = RandomPairing(k=4, seed=3)
    for i in range(4):
        rp.insert(i, enc_right(i))
    rp.delete(0, enc_right(0))  # sampled -> c_b = 1
    assert rp.c_b == 1
    rp.insert(10, enc_right(10))  # must compensate: c_b/(c_b+c_g) = 1
    assert rp.c_b == 0 and rp.c_g == 0
    assert (10, enc_right(10)) in rp.sample


def test_pure_good_deletion_compensation_skips_insert():
    rp = RandomPairing(k=2, seed=5)
    for i in range(10):
        rp.insert(i, enc_right(i))
    unsampled = next(
        (i, enc_right(i)) for i in range(10) if (i, enc_right(i)) not in rp.sample
    )
    rp.delete(*unsampled)  # c_g = 1
    before = set(rp.sample.edges())
    rp.insert(99, enc_right(99))  # prob c_b/(c_b+c_g) = 0 -> never sampled
    assert set(rp.sample.edges()) == before
    assert rp.c_g == 0


@pytest.mark.parametrize("seed", range(6))
def test_sample_subset_of_live_edges(seed):
    edges = zipf_bipartite(20, 20, 120, seed=seed)
    stream = fully_dynamic_stream(edges, 0.3, seed=seed)
    rp = RandomPairing(k=15, seed=seed)
    live = set()
    for u, v, sign in stream:
        if sign > 0:
            rp.insert(u, v)
            live.add((u, v))
        else:
            rp.delete(u, v)
            live.discard((u, v))
        assert all(e in live for e in rp.sample.edges())
    assert live == set(final_edges(stream))


@pytest.mark.parametrize("seed", range(4))
def test_counters_invariant(seed):
    """c_b + c_g equals deletions minus compensations; never negative."""
    edges = zipf_bipartite(15, 15, 80, seed=seed)
    stream = fully_dynamic_stream(edges, 0.25, seed=seed)
    rp = RandomPairing(k=10, seed=seed)
    for u, v, sign in stream:
        run_stream(rp, [(u, v, sign)])
        assert rp.c_b >= 0 and rp.c_g >= 0
        assert len(rp.sample) <= rp.k
        assert rp.n_live >= len(rp.sample)


def test_triplet_property():
    rp = RandomPairing(k=5, seed=0)
    rp.insert(1, enc_right(1))
    assert rp.triplet == (1, 0, 0)


def test_insert_delta_ops_reflect_sample_change():
    rp = RandomPairing(k=2, seed=7)
    ops = rp.insert(1, enc_right(1))
    assert ops == [("a", 1, enc_right(1))]
    ops = rp.insert(2, enc_right(2))
    assert ops == [("a", 2, enc_right(2))]
    for i in range(3, 50):
        ops = rp.insert(i, enc_right(i))
        if ops:  # replacement: one removal then one insertion
            assert [o[0] for o in ops] == ["r", "a"]
            assert len(rp.sample) == 2


def test_delete_delta_ops():
    rp = RandomPairing(k=5, seed=0)
    rp.insert(1, enc_right(1))
    assert rp.delete(1, enc_right(1)) == [("r", 1, enc_right(1))]
    rp.insert(2, enc_right(2))  # compensates c_b
    rp.insert(3, enc_right(3))
    # delete an edge not in sample is impossible here (k large); craft c_g:
    rp2 = RandomPairing(k=2, seed=1)
    for i in range(10):
        rp2.insert(i, enc_right(i))
    unsampled = next(
        (i, enc_right(i)) for i in range(10) if (i, enc_right(i)) not in rp2.sample
    )
    assert rp2.delete(*unsampled) == []


@pytest.mark.parametrize("k", [5, 10])
def test_uniformity_insert_only(k):
    """Reservoir phase: every edge equally likely to be sampled."""
    n = 30
    edges = [(i, enc_right(i)) for i in range(n)]
    counts = Counter()
    trials = 3000
    for t in range(trials):
        rp = RandomPairing(k=k, seed=t)
        for u, v in edges:
            rp.insert(u, v)
        counts.update(rp.sample.edges())
    expected = trials * k / n
    sd = (trials * (k / n) * (1 - k / n)) ** 0.5
    for e in edges:
        assert abs(counts[e] - expected) < 5.5 * sd, (e, counts[e], expected)


def test_uniformity_with_deletions():
    """Fully dynamic: all surviving edges sampled with equal probability."""
    edges = zipf_bipartite(10, 10, 50, seed=42)
    stream = fully_dynamic_stream(edges, 0.3, seed=42)
    live = final_edges(stream)
    k = 8
    counts = Counter()
    trials = 3000
    sizes = []
    for t in range(trials):
        rp = RandomPairing(k=k, seed=10_000 + t)
        run_stream(rp, stream)
        counts.update(rp.sample.edges())
        sizes.append(len(rp.sample))
    p_mean = sum(sizes) / trials / len(live)
    expected = trials * p_mean
    sd = (trials * p_mean * (1 - p_mean)) ** 0.5
    for e in live:
        assert abs(counts[e] - expected) < 6 * sd, (e, counts[e], expected)


def test_deterministic_given_seed():
    edges = zipf_bipartite(12, 12, 60, seed=3)
    stream = fully_dynamic_stream(edges, 0.2, seed=3)
    a, b = RandomPairing(k=9, seed=5), RandomPairing(k=9, seed=5)
    run_stream(a, stream)
    run_stream(b, stream)
    assert sorted(a.sample.edges()) == sorted(b.sample.edges())
    assert a.triplet == b.triplet


def test_duplicate_insert_of_sampled_edge_is_a_contract_error():
    rp = RandomPairing(k=5, seed=0)
    rp.insert(0, enc_right(0))
    with pytest.raises(StreamContractError):
        rp.insert(0, enc_right(0))
    assert len(rp.sample) == 1
    assert rp.triplet == (1, 0, 0)


@pytest.mark.parametrize("u, v", [(0, 1), (enc_right(0), enc_right(1))])
@pytest.mark.parametrize("op", ["insert", "delete"])
def test_non_bipartite_element_raises_with_nothing_changed(op, u, v):
    """Checked before n_live, the counters, the sample or the RNG move,
    here with the reservoir full and a deletion pending."""
    rp = RandomPairing(k=3, seed=0)
    for i in range(8):
        rp.insert(i, enc_right(i))
    rp.delete(7, enc_right(7))
    assert len(rp.sample) == 3 and rp.c_b + rp.c_g == 1
    before = (rp.triplet, rp.sample.edges(), rp.rng.getstate())
    with pytest.raises(StreamContractError):
        getattr(rp, op)(u, v)
    assert (rp.triplet, rp.sample.edges(), rp.rng.getstate()) == before
