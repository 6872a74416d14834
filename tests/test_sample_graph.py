"""Tests for the sampled-edge Adjacency (sets + dense bitsets + degree
planes) and the SampleGraph O(1) random-eviction structure built on it."""
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import sample_graph
from repro.core.encoding import dec_right, enc_right
from repro.core.sample_graph import BITS_PER_NEIGHBOUR, HEAVY_DEGREE, Adjacency, SampleGraph


def e(u, r):
    """Edge helper: left id u, raw right id r."""
    return (u, enc_right(r))


def test_empty():
    g = SampleGraph()
    assert len(g) == 0
    assert e(1, 1) not in g
    assert g.adj == {}


def test_add_contains_remove():
    g = SampleGraph()
    g.add(*e(1, 2))
    assert len(g) == 1
    assert e(1, 2) in g
    g.remove(*e(1, 2))
    assert len(g) == 0
    assert e(1, 2) not in g


def test_add_reversed_order_is_same_edge():
    """Edges are stored (left, right), whichever order they are added or
    removed in; membership takes them in that order."""
    g = SampleGraph()
    u, v = e(3, 4)
    g.add(v, u)
    assert (u, v) in g
    assert g.edges() == [(u, v)]
    g.remove(v, u)
    assert len(g) == 0


def test_remove_absent_raises():
    g = SampleGraph()
    with pytest.raises(KeyError):
        g.remove(*e(1, 1))


def test_neighbors_and_degree():
    g = SampleGraph()
    g.add(*e(1, 10))
    g.add(*e(1, 11))
    g.add(*e(2, 10))
    assert g.adj == {
        1: {enc_right(10), enc_right(11)},
        2: {enc_right(10)},
        enc_right(10): {1, 2},
        enc_right(11): {1},
    }


def test_isolated_vertices_dropped():
    g = SampleGraph()
    g.add(*e(1, 10))
    g.remove(*e(1, 10))
    assert 1 not in g.adj
    assert enc_right(10) not in g.adj


def test_edges_snapshot():
    g = SampleGraph()
    edges = [e(i, i % 3) for i in range(5)]
    for ed in edges:
        g.add(*ed)
    assert sorted(g.edges()) == sorted(edges)


@pytest.mark.parametrize("seed", range(5))
def test_random_edge_uniform(seed):
    """Every edge is reachable by random_edge with roughly equal frequency."""
    g = SampleGraph()
    edges = [e(i, j) for i in range(4) for j in range(3)]
    for ed in edges:
        g.add(*ed)
    rng = random.Random(seed)
    counts = {ed: 0 for ed in edges}
    trials = 6000
    for _ in range(trials):
        counts[g.random_edge(rng)] += 1
    expected = trials / len(edges)
    for ed, c in counts.items():
        assert abs(c - expected) < 6 * expected**0.5, (ed, c, expected)


def assert_bitsets_mirror_sets(g):
    """Bit i of bits[x] is set iff the neighbour with bit index i is in
    adj[x]; x has a bitset iff it is dense; no isolated vertex keeps one."""
    assert set(g.bits) <= set(g.adj)
    for x, nbrs in g.adj.items():
        dense = len(nbrs) * BITS_PER_NEIGHBOUR >= g.span[x >= 0]
        assert (x in g.bits) == dense, x
        if dense:
            assert g.bits[x] == sum(1 << (y if y >= 0 else dec_right(y)) for y in nbrs), x


def heavy_degree(h):
    """Lower the heavy-vertex threshold, so that small graphs reach it."""
    return mock.patch.object(sample_graph, "HEAVY_DEGREE", h)


def heavy_vertices(a):
    return {x for x in a.bits if len(a.adj[x]) >= sample_graph.HEAVY_DEGREE}


def assert_degree_planes_track_heavy_neighbours(a):
    """Every neighbour of a heavy vertex (dense, degree >= the threshold)
    is tracked; deg decodes to a tracked x's degree (0 once it is
    isolated) at its bit index and to 0 at every other index, with no
    trailing zero plane."""
    for x in heavy_vertices(a):
        assert a.adj[x] <= a.tracked, x
    for side in (0, 1):
        planes = a.deg[side]
        assert not planes or planes[-1]
        assert all(p.bit_length() <= a.span[side] for p in planes)
        for i in range(a.span[side]):
            x = ~i if side else i
            got = sum(((p >> i) & 1) << j for j, p in enumerate(planes))
            assert got == (len(a.adj.get(x, ())) if x in a.tracked else 0), (side, i)


@given(st.sampled_from([1, 150]), st.integers(1, 4),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=80))
def test_degree_planes_model(stride, heavy, toggles):
    """Model-based, over random add/remove sequences: stride 1 keeps every
    vertex dense, stride 150 mixes dense and sparse vertices and grows
    the spans past the density line of vertices already present; the
    drawn threshold moves vertices in and out of heavy by degree. The
    tracked set is exactly every vertex that has neighboured a heavy
    vertex after some op: it only grows."""
    with heavy_degree(heavy):
        a = Adjacency()
        live = set()
        tracked = set()
        for u, r in toggles:
            ed = e(stride * u, stride * r)
            x, y = ed[::-1] if (u + r) % 2 else ed  # both argument orders
            if ed in live:
                a.remove(x, y)
                live.discard(ed)
            else:
                a.add(x, y)
                live.add(ed)
            for h in heavy_vertices(a):
                tracked |= a.adj[h]
            assert a.tracked == tracked
            assert_bitsets_mirror_sets(a)
            assert_degree_planes_track_heavy_neighbours(a)
        assert a.adj == Adjacency(live).adj


@pytest.mark.parametrize("seed", range(8))
def test_random_mutation_sequence_consistency(seed):
    """Model-based: SampleGraph matches a reference set+adjacency model.

    Stride 1 keeps every id span below BITS_PER_NEIGHBOUR, so every vertex
    carries a bitset; stride 150 spreads the ids over spans of up to 751,
    so only vertices of degree >= 3 do, and vertices cross that line both
    ways.
    """
    for stride in (1, 150):
        rng = random.Random(seed)
        g = SampleGraph()
        ref = set()
        spans = [0, 0]
        for _ in range(400):
            u, r = stride * rng.randrange(6), stride * rng.randrange(5)
            ed = e(u, r)
            if ed in ref:
                g.remove(*ed)
                ref.discard(ed)
            else:
                g.add(*ed)
                ref.add(ed)
                spans = [max(spans[0], u + 1), max(spans[1], r + 1)]
            assert len(g) == len(ref)
            assert g.span == spans
            assert_bitsets_mirror_sets(g)
        assert sorted(g.edges()) == sorted(ref)
        ref_adj = {}
        for u, v in ref:
            ref_adj.setdefault(u, set()).add(v)
            ref_adj.setdefault(v, set()).add(u)
        assert g.adj == ref_adj


def test_bitset_dropped_when_vertex_isolated():
    g = SampleGraph()
    g.add(*e(1, 10))
    g.add(*e(1, 11))
    assert 1 in g.bits and enc_right(10) in g.bits
    g.remove(*e(1, 10))
    assert 1 in g.bits and enc_right(10) not in g.bits
    g.remove(*e(1, 11))
    assert g.bits == {}


def test_span_growth_drops_bitsets_no_longer_dense():
    g = SampleGraph()
    g.add(*e(0, 5))
    assert 0 in g.bits  # degree 1, right span 6
    g.add(*e(1, 300))  # right span 301 > 1 * BITS_PER_NEIGHBOUR
    assert 0 not in g.bits and 1 not in g.bits
    assert_bitsets_mirror_sets(g)
    assert_degree_planes_track_heavy_neighbours(g)


def test_span_growth_inside_add_keeps_tracked_vertices():
    """With every dense vertex heavy, the add that widens the right span
    drops its own left endpoint's bitset (degree 2 * 256 < 601) while the
    new right endpoint turns dense: the left vertices that neighboured the
    heavy right one stay tracked, and the new right one, whose neighbours
    are light, is not tracked."""
    with heavy_degree(1):
        a = Adjacency()
        a.add(*e(0, 5))
        a.add(*e(1, 5))
        assert 0 in a.bits and a.tracked == {0, 1, enc_right(5)}
        a.add(*e(0, 600))
        assert 0 not in a.bits and enc_right(600) in a.bits
        assert a.tracked == {0, 1, enc_right(5)}
        assert_bitsets_mirror_sets(a)
        assert_degree_planes_track_heavy_neighbours(a)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("stride", [1, 150])
def test_bulk_build_equals_one_at_a_time(seed, stride):
    rng = random.Random(seed)
    edges = list({e(stride * rng.randrange(8), stride * rng.randrange(6)) for _ in range(30)})
    for heavy in (2, HEAVY_DEGREE):
        with heavy_degree(heavy):
            bulk = Adjacency(edges)
            one = Adjacency()
            for ed in edges:
                one.add(*ed)
            assert (bulk.adj, bulk.bits, bulk.span) == (one.adj, one.bits, one.span)
            # One at a time also tracks the neighbours of vertices that
            # were heavy on the way and are no longer.
            assert bulk.tracked <= one.tracked
            for a in (bulk, one):
                assert_bitsets_mirror_sets(a)
                assert_degree_planes_track_heavy_neighbours(a)


def test_adjacency_add_remove_roundtrip():
    a = Adjacency()
    a.add(1, enc_right(1))
    assert a.adj == {1: {enc_right(1)}, enc_right(1): {1}}
    a.remove(1, enc_right(1))
    assert a.adj == {}
    assert a.bits == {}


def test_adjacency_remove_keeps_other_neighbors():
    a = Adjacency([(1, enc_right(1)), (1, enc_right(2))])
    a.remove(1, enc_right(1))
    assert a.adj[1] == {enc_right(2)}
    assert enc_right(1) not in a.adj


def test_adjacency_bulk_build():
    a = Adjacency([(1, enc_right(1)), (2, enc_right(1))])
    assert a.adj[enc_right(1)] == {1, 2}


def test_swap_pop_preserves_membership_after_removals():
    g = SampleGraph()
    edges = [e(i, j) for i in range(3) for j in range(3)]
    for ed in edges:
        g.add(*ed)
    g.remove(*edges[0])
    g.remove(*edges[4])
    remaining = [ed for i, ed in enumerate(edges) if i not in (0, 4)]
    for ed in remaining:
        assert ed in g
    assert sorted(g.edges()) == sorted(remaining)
