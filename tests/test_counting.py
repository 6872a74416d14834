"""Tests for the per-edge butterfly counting kernel (Alg. 1 lines 6-11)."""
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro.baselines import cas, fleet
from repro.core import abacus, counting, parabacus, sample_graph
from repro.core.counting import count_butterflies_with_sample
from repro.core.encoding import enc_right
from repro.core.sample_graph import Adjacency, SampleGraph
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import fully_dynamic_stream, insertions_only


def brute_force_per_edge(adj, u, v):
    """Butterflies {u, v, w, x} with partner edges (u,w), (x,v), (x,w) in adj.

    Direct enumeration: w over u's sampled neighbors (≠ v), x over v's
    sampled neighbors (≠ u), counting pairs with edge (x, w) present.
    """
    count = 0
    for w in adj.get(u, set()):
        if w == v:
            continue
        for x in adj.get(v, set()):
            if x == u:
                continue
            if w in adj.get(x, set()):
                count += 1
    return count


def random_sample_graph(n_left, n_right, n_edges, seed):
    rng = random.Random(seed)
    g = SampleGraph()
    seen = set()
    while len(seen) < n_edges:
        ed = (rng.randrange(n_left), enc_right(rng.randrange(n_right)))
        if ed not in seen:
            seen.add(ed)
            g.add(*ed)
    return g, rng


def test_empty_sample_counts_zero():
    assert count_butterflies_with_sample(Adjacency(), 1, enc_right(1)) == (0, 0)


def test_endpoint_absent_counts_zero():
    g = SampleGraph()
    g.add(1, enc_right(1))
    assert count_butterflies_with_sample(g, 2, enc_right(2)) == (0, 0)


def test_single_butterfly_closure():
    """Sample {u-w, x-v, x-w}; incoming (u, v) closes one butterfly."""
    u, x = 0, 1
    v, w = enc_right(0), enc_right(1)
    g = SampleGraph()
    g.add(u, w)
    g.add(x, v)
    g.add(x, w)
    n, comps = count_butterflies_with_sample(g, u, v)
    assert n == 1
    assert comps >= 1


def test_counts_do_not_include_incoming_edge_itself():
    """Deletion case: {u, v} in the sample must not create a phantom
    'butterfly' {u, v, w, u} via u appearing in the intersection."""
    u, x = 0, 1
    v, w = enc_right(0), enc_right(1)
    g = SampleGraph()
    g.add(u, v)  # the incoming (deleted) edge is still sampled
    g.add(u, w)
    g.add(x, v)
    g.add(x, w)
    n, _ = count_butterflies_with_sample(g, u, v)
    assert n == 1  # only {u, v, w, x}; nothing degenerate


def test_complete_bipartite_closure_count():
    """In K_{a,b} sample, edge (u, v) with u, v present closes
    (a-1)(b-1) butterflies."""
    a, b = 4, 5
    g = SampleGraph()
    for i in range(a):
        for j in range(b):
            if (i, j) != (0, 0):
                g.add(i, enc_right(j))
    n, _ = count_butterflies_with_sample(g, 0, enc_right(0))
    assert n == (a - 1) * (b - 1)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_matches_brute_force_on_random_graphs(seed):
    g, rng = random_sample_graph(8, 8, 30, seed)
    for _ in range(30):
        u, v = rng.randrange(8), enc_right(rng.randrange(8))
        n, comps = count_butterflies_with_sample(g, u, v)
        assert n == brute_force_per_edge(g.adj, u, v), (u, v)
        assert comps >= 0


@pytest.mark.parametrize("seed", range(10))
def test_kernel_symmetric_in_edge_orientation(seed):
    g, rng = random_sample_graph(7, 7, 25, seed)
    for _ in range(20):
        u, v = rng.randrange(7), enc_right(rng.randrange(7))
        assert (
            count_butterflies_with_sample(g, u, v)[0]
            == count_butterflies_with_sample(g, v, u)[0]
        )


def test_comparisons_counts_min_set_sizes():
    """One intersection of a 2-set against a 3-set costs 2 comparisons."""
    u, x1, x2 = 0, 1, 2
    v, w = enc_right(0), enc_right(1)
    g = SampleGraph()
    # N_u = {w}; N_w = {x1, x2}; N_v = {x1, x2, 3}
    g.add(u, w)
    g.add(x1, w)
    g.add(x2, w)
    g.add(x1, v)
    g.add(x2, v)
    g.add(3, v)
    n, comps = count_butterflies_with_sample(g, u, v)
    assert n == 2  # x1 and x2 both close butterflies
    # cheapest side: N_u (cum degree 3) vs N_v (cum deg 2+2+1=5) -> iterate N_u
    # one intersection: min(|N_w|=3, |N_v|=3) = 3
    assert comps == 3


@pytest.mark.parametrize("seed", range(5))
def test_cheap_side_selection_does_not_change_count(seed):
    """Force both orientations by degree asymmetry; counts must agree
    with brute force regardless of which side is cheaper."""
    g, rng = random_sample_graph(4, 12, 30, seed)
    for u in range(4):
        for j in range(12):
            v = enc_right(j)
            assert (
                count_butterflies_with_sample(g, u, v)[0]
                == brute_force_per_edge(g.adj, u, v)
            )


# ---------------------------------------------------------------------------
# property tests: both intersection forms against brute force
# ---------------------------------------------------------------------------
def explored_side(adj, x, y):
    """The kernel's answer when it explores x's sampled neighbours against
    N_y: (count, comparisons) on plain sets."""
    nx, ny = adj[x], adj[y]
    count = sum(len(adj[w] & ny) for w in nx if w != y)
    if y in nx:
        count -= len(nx) - 1
    return count, sum(min(len(adj[w]), len(ny)) for w in nx if w != y)


def sum_based_kernel(adj, u, v):
    """The kernel on plain sets, choosing the side by summing both
    endpoints' neighbour degrees in full: the reference the degree planes
    and the kernel's bounded sums must reproduce exactly."""
    nu, nv = adj.get(u, set()), adj.get(v, set())
    if not nu or not nv:
        return 0, 0
    if sum(len(adj[x]) for x in nu) > sum(len(adj[x]) for x in nv):
        return explored_side(adj, v, u)
    return explored_side(adj, u, v)


@contextmanager
def heavy_degree(h):
    """Lower the heavy-vertex threshold in both modules that read it, so
    that small graphs exercise the degree planes."""
    with mock.patch.object(sample_graph, "HEAVY_DEGREE", h), \
            mock.patch.object(counting, "HEAVY_DEGREE", h):
        yield


@st.composite
def spread_bipartite_graphs(draw):
    """Up to 7 vertices per side, ids spread over a drawn span of up to 1024.

    With BITS_PER_NEIGHBOUR = 256, a vertex of degree d carries a bitset
    iff d * 256 reaches the opposite side's span, so spans below 256 put
    every vertex on a bitset and larger ones split the vertices by
    degree: kernel pairs land on bitsets, on sets and on mixes.
    """
    sides = []
    for _ in range(2):
        span = draw(st.integers(1, 1024))
        ids = draw(st.lists(st.integers(0, span - 1), unique=True, max_size=6))
        sides.append(sorted({span - 1, *ids}))
    lefts, rights = sides[0], [enc_right(r) for r in sides[1]]
    pairs = [(u, v) for u in lefts for v in rights]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return lefts, rights, edges


@given(spread_bipartite_graphs(), st.integers(1, 8))
def test_kernel_matches_brute_force_on_bitsets_sets_and_mixes(graph, heavy):
    lefts, rights, edges = graph
    with heavy_degree(heavy):
        g = SampleGraph()
        for ed in edges:
            g.add(*ed)
        bulk = Adjacency(edges)
        forms = {(u in g.bits) + (v in g.bits) for u in lefts for v in rights}
        event(f"bitset endpoints per pair: {sorted(forms)}")
        for u in lefts:
            for v in rights:  # {u, v} sampled (deletion case) or not
                want = sum_based_kernel(g.adj, u, v)
                assert want[0] == brute_force_per_edge(g.adj, u, v)
                assert count_butterflies_with_sample(g, u, v) == want, (u, v)
                assert (count_butterflies_with_sample(bulk, v, u)
                        == sum_based_kernel(g.adj, v, u)), (u, v)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("stride", [1, 60, 150])
@pytest.mark.parametrize("heavy", [1, 3])
def test_kernel_equals_sum_based_reference_under_churn(seed, stride, heavy):
    """After every add or remove of a random sequence, every pair gets the
    reference's (count, comparisons): the side chosen from the degree
    planes is the side the sums choose. Stride 1 makes every vertex dense,
    stride 60 those of degree >= 2, stride 150 those of degree >= 3; the
    threshold makes every dense vertex heavy (1) or only some (3)."""
    rng = random.Random(seed)
    with heavy_degree(heavy):
        g = SampleGraph()
        live = set()
        for _ in range(120):
            ed = (stride * rng.randrange(6), enc_right(stride * rng.randrange(6)))
            if ed in live:
                g.remove(*ed)
                live.discard(ed)
            else:
                g.add(*ed)
                live.add(ed)
            for u in range(0, 6 * stride, stride):
                for r in range(0, 6 * stride, stride):
                    v = enc_right(r)
                    assert count_butterflies_with_sample(g, u, v) == sum_based_kernel(g.adj, u, v)
                    assert count_butterflies_with_sample(g, v, u) == sum_based_kernel(g.adj, v, u)


def test_kernel_mixed_bitset_and_set_pair():
    """Left span 1024: a right vertex needs 4 neighbours for a bitset. N(w)
    has 4 and N(v) 2, so |N(w) ∩ N(v)| comes from the sets; {u, v} is
    sampled, so u is dropped from that intersection once."""
    u, x, y, far = 0, 1, 2, 1023
    v, w = enc_right(0), enc_right(1)
    g = SampleGraph()
    for ed in ((u, v), (x, v), (u, w), (x, w), (y, w), (far, w),
               (x, enc_right(2)), (x, enc_right(3))):
        g.add(*ed)
    assert w in g.bits and v not in g.bits
    assert brute_force_per_edge(g.adj, u, v) == 1
    assert count_butterflies_with_sample(g, u, v) == (1, 2)  # explores N(u) = {v, w}


# ---------------------------------------------------------------------------
# the side rule's edges: explore v's side iff cum_u > cum_v, where the
# kernel sums one endpoint and only bounds the other (cum_x >= |N_x|)
# ---------------------------------------------------------------------------
def sample_of(edges):
    g = SampleGraph()
    for ed in edges:
        g.add(*ed)
    return g


def assert_explores(g, x, y):
    """The kernel, called as (x, y), explores x's side, and that answer
    differs from the other side's, so a wrong side choice shows."""
    want = explored_side(g.adj, x, y)
    assert want != explored_side(g.adj, y, x)
    assert count_butterflies_with_sample(g, x, y) == want == sum_based_kernel(g.adj, x, y)


@pytest.mark.parametrize("heavy", [2, 8, 32])
def test_hub_explores_other_side_when_its_degree_exceeds_the_sum(heavy):
    """Hub u has 8 neighbours, cum_v = 2: v's side is explored. At heavy
    32, v is summed and |N_u| > cum_v settles it without u's sum; at 2 or
    8, u is summed from its planes and v's sum falls short of it."""
    u, v = 0, enc_right(0)
    hub = [(u, enc_right(j)) for j in range(1, 9)]
    with heavy_degree(heavy):
        g = sample_of(hub + [(1, v), (1, enc_right(1))])
        assert_explores(g, v, u)
        assert count_butterflies_with_sample(g, u, v) == explored_side(g.adj, v, u) == (1, 2)


@pytest.mark.parametrize("heavy", [2, 32])
def test_hub_sum_stops_once_it_passes(heavy):
    """|N_u| = 4 < cum_v = 6 < cum_u = 12: at heavy 32 the bound alone
    does not decide, and u's sum passes cum_v on its second neighbour; at
    2 both endpoints are read from their planes."""
    u, v = 0, enc_right(0)
    edges = [(u, enc_right(j)) for j in range(1, 5)]
    edges += [(x, enc_right(j)) for j in range(1, 5) for x in (10, 11)]
    edges += [(1, v), (2, v)] + [(1, enc_right(j)) for j in range(5, 9)]
    with heavy_degree(heavy):
        g = sample_of(edges)
        assert_explores(g, v, u)
        assert count_butterflies_with_sample(g, u, v) == explored_side(g.adj, v, u) == (0, 5)


def test_hub_degree_equal_to_other_sum_does_not_swap():
    """Deletion case, {u, v} sampled: u's 4 neighbours are leaves, v among
    them, so |N_u| = cum_u = cum_v = 4. A tie explores u's side, which
    costs 3 comparisons; v's side would cost none."""
    u, v = 0, enc_right(0)
    g = sample_of([(u, enc_right(j)) for j in range(4)])
    assert count_butterflies_with_sample(g, u, v) == explored_side(g.adj, u, v) == (0, 3)
    assert count_butterflies_with_sample(g, v, u) == explored_side(g.adj, v, u) == (0, 0)


@pytest.mark.parametrize("heavy", [2, 3, 32])
@pytest.mark.parametrize("flip", [False, True])
def test_equal_sums_explore_the_first_argument(heavy, flip):
    """cum_u = 4 + 1 + 1 = cum_v = 3 + 3 = 6, with |N_u| = 3 > |N_v| = 2.
    A tie explores the first argument's side, whichever endpoint is summed
    in full. Heavy 2 puts both endpoints on degree planes, 3 only u, 32
    neither."""
    u, v = 0, enc_right(0)
    edges = [(u, enc_right(1)), (u, enc_right(2)), (u, enc_right(3))]
    edges += [(x, enc_right(1)) for x in (1, 2, 3)]
    edges += [(x, y) for x in (5, 6) for y in (v, enc_right(4), enc_right(5))]
    with heavy_degree(heavy):
        g = sample_of(edges)
        assert (u in g.bits, v in g.bits) == (True, True)
        assert_explores(g, *((v, u) if flip else (u, v)))


@pytest.mark.parametrize("heavy", [3, 32])
def test_deletion_case_hub_sum_stops_once_it_passes(heavy):
    """{u, v} sampled, so cum_v counts |N_u| and the bound alone cannot
    pick v's side: cum_v = 6 + 2 + 2 = 10 < cum_u = 15. At heavy 32 u's sum
    passes cum_v on its third neighbour; at 3 both endpoints are read from
    their planes. u is dropped from every intersection once."""
    u, v = 0, enc_right(0)
    edges = [(u, enc_right(j)) for j in range(6)]
    edges += [(1, v), (1, enc_right(1)), (2, v), (2, enc_right(2))]
    edges += [(9, enc_right(j)) for j in range(1, 6)]
    with heavy_degree(heavy):
        g = sample_of(edges)
        assert_explores(g, v, u)
        assert count_butterflies_with_sample(g, u, v) == explored_side(g.adj, v, u)
        assert explored_side(g.adj, v, u)[0] == brute_force_per_edge(g.adj, u, v) == 2


# ---------------------------------------------------------------------------
# end to end: every estimator gives the sum-based reference's results
# ---------------------------------------------------------------------------
def estimator_results(stream, k):
    """What ABACUS, serial PARABACUS, FLEET3 and CAS-R report on ``stream``
    (the two baselines on its insertions), and ABACUS's largest sampled
    degree at the end."""
    ab = abacus.Abacus(k, seed=5)
    ab.process_stream(stream)
    pb = parabacus.ParAbacus(k, 64, seed=5, executor=parabacus.SerialExecutor(3))
    pb.process_stream(stream)
    inserts = insertions_only(stream)
    fl = fleet.Fleet3(k, seed=5)
    fl.process_stream(inserts)
    cs = cas.CasR(k, seed=5)
    cs.process_stream(inserts)
    return ((ab.estimate, ab.comparisons), (pb.estimate, pb.group_comparisons),
            (fl.estimate, fl.comparisons), (cs.estimate, cs.comparisons),
            max(map(len, ab.rp.sample.adj.values())))


@pytest.mark.parametrize("heavy", [4, 32])
def test_estimators_bit_identical_to_sum_based_reference(heavy):
    """A steep Zipf exponent gives hubs, whose side the kernel settles from
    |N| or a partial sum. Every estimate and comparisons total must equal
    the one from a kernel that sums both endpoints in full."""
    edges = zipf_bipartite(60, 40, 600, a_left=1.6, a_right=1.4, seed=7)
    stream = fully_dynamic_stream(edges, 0.3, seed=7)
    reference = lambda s, u, v: sum_based_kernel(s.adj, u, v)  # noqa: E731
    with heavy_degree(heavy):
        got = estimator_results(stream, 200)
        with mock.patch.object(abacus, "count_butterflies_with_sample", reference), \
                mock.patch.object(parabacus, "count_butterflies_with_sample", reference), \
                mock.patch.object(fleet, "count_butterflies_with_sample", reference), \
                mock.patch.object(cas, "count_butterflies_with_sample", reference):
            want = estimator_results(stream, 200)
    assert got == want
    assert got[0][1] > 0 and got[-1] >= 15
