"""Tests for the fully dynamic stream generator (Sec. VI-A protocol)."""
import pytest

from repro.core.encoding import enc_right, is_left
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import (
    final_edges,
    fully_dynamic_stream,
    insertions_only,
)


def edges_n(n, seed=0):
    return zipf_bipartite(30, 30, n, seed=seed)


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2, 0.3])
def test_stream_length(alpha):
    edges = edges_n(100)
    stream = fully_dynamic_stream(edges, alpha, seed=1)
    assert len(stream) == 100 + round(alpha * 100)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25])
def test_deletion_count(alpha):
    stream = fully_dynamic_stream(edges_n(200), alpha, seed=2)
    n_del = sum(1 for _, _, s in stream if s < 0)
    assert n_del == round(alpha * 200)


@pytest.mark.parametrize("seed", range(8))
def test_every_deletion_after_its_insertion(seed):
    stream = fully_dynamic_stream(edges_n(150), 0.3, seed=seed)
    final_edges(stream)  # raises on violation


@pytest.mark.parametrize("seed", range(4))
def test_insertions_keep_natural_order(seed):
    edges = edges_n(120, seed=seed)
    stream = fully_dynamic_stream(edges, 0.3, seed=seed)
    ins = [(u, v) for u, v, s in stream if s > 0]
    assert ins == list(edges)


def test_alpha_zero_is_pure_insertions():
    edges = edges_n(80)
    stream = fully_dynamic_stream(edges, 0.0, seed=0)
    assert stream == [(u, v, 1) for u, v in edges]
    assert final_edges(stream) == list(edges)


def test_alpha_validation():
    with pytest.raises(ValueError):
        fully_dynamic_stream(edges_n(10), 1.0)
    with pytest.raises(ValueError):
        fully_dynamic_stream(edges_n(10), -0.1)


@pytest.mark.parametrize("seed", range(4))
def test_final_edges_are_the_undeleted_ones(seed):
    edges = edges_n(100, seed=seed)
    stream = fully_dynamic_stream(edges, 0.2, seed=seed)
    deleted = {(u, v) for u, v, s in stream if s < 0}
    expected = [e for e in edges if e not in deleted]
    assert final_edges(stream) == expected


def test_deterministic_in_seed():
    edges = edges_n(100)
    assert fully_dynamic_stream(edges, 0.2, seed=9) == fully_dynamic_stream(
        edges, 0.2, seed=9
    )
    assert fully_dynamic_stream(edges, 0.2, seed=9) != fully_dynamic_stream(
        edges, 0.2, seed=10
    )


def test_insertions_only_filter():
    stream = fully_dynamic_stream(edges_n(100), 0.3, seed=5)
    ins = insertions_only(stream)
    assert len(ins) == 100
    assert all(s > 0 for _, _, s in ins)


def test_stream_elements_are_bipartite():
    stream = fully_dynamic_stream(edges_n(60), 0.2, seed=3)
    for u, v, _ in stream:
        assert is_left(u) and not is_left(v)


def test_final_edges_lists_a_reinserted_edge_once():
    e, f = (0, enc_right(0)), (1, enc_right(0))
    stream = [(*e, 1), (*e, -1), (*e, 1), (*f, 1)]
    assert final_edges(stream) == [e, f]


def test_final_edges_rejects_double_insert():
    bad = [(1, enc_right(1), 1), (1, enc_right(1), 1)]
    with pytest.raises(ValueError):
        final_edges(bad)


def test_final_edges_rejects_deleting_nonlive():
    bad = [(1, enc_right(1), -1)]
    with pytest.raises(ValueError):
        final_edges(bad)


def test_deletion_positions_spread_over_stream():
    """Deletions should not all cluster right after their insertions."""
    edges = edges_n(200)
    stream = fully_dynamic_stream(edges, 0.3, seed=11)
    del_positions = [i for i, (_, _, s) in enumerate(stream) if s < 0]
    # uniform placement => deletions appear in both halves of the stream
    half = len(stream) // 2
    assert any(p < half for p in del_positions)
    assert any(p >= half for p in del_positions)
