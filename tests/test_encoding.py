"""Tests for the left/right vertex id encoding."""
import pytest

from repro.core.encoding import (
    StreamContractError,
    assert_bipartite_edge,
    dec_right,
    enc_right,
    is_left,
)


@pytest.mark.parametrize("r", [0, 1, 5, 1000, 10**9])
def test_right_roundtrip(r):
    assert dec_right(enc_right(r)) == r


@pytest.mark.parametrize("r", [0, 1, 7, 12345])
def test_right_is_negative(r):
    assert enc_right(r) < 0
    assert not is_left(enc_right(r))


@pytest.mark.parametrize("u", [0, 1, 42, 10**9])
def test_left_identity(u):
    assert is_left(u)


def test_enc_right_rejects_negative():
    with pytest.raises(ValueError):
        enc_right(-3)


def test_dec_right_rejects_nonnegative():
    with pytest.raises(ValueError):
        dec_right(0)


def test_encoding_injective():
    """Left and right id spaces never collide."""
    lefts = set(range(100))
    rights = {enc_right(i) for i in range(100)}
    assert not lefts & rights


def test_assert_bipartite_edge_accepts_mixed():
    assert_bipartite_edge(3, enc_right(4))
    assert_bipartite_edge(enc_right(4), 3)


@pytest.mark.parametrize("u,v", [(1, 2), (enc_right(1), enc_right(2))])
def test_assert_bipartite_edge_rejects_same_side(u, v):
    with pytest.raises(StreamContractError):
        assert_bipartite_edge(u, v)
