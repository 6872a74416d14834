"""Vertex id encoding for bipartite graphs.

The two bipartitions live in one flat integer id space so that a single
``dict[int, set[int]]`` adjacency serves both sides: left vertices keep
their non-negative ids, right vertices are mapped to negative ids via
``r -> -r - 1``. An edge is bipartite iff it connects a non-negative and
a negative id; the estimators reject any other element at the stream
boundary with :class:`StreamContractError`.
"""
from __future__ import annotations


class StreamContractError(ValueError):
    """A stream element breaks the stream contract: an edge that is not
    bipartite under the encoding, an edge inserted while already live, or
    a delete while no edge is live."""


def enc_right(r: int) -> int:
    """Encode a right-partition vertex id into the negative range."""
    if r < 0:
        raise ValueError(f"right vertex id must be >= 0, got {r}")
    return -r - 1


def dec_right(v: int) -> int:
    """Invert :func:`enc_right`."""
    if v >= 0:
        raise ValueError(f"encoded right vertex id must be < 0, got {v}")
    return -v - 1


def is_left(v: int) -> bool:
    """True iff the encoded id belongs to the left partition."""
    return v >= 0


def assert_bipartite_edge(u: int, v: int) -> None:
    """Raise :class:`StreamContractError` unless exactly one endpoint is
    left-encoded."""
    if (u >= 0) == (v >= 0):
        raise StreamContractError(f"edge ({u}, {v}) is not bipartite under the encoding")
