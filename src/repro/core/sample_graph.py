"""Sampled-edge adjacency, with bitsets on dense vertices, and the bounded
edge sample built on it.

This is the in-memory representation of the sample ``S`` (the paper
stores sampled edges "using the adjacency list format", Sec. VI-A).

:class:`Adjacency` is what the per-edge counting kernel (Alg. 1) reads,
on the driver (ABACUS, FLEET3, CAS-R) and inside PARABACUS tasks, which
bulk-build it from the broadcast ``S_0`` edge list and replay deltas
into it:

- ``adj`` maps each vertex to the set of its sampled neighbours; a vertex
  whose last edge goes is dropped.
- ``bits`` gives a *dense* vertex an integer bitset mirroring its set:
  bit ``i`` is set iff the neighbour with bit index ``i`` is in
  ``adj[x]``. A vertex's bit index is its id on its own side: ``u`` for
  a left vertex ``u``, ``r`` for a right vertex ``-r - 1``. A vertex is
  dense when its bitset is no larger than the set it mirrors, i.e. when
  ``len(adj[x]) * BITS_PER_NEIGHBOUR`` reaches the id span of the
  opposite side. The kernel counts ``|N(w) ∩ N(v)|`` as a popcount when
  both are dense.
- ``span[0]`` / ``span[1]`` are one more than the largest bit index seen
  on the left / right side. They never shrink, so which vertices are
  dense depends only on the current edges and the spans, not on the
  order the edges came in.

:class:`SampleGraph` adds what Random Pairing (Alg. 2) needs on top: O(1)
membership of a *specific* edge and O(1) selection of a *uniformly
random* one (reservoir replacement, Alg. 2 line 6), via the swap-pop
trick on a dense edge list.

Edges are unordered pairs; ``SampleGraph`` canonicalizes them as
``(left, right)`` using the sign-based encoding of
:mod:`repro.core.encoding`. Every edge must be bipartite under that
encoding, because bit indices are only unique within one side:
``SampleGraph.add`` enforces it for every sampler (RP, FLEET3, CAS-R),
and PARABACUS tasks only replay edges that passed it.
"""
from __future__ import annotations

import random
from typing import Dict, Iterable, Set, Tuple

from repro.core.encoding import StreamContractError, assert_bipartite_edge, is_left

Edge = Tuple[int, int]

#: Roughly what a CPython set spends per element (hash-table slot, load
#: factor and header), in bits: a bitset spanning the opposite side costs
#: no more than a set once a vertex has span / BITS_PER_NEIGHBOUR neighbours.
BITS_PER_NEIGHBOUR = 256


def canon(u: int, v: int) -> Edge:
    """Canonical (left, right) order for an encoded edge."""
    return (u, v) if is_left(u) else (v, u)


def _bitset(nbrs: Iterable[int], span: int) -> int:
    """Bitset of ``nbrs`` (all on one side, bit indices below ``span``)."""
    buf = bytearray((span + 7) >> 3)
    for y in nbrs:
        i = ~y if y < 0 else y
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class Adjacency:
    """Vertex → neighbour-set adjacency with bitsets on dense vertices.

    ``Adjacency(edges)`` builds it in bulk from an edge list of distinct
    bipartite edges; ``add``/``remove`` keep ``adj``, ``bits`` and
    ``span`` consistent one edge at a time. Callers must not mutate
    ``adj`` directly.
    """

    __slots__ = ("adj", "bits", "span")

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        adj: Dict[int, Set[int]] = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        # Every edge has one left (>= 0) and one right (< 0) endpoint.
        span = [max(adj) + 1, ~min(adj) + 1] if adj else [0, 0]
        # x's neighbours sit on side ``x >= 0`` (1 = right for a left x).
        self.adj = adj
        self.span = span
        self.bits: Dict[int, int] = {
            x: _bitset(nbrs, span[x >= 0])
            for x, nbrs in adj.items()
            if len(nbrs) * BITS_PER_NEIGHBOUR >= span[x >= 0]
        }

    def add(self, u: int, v: int) -> None:
        """Insert edge {u, v}, which must be bipartite and absent."""
        adj, bits, span = self.adj, self.bits, self.span
        for a, b in ((u, v), (v, u)):
            side = b < 0
            i = ~b if side else b
            if i >= span[side]:
                self._grow(side, i + 1)
            s = adj.get(a)
            if s is None:
                adj[a] = s = {b}
            else:
                s.add(b)
            if a in bits:
                bits[a] |= 1 << i
            elif len(s) * BITS_PER_NEIGHBOUR >= span[side]:
                bits[a] = _bitset(s, span[side])

    def remove(self, u: int, v: int) -> None:
        """Remove edge {u, v}; ``KeyError`` if absent. Drops isolated vertices."""
        adj, bits, span = self.adj, self.bits, self.span
        for a, b in ((u, v), (v, u)):
            s = adj[a]
            s.remove(b)
            if not s:
                del adj[a]
                bits.pop(a, None)
            elif a in bits:
                side = b < 0
                if len(s) * BITS_PER_NEIGHBOUR < span[side]:
                    del bits[a]
                else:
                    bits[a] ^= 1 << (~b if side else b)

    def _grow(self, side: bool, new_span: int) -> None:
        """Widen ``side``'s span; vertices with neighbours on that side
        that are no longer dense lose their bitsets."""
        self.span[side] = new_span
        adj, bits = self.adj, self.bits
        for x in [x for x in bits if (x >= 0) == side
                  and len(adj[x]) * BITS_PER_NEIGHBOUR < new_span]:
            del bits[x]


class SampleGraph(Adjacency):
    """Sampled edges as an :class:`Adjacency` plus an edge list for O(1)
    random removal.

    Not bounded by itself — the sampler enforces the budget; this class
    only provides the mechanics.
    """

    __slots__ = ("_edges", "_pos")

    def __init__(self) -> None:
        super().__init__()
        self._edges: list[Edge] = []
        self._pos: Dict[Edge, int] = {}

    # -- size / membership -------------------------------------------------
    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        return canon(*edge) in self._pos

    def edges(self) -> list[Edge]:
        """Snapshot list of edges in insertion (swap-perturbed) order."""
        return list(self._edges)

    # -- mutation ----------------------------------------------------------
    def add(self, u: int, v: int) -> None:
        """Insert edge {u, v}; ``StreamContractError``, with nothing
        changed, if it is not bipartite or already present."""
        assert_bipartite_edge(u, v)
        e = canon(u, v)
        if e in self._pos:
            raise StreamContractError(f"edge {e} already in sample")
        self._pos[e] = len(self._edges)
        self._edges.append(e)
        Adjacency.add(self, u, v)

    def remove(self, u: int, v: int) -> None:
        """Remove edge {u, v}; raises if absent. Drops isolated vertices."""
        e = canon(u, v)
        i = self._pos.pop(e)  # KeyError if absent
        last = self._edges.pop()
        if i < len(self._edges):
            self._edges[i] = last
            self._pos[last] = i
        Adjacency.remove(self, u, v)

    def random_edge(self, rng: random.Random) -> Edge:
        """Uniformly random edge (not removed)."""
        return self._edges[rng.randrange(len(self._edges))]
