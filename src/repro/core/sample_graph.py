"""Sampled-edge adjacency, with bitsets on dense vertices and degree planes
for every vertex a heavy one has neighboured, and the bounded edge sample
built on it.

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
- ``deg[0]`` / ``deg[1]`` are the left / right side's *degree planes*: a
  short list of ints whose plane ``j`` has bit ``i`` set iff bit ``j`` of
  the degree of the vertex with bit index ``i`` is set. The kernel reads
  them only through the bitset of a *heavy* vertex (dense, with at least
  ``HEAVY_DEGREE`` neighbours), to get its neighbours' cumulative degree
  as one popcount per plane. So the planes need only the neighbours of
  heavy vertices; they hold ``tracked``, every vertex a heavy vertex has
  neighboured. The bulk build tracks the neighbours of its heavy
  vertices, ``add`` tracks those of an endpoint that is heavy after it
  (all of them when it has just turned heavy, else only the new one),
  and nothing untracks a vertex. Keeping every vertex in the planes
  would rewrite span-wide ints on every sample change; this way ``add``
  and ``remove`` touch them only when an endpoint is tracked or heavy.

:class:`SampleGraph` adds what Random Pairing (Alg. 2) needs on top: O(1)
membership of a *specific* edge and O(1) selection of a *uniformly
random* one (reservoir replacement, Alg. 2 line 6), via the swap-pop
trick on a dense edge list.

Edges are unordered pairs, stored as ``(left, right)`` under the
sign-based encoding of :mod:`repro.core.encoding`. Both classes check
nothing. An edge added must be absent, and bipartite because bit indices
are only unique within one side. The samplers hold the stream contract
(``RandomPairing.insert``/``delete`` and ``Fleet3.process``), and
PARABACUS tasks only replay edges that passed Random Pairing.
"""
from __future__ import annotations

import random
from typing import Dict, Iterable, List, Set, Tuple

Edge = Tuple[int, int]

#: Roughly what a CPython set spends per element (hash-table slot, load
#: factor and header), in bits: a bitset spanning the opposite side costs
#: no more than a set once a vertex has span / BITS_PER_NEIGHBOUR neighbours.
BITS_PER_NEIGHBOUR = 256

#: A dense vertex of at least this degree is *heavy*: the kernel reads its
#: neighbours' cumulative degree from the degree planes, one popcount per
#: plane (8-12 on the benchmark graphs). That beats summing the neighbours'
#: degrees only once a neighbourhood has some 16-40 vertices. Tracking only
#: the neighbours of heavy vertices spares small samples, where a short id
#: span makes nearly every vertex dense, plane upkeep on every sample change.
HEAVY_DEGREE = 32


def _bitset(nbrs: Iterable[int], span: int) -> int:
    """Bitset of ``nbrs`` (all on one side, bit indices below ``span``)."""
    buf = bytearray((span + 7) >> 3)
    for y in nbrs:
        i = ~y if y < 0 else y
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _degree_planes(adj: Dict[int, Set[int]], tracked: List[int], span: int) -> List[int]:
    """Degree planes of ``tracked`` (all on one side, bit indices below
    ``span``): bit ``i`` of plane ``j`` is bit ``j`` of the degree of the
    vertex with bit index ``i``."""
    if not tracked:
        return []
    bufs = [bytearray((span + 7) >> 3)
            for _ in range(max(len(adj[x]) for x in tracked).bit_length())]
    for x in tracked:
        i = ~x if x < 0 else x
        byte, mask = i >> 3, 1 << (i & 7)
        d, j = len(adj[x]), 0
        while d:
            if d & 1:
                bufs[j][byte] |= mask
            d >>= 1
            j += 1
    return [int.from_bytes(buf, "little") for buf in bufs]


class Adjacency:
    """Vertex → neighbour-set adjacency with bitsets on dense vertices and
    degree planes for every vertex a heavy vertex has neighboured.

    ``Adjacency(edges)`` builds it in bulk from an edge list of distinct
    bipartite edges; ``add``/``remove`` keep ``adj``, ``bits``, ``span``,
    ``tracked`` and ``deg`` consistent one edge at a time. Callers must
    not mutate them directly.

    Invariant: every neighbour of a heavy vertex (a dense one of degree
    at least ``HEAVY_DEGREE``) is in ``tracked``, and decoding ``deg``
    gives the degree of a tracked ``x`` (``len(adj[x])``, 0 once ``x`` is
    isolated) at its bit index and 0 everywhere else. ``tracked`` only
    grows: the bulk build tracks the neighbours of its heavy vertices,
    ``add`` tracks those of an endpoint that is heavy after it, and
    nothing untracks a vertex. Each plane list has no trailing zero plane.
    """

    __slots__ = ("adj", "bits", "span", "tracked", "deg")

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        adj: Dict[int, Set[int]] = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        # Every edge has one left (>= 0) and one right (< 0) endpoint.
        span = [max(adj) + 1, ~min(adj) + 1] if adj else [0, 0]
        # x's neighbours sit on side ``x >= 0`` (1 = right for a left x).
        bits = {
            x: _bitset(nbrs, span[x >= 0])
            for x, nbrs in adj.items()
            if len(nbrs) * BITS_PER_NEIGHBOUR >= span[x >= 0]
        }
        tracked: Set[int] = set()
        for x in bits:
            if len(adj[x]) >= HEAVY_DEGREE:
                tracked.update(adj[x])
        self.adj = adj
        self.span = span
        self.bits: Dict[int, int] = bits
        self.tracked = tracked
        # deg[s] holds side s's vertices, like span[s] (0 = left, 1 = right).
        self.deg: List[List[int]] = [
            _degree_planes(adj, [x for x in tracked if x >= 0], span[0]),
            _degree_planes(adj, [x for x in tracked if x < 0], span[1]),
        ]

    def add(self, u: int, v: int) -> None:
        """Insert edge {u, v}, which must be bipartite and absent."""
        if u < 0:
            u, v = v, u
        adj, bits, span, tracked = self.adj, self.bits, self.span, self.tracked
        iv = ~v
        # Grow both spans first: a wider span can drop u's or v's bitset.
        if u >= span[0]:
            self._grow(False, u + 1)
        if iv >= span[1]:
            self._grow(True, iv + 1)
        su = adj.get(u)
        if su is None:
            adj[u] = su = set()
        sv = adj.get(v)
        if sv is None:
            adj[v] = sv = set()
        hu = len(su) >= HEAVY_DEGREE and u in bits
        hv = len(sv) >= HEAVY_DEGREE and v in bits
        su.add(v)
        sv.add(u)
        if u in bits:
            bits[u] |= 1 << iv
        elif len(su) * BITS_PER_NEIGHBOUR >= span[1]:
            bits[u] = _bitset(su, span[1])
        if v in bits:
            bits[v] |= 1 << u
        elif len(sv) * BITS_PER_NEIGHBOUR >= span[0]:
            bits[v] = _bitset(sv, span[0])
        if u in tracked:
            self._xor(u, len(su) ^ (len(su) - 1))
        if v in tracked:
            self._xor(v, len(sv) ^ (len(sv) - 1))
        # A heavy endpoint's old neighbours are tracked already if it was
        # heavy before the edge; if it just turned heavy, track them all.
        if len(su) >= HEAVY_DEGREE and u in bits:
            self._track((v,) if hu else su)
        if len(sv) >= HEAVY_DEGREE and v in bits:
            self._track((u,) if hv else sv)

    def remove(self, u: int, v: int) -> None:
        """Remove edge {u, v}; ``KeyError`` if absent. Drops isolated vertices."""
        if u < 0:
            u, v = v, u
        adj, bits, span, tracked = self.adj, self.bits, self.span, self.tracked
        su = adj[u]
        su.remove(v)  # KeyError, with nothing changed, if absent
        sv = adj[v]
        sv.remove(u)
        if u in bits:
            if len(su) * BITS_PER_NEIGHBOUR < span[1]:
                del bits[u]
            else:
                bits[u] ^= 1 << ~v
        if v in bits:
            if len(sv) * BITS_PER_NEIGHBOUR < span[0]:
                del bits[v]
            else:
                bits[v] ^= 1 << u
        if u in tracked:
            self._xor(u, len(su) ^ (len(su) + 1))
        if v in tracked:
            self._xor(v, len(sv) ^ (len(sv) + 1))
        if not su:
            del adj[u]
        if not sv:
            del adj[v]

    # -- upkeep of tracked and deg -----------------------------------------
    def _grow(self, side: bool, new_span: int) -> None:
        """Widen ``side``'s span; vertices with neighbours on that side
        that are no longer dense lose their bitsets."""
        self.span[side] = new_span
        adj, bits = self.adj, self.bits
        for x in [x for x in bits if (x >= 0) == side
                  and len(adj[x]) * BITS_PER_NEIGHBOUR < new_span]:
            del bits[x]

    def _track(self, ws: Iterable[int]) -> None:
        """Put those of ``ws`` (all on one side) not yet tracked into the
        planes, at their current degrees."""
        adj, tracked = self.adj, self.tracked
        for w in ws:
            if w not in tracked:
                tracked.add(w)
                self._xor(w, len(adj[w]))

    def _xor(self, x: int, diff: int) -> None:
        """Flip ``x``'s bit in plane ``j`` of its side for each set bit
        ``j`` of ``diff`` (its old plane value XOR its new one)."""
        if not diff:
            return
        if x < 0:
            planes, bit = self.deg[1], 1 << ~x
        else:
            planes, bit = self.deg[0], 1 << x
        if diff.bit_length() > len(planes):
            planes.extend([0] * (diff.bit_length() - len(planes)))
        j = 0
        while diff:
            if diff & 1:
                planes[j] ^= bit
            diff >>= 1
            j += 1
        while planes and not planes[-1]:
            planes.pop()


class SampleGraph(Adjacency):
    """Sampled edges as an :class:`Adjacency` plus an edge list for O(1)
    random removal.

    Not bounded and not checked by itself: the sampler enforces the
    budget and the stream contract; this class only provides the
    mechanics.
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
        """O(1) membership of ``edge``, given as ``(left, right)``."""
        return edge in self._pos

    def edges(self) -> list[Edge]:
        """Snapshot list of edges in insertion (swap-perturbed) order."""
        return list(self._edges)

    # -- mutation ----------------------------------------------------------
    def add(self, u: int, v: int) -> None:
        """Insert edge {u, v}, which must be bipartite and absent."""
        if u < 0:
            u, v = v, u
        e = (u, v)
        self._pos[e] = len(self._edges)
        self._edges.append(e)
        Adjacency.add(self, u, v)

    def remove(self, u: int, v: int) -> None:
        """Remove edge {u, v}; raises if absent. Drops isolated vertices."""
        if u < 0:
            u, v = v, u
        i = self._pos.pop((u, v))  # KeyError if absent
        last = self._edges.pop()
        if i < len(self._edges):
            self._edges[i] = last
            self._pos[last] = i
        Adjacency.remove(self, u, v)

    def random_edge(self, rng: random.Random) -> Edge:
        """Uniformly random edge (not removed)."""
        return self._edges[rng.randrange(len(self._edges))]
