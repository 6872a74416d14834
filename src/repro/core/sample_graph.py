"""Sampled-edge adjacency, with bitsets on dense vertices and degree planes
for the neighbours of heavy ones, and the bounded edge sample built on it.

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
  as one popcount per plane. So they hold only the vertices with at
  least one heavy neighbour, and ``dn[x]`` counts x's heavy neighbours
  while it is positive. Keeping every vertex in the planes would rewrite
  span-wide ints on every sample change; this way ``add`` and ``remove``
  touch them only when an endpoint is heavy or has a heavy neighbour.

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
    degree planes for the neighbours of heavy ones.

    ``Adjacency(edges)`` builds it in bulk from an edge list of distinct
    bipartite edges; ``add``/``remove`` keep ``adj``, ``bits``, ``span``,
    ``dn`` and ``deg`` consistent one edge at a time. Callers must not
    mutate them directly.

    Invariant: the degree planes hold exactly the vertices with a heavy
    neighbour (a dense one of degree at least ``HEAVY_DEGREE``).
    ``dn[x]`` is the number of heavy neighbours of ``x``, kept only while
    it is positive (``x in dn`` iff ``x`` is *tracked*), and decoding
    ``deg`` gives ``len(adj[x])`` at a tracked ``x``'s bit index and 0
    everywhere else. Each plane list has no trailing zero plane.
    """

    __slots__ = ("adj", "bits", "span", "dn", "deg")

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
        dn: Dict[int, int] = {}
        for x in bits:
            if len(adj[x]) >= HEAVY_DEGREE:
                for w in adj[x]:
                    dn[w] = dn.get(w, 0) + 1
        self.adj = adj
        self.span = span
        self.bits: Dict[int, int] = bits
        self.dn = dn
        # deg[s] holds side s's vertices, like span[s] (0 = left, 1 = right).
        self.deg: List[List[int]] = [
            _degree_planes(adj, [x for x in dn if x >= 0], span[0]),
            _degree_planes(adj, [x for x in dn if x < 0], span[1]),
        ]

    def add(self, u: int, v: int) -> None:
        """Insert edge {u, v}, which must be bipartite and absent."""
        if u < 0:
            u, v = v, u
        adj, bits, span, dn = self.adj, self.bits, self.span, self.dn
        iv = ~v
        # Grow both spans first: a wider span can drop u's or v's bitset,
        # and the tracking below needs their state just before the edge.
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
        # An add only makes u and v heavier, so heavy before => heavy now.
        if (u in dn or v in dn or len(su) >= HEAVY_DEGREE and u in bits
                or len(sv) >= HEAVY_DEGREE and v in bits):
            self._track_add(u, v, hu, hv)

    def remove(self, u: int, v: int) -> None:
        """Remove edge {u, v}; ``KeyError`` if absent. Drops isolated vertices."""
        if u < 0:
            u, v = v, u
        adj, bits, span, dn = self.adj, self.bits, self.span, self.dn
        su = adj[u]
        su.remove(v)  # KeyError, with nothing changed, if absent
        sv = adj[v]
        sv.remove(u)
        hu = len(su) >= HEAVY_DEGREE - 1 and u in bits
        hv = len(sv) >= HEAVY_DEGREE - 1 and v in bits
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
        # A remove only makes u and v lighter, so heavy now => heavy before.
        if hu or hv or u in dn or v in dn:
            self._track_remove(u, v, hu, hv)
        if not su:
            del adj[u]
        if not sv:
            del adj[v]

    # -- upkeep of dn and deg ---------------------------------------------
    def _track_add(self, u: int, v: int, hu: bool, hv: bool) -> None:
        """Bring ``dn`` and ``deg`` up to date after ``add(u, v)`` (u left),
        given whether u and v were heavy just before it."""
        adj, bits, dn = self.adj, self.bits, self.dn
        su, sv = adj[u], adj[v]
        tu, tv = u in dn, v in dn
        if len(su) >= HEAVY_DEGREE and u in bits:
            if not hu:  # u turned heavy: its other neighbours gain one
                for w in su:
                    if w != v:
                        self._gain(w)
            dn[v] = dn.get(v, 0) + 1
        if len(sv) >= HEAVY_DEGREE and v in bits:
            if not hv:
                for w in sv:
                    if w != u:
                        self._gain(w)
            dn[u] = dn.get(u, 0) + 1
        d = len(su)
        self._xor(u, (d - 1 if tu else 0) ^ (d if u in dn else 0))
        d = len(sv)
        self._xor(v, (d - 1 if tv else 0) ^ (d if v in dn else 0))

    def _track_remove(self, u: int, v: int, hu: bool, hv: bool) -> None:
        """Bring ``dn`` and ``deg`` up to date after ``remove(u, v)`` (u
        left), given whether u and v were heavy just before it."""
        adj, bits, dn = self.adj, self.bits, self.dn
        su, sv = adj[u], adj[v]
        tu, tv = u in dn, v in dn
        if hu:
            if not (len(su) >= HEAVY_DEGREE and u in bits):
                for w in su:  # u turned light: its neighbours lose one
                    self._lose(w)
            c = dn[v] - 1
            if c:
                dn[v] = c
            else:
                del dn[v]
        if hv:
            if not (len(sv) >= HEAVY_DEGREE and v in bits):
                for w in sv:
                    self._lose(w)
            c = dn[u] - 1
            if c:
                dn[u] = c
            else:
                del dn[u]
        d = len(su)
        self._xor(u, (d + 1 if tu else 0) ^ (d if u in dn else 0))
        d = len(sv)
        self._xor(v, (d + 1 if tv else 0) ^ (d if v in dn else 0))

    def _grow(self, side: bool, new_span: int) -> None:
        """Widen ``side``'s span; vertices with neighbours on that side
        that are no longer dense lose their bitsets, and the neighbours of
        heavy ones a heavy neighbour."""
        self.span[side] = new_span
        adj, bits = self.adj, self.bits
        for x in [x for x in bits if (x >= 0) == side
                  and len(adj[x]) * BITS_PER_NEIGHBOUR < new_span]:
            del bits[x]
            if len(adj[x]) >= HEAVY_DEGREE:
                for w in adj[x]:
                    self._lose(w)

    def _gain(self, w: int) -> None:
        """``w``, whose degree is unchanged, gains a heavy neighbour."""
        c = self.dn.get(w, 0)
        self.dn[w] = c + 1
        if not c:
            self._xor(w, len(self.adj[w]))

    def _lose(self, w: int) -> None:
        """``w``, whose degree is unchanged, loses a heavy neighbour."""
        c = self.dn[w] - 1
        if c:
            self.dn[w] = c
        else:
            del self.dn[w]
            self._xor(w, len(self.adj[w]))

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
