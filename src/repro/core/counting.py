"""Per-edge butterfly counting kernel (Algorithm 1, lines 6-11).

Given the sample's :class:`~repro.core.sample_graph.Adjacency` and an
incoming edge {u, v}, count how many butterflies the edge forms with
edges of the sample. A butterfly {u, v, w, x} is discovered iff the three
partner edges {u, w'}, {w', x}, {x', v} are all in the sample; the kernel
finds them by intersecting neighbourhoods:

- *Cheapest-side selection* (line 7): explore the neighbors (in the
  sample) of the endpoint whose sampled neighborhood has the smaller
  cumulative degree — the common heuristic of [28], [20] that picks the
  side yielding cheaper intersections. A heavy endpoint ``x`` (one with a
  bitset and at least ``HEAVY_DEGREE`` neighbours) gets that sum exactly
  from the degree planes of its neighbours' side,
  ``Σ_j (bits[x] & deg[side][j]).bit_count() << j`` (one popcount per
  bit of the largest degree there); any other endpoint sums
  ``len(adj[w])`` over its neighbours. Both give the same number, so the
  side, the count and ``comparisons`` do not depend on which ran.
- For each explored neighbor ``w`` of that endpoint, the common
  neighbors ``CN = N_w ∩ N_other`` each close one butterfly (lines
  8-11). ``|CN|`` is computed in one of two forms, which give the same
  number: ``(bits[w] & bits[v]).bit_count()`` when both neighbourhoods
  are dense enough to carry a bitset, else ``len(N_w & N_v)`` on the
  sets.
- The endpoint itself is excluded from ``CN``: it is in every ``CN``
  exactly when the incoming edge is still sampled (a deletion whose edge
  is in the sample — the paper's running example makes the same
  exclusion), so the kernel then subtracts ``|N_u| - 1`` once.

The kernel also reports the number of element *comparisons* of the
intersections: the size of the smaller set, which is what CPython's
``set.__and__`` iterates. This is the set path's cost model, counted the
same whichever form ran, so it is a property of the sample and the
stream alone — the per-thread workload metric of Fig. 10 and the
"vertices examined" totals of Sec. VI-G.

The same code runs on the driver (ABACUS, FLEET3, CAS-R) and inside
Spark tasks (PARABACUS) against an adjacency rebuilt from the broadcast.
"""
from __future__ import annotations

from typing import Tuple

from repro.core.sample_graph import HEAVY_DEGREE, Adjacency

_EMPTY: frozenset = frozenset()


def count_butterflies_with_sample(sample: Adjacency, u: int, v: int) -> Tuple[int, int]:
    """Count butterflies the edge {u, v} forms with the sampled edges.

    Returns ``(n_butterflies, comparisons)``. {u, v} itself may or may
    not be in ``sample`` (deletion case).
    """
    adj = sample.adj
    nu = adj.get(u, _EMPTY)
    nv = adj.get(v, _EMPTY)
    if not nu or not nv:
        return 0, 0

    # Cheapest side (Alg. 1 line 7): cumulative sampled degree of each
    # endpoint's sampled neighborhood, from the degree planes of the
    # neighbours' side when the endpoint is heavy.
    bits = sample.bits
    bu = bits.get(u)
    bv = bits.get(v)
    if bu is not None and len(nu) >= HEAVY_DEGREE:
        cum_u = j = 0
        for plane in sample.deg[u >= 0]:
            cum_u += (bu & plane).bit_count() << j
            j += 1
    else:
        cum_u = sum(len(adj[x]) for x in nu)
    if bv is not None and len(nv) >= HEAVY_DEGREE:
        cum_v = j = 0
        for plane in sample.deg[v >= 0]:
            cum_v += (bv & plane).bit_count() << j
            j += 1
    else:
        cum_v = sum(len(adj[x]) for x in nv)
    if cum_u > cum_v:
        # Explore neighbors of v, intersect against N_u.
        u, v = v, u
        nu, nv = nv, nu
        bv = bu

    lv = len(nv)
    count = 0
    comparisons = 0
    for w in nu:
        if w == v:
            continue
        nw = adj[w]
        lw = len(nw)
        comparisons += lw if lw < lv else lv
        if bv is not None and (bw := bits.get(w)) is not None:
            count += (bw & bv).bit_count()
        else:
            count += len(nw & nv)
    if v in nu:
        count -= len(nu) - 1
    return count, comparisons
