"""Per-edge butterfly counting kernel (Algorithm 1, lines 6-11).

Given the sample's :class:`~repro.core.sample_graph.Adjacency` and an
incoming edge {u, v}, count how many butterflies the edge forms with
edges of the sample. A butterfly {u, v, w, x} is discovered iff the three
partner edges {u, w'}, {w', x}, {x', v} are all in the sample; the kernel
finds them by intersecting neighbourhoods:

- *Cheapest-side selection* (line 7): explore the neighbors (in the
  sample) of the endpoint whose sampled neighborhood has the smaller
  cumulative degree ``cum_x = Σ_{w ∈ N_x} |N_w|`` — the common heuristic
  of [28], [20] that picks the side yielding cheaper intersections.
  Exactly: explore ``v``'s side iff ``cum_u > cum_v``, so a tie explores
  ``u``'s. Only that comparison is needed, not both sums, and a hub's
  sum is the costly one. So the kernel sums one endpoint in full: a
  *heavy* one (with a bitset and at least ``HEAVY_DEGREE`` neighbours)
  from the degree planes of its neighbours' side,
  ``Σ_j (bits[x] & deg[side][j]).bit_count() << j`` (one popcount per
  bit of the largest degree there), else the endpoint with fewer sampled
  neighbours as ``Σ len(adj[w])``. Every sampled neighbour has degree at
  least 1, so ``cum_x ≥ |N_x|``: the other endpoint's ``len(N)`` settles
  the rule whenever it already reaches the first sum, and otherwise its
  neighbours' degrees are added only until they do (or, for a heavy
  endpoint, read from its planes). Every path decides as the two full
  sums would, so the side, the count and ``comparisons`` do not depend
  on which ran.
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


def _plane_sum(sample: Adjacency, x: int, bx: int) -> int:
    """Cumulative sampled degree of heavy ``x``'s neighbours, one popcount
    per degree plane of their side."""
    cum = j = 0
    for plane in sample.deg[x >= 0]:
        cum += (bx & plane).bit_count() << j
        j += 1
    return cum


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

    # Cheapest side (Alg. 1 line 7): explore v's side iff cum_u > cum_v.
    # Sum one endpoint in full, a heavy one from its degree planes, else
    # the one with fewer neighbours; then test whether the other's sum
    # reaches a threshold, summing no more of it than the answer takes.
    # When one endpoint is heavy, it is the one summed first, so the other
    # is heavy only when both are.
    bits = sample.bits
    bu = bits.get(u)
    bv = bits.get(v)
    lu = len(nu)
    lv = len(nv)
    hu = bu is not None and lu >= HEAVY_DEGREE
    hv = bv is not None and lv >= HEAVY_DEGREE
    if u_summed := hu or not hv and lu <= lv:
        # Explore v's side iff cum_v falls short of cum_u.
        need = _plane_sum(sample, u, bu) if hu else sum(len(adj[x]) for x in nu)
        t, nt, bt, ht = v, nv, bv, hv
    else:
        # Explore v's side iff cum_u exceeds cum_v, i.e. reaches cum_v + 1.
        need = (_plane_sum(sample, v, bv) if hv else sum(len(adj[x]) for x in nv)) + 1
        t, nt, bt, ht = u, nu, bu, hu
    # Every sampled neighbour has degree >= 1, so cum_t >= |N_t|: take that
    # bound first, then each neighbour's degree beyond 1 until it reaches.
    need -= len(nt)
    if need > 0:
        if ht:
            need -= _plane_sum(sample, t, bt) - len(nt)
        else:
            for x in nt:
                need -= len(adj[x]) - 1
                if need <= 0:
                    break
    if (need <= 0) != u_summed:
        # Explore neighbors of v, intersect against N_u.
        u, v = v, u
        nu, nv = nv, nu
        bv = bu
        lv = lu

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
