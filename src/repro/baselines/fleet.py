"""FLEET3 baseline (Sanei-Mehri et al., CIKM 2019) — insert-only.

Reimplemented from the FLEET paper's description (the best variant,
FLEET3, as used by the ABACUS evaluation with resizing parameter
γ = 0.75):

- A reservoir of capacity ``M`` holds edges, each present independently
  with the current sampling probability ``p`` (p starts at 1).
- For **every** arriving insertion (whether or not it is later sampled —
  the ThinkD-style decoupling that distinguishes FLEET3), count the
  butterflies the edge forms with the reservoir and add
  ``count / p³`` to the estimate (3 partner edges, each sampled w.p. p).
- The edge then enters the reservoir with probability ``p``. If the
  reservoir is full, it is first *subsampled*: every stored edge is kept
  independently with probability γ and ``p ← γ·p`` (this rescaling keeps
  per-edge membership uniform at the current ``p``, which is why the
  single current ``p`` is the right scale factor); the incoming edge
  then joins at the new rate (extra γ coin).
- **Deletions are ignored** — FLEET has no mechanism for them; this is
  precisely the deficiency the ABACUS paper measures.

The reservoir is not Random Pairing, so ``process`` checks each insertion
itself, before counting (DESIGN.md §6). A stored edge may be deleted and
inserted again: in FLEET3's insert-only view it is still in the graph, so
that insertion is a no-op. The reservoir remembers which of its edges had
a deletion ignored, O(capacity) memory; an insertion of a stored edge with
no deletion since is a duplicate and raises.
"""
from __future__ import annotations

import random
from typing import Iterable, Set

from repro.core.abacus import Element
from repro.core.counting import count_butterflies_with_sample
from repro.core.encoding import StreamContractError, assert_bipartite_edge
from repro.core.sample_graph import Edge, SampleGraph

GAMMA = 0.75  # resizing parameter γ the ABACUS evaluation runs FLEET3 with


class Fleet3:
    """FLEET3 estimator with reservoir capacity ``capacity``."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        self.capacity = capacity
        self.sample = SampleGraph()
        self.p = 1.0
        self.estimate = 0.0
        self.comparisons = 0
        self.rng = random.Random(seed)
        # Stored edges whose deletion was ignored and that were not
        # inserted again since; a subset of the reservoir.
        self.deleted: Set[Edge] = set()

    def _subsample(self) -> None:
        """ADAPT: keep each stored edge w.p. γ; p ← γ·p."""
        rng = self.rng
        for u, v in self.sample.edges():
            if rng.random() >= GAMMA:
                self.sample.remove(u, v)
                self.deleted.discard((u, v))
        self.p *= GAMMA

    def process(self, u: int, v: int, sign: int) -> float:
        """Process one element; deletions, and insertions of a stored edge
        whose deletion was ignored, are no-ops (return 0.0)."""
        edge = (u, v) if u >= 0 else (v, u)
        if sign < 0:
            if edge in self.sample:
                self.deleted.add(edge)
            return 0.0
        assert_bipartite_edge(u, v)
        if edge in self.sample:
            if edge in self.deleted:
                self.deleted.remove(edge)
                return 0.0
            raise StreamContractError(f"edge ({u}, {v}) inserted while already sampled")
        n_bf, comps = count_butterflies_with_sample(self.sample, u, v)
        self.comparisons += comps
        adj_amount = n_bf / self.p**3 if n_bf else 0.0
        self.estimate += adj_amount
        if self.rng.random() < self.p:
            if len(self.sample) >= self.capacity:
                self._subsample()
                if self.rng.random() < GAMMA:
                    self.sample.add(u, v)
            else:
                self.sample.add(u, v)
        return adj_amount

    def process_stream(self, stream: Iterable[Element]) -> float:
        for u, v, sign in stream:
            self.process(u, v, sign)
        return self.estimate
