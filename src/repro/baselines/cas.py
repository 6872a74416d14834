"""CAS-R baseline (Li et al., TKDE 2022) — insert-only, behavioural.

Co-Affiliation Sampling with the reservoir variant (CAS-R) splits its
memory budget ``k``: a fraction λ goes to an AMS sketch, the rest to an
edge reservoir. We reimplement it at the description level of the
ABACUS paper (the original is closed-source and its internals are not
needed to reproduce the *measured* behaviours — see DESIGN.md §3):

- The reservoir is insert-only Random Pairing with budget ``(1-λ)·k``:
  with no deletion pending, Random Pairing (Alg. 2) is exactly classic
  reservoir sampling, so every stored edge is in the reservoir with
  probability ``q = min(1, cap / n_seen)``.
- For every arriving insertion, count the butterflies it forms with the
  reservoir and add ``count / q³`` to the estimate.
- An AMS sketch of ``λ·k`` counters is updated with 4 hash rows per
  edge. This reproduces the two behaviours the ABACUS evaluation
  attributes to CAS: the smaller effective sample for a given budget
  (accuracy at/below FLEET's), and the per-edge sketch-update cost that
  halves throughput on sketch-heavy workloads (Sec. VI-C, Trackers).
- **Deletions are ignored**, as in the original. An edge deleted and
  inserted again while still in the reservoir is, in this insert-only
  view, still in the graph, so that insertion is a no-op. The reservoir
  remembers which of its edges had a deletion ignored (O(capacity)
  memory); any other insertion of a stored edge is a duplicate, which
  Random Pairing rejects (DESIGN.md §6).
"""
from __future__ import annotations

from typing import Iterable, Set

import numpy as np

from repro.core.abacus import Element
from repro.core.counting import count_butterflies_with_sample
from repro.core.random_pairing import RandomPairing
from repro.core.sample_graph import Edge

_AMS_ROWS = 4
LAM = 0.33  # share λ of the budget given to the sketch in the ABACUS evaluation


class CasR:
    """CAS-R estimator with total memory budget ``budget`` edges."""

    def __init__(self, budget: int, seed: int = 0):
        if budget < 4:
            raise ValueError("budget must be >= 4")
        self.budget = budget
        self.capacity = max(2, int(round((1.0 - LAM) * budget)))
        self.sketch_width = max(1, (budget - self.capacity) // _AMS_ROWS)
        self.sketch = np.zeros((_AMS_ROWS, self.sketch_width), dtype=np.int64)
        self.rp = RandomPairing(self.capacity, seed=seed)  # n_live = insertions seen
        self.estimate = 0.0
        self.comparisons = 0
        # Stored edges whose deletion was ignored and that were not
        # inserted again since; a subset of the reservoir.
        self.deleted: Set[Edge] = set()
        # per-row hash seeds for the AMS update, drawn before any reservoir draw
        self._hash_seeds = [self.rp.rng.randrange(1 << 30) | 1 for _ in range(_AMS_ROWS)]

    @property
    def q(self) -> float:
        """Current per-edge reservoir membership probability."""
        if self.rp.n_live == 0:
            return 1.0
        return min(1.0, self.capacity / self.rp.n_live)

    def _sketch_update(self, u: int, v: int) -> None:
        """AMS-style update: one bucket ±1 per hash row."""
        key = (u << 1) ^ (v * 0x9E3779B1)
        for row, seed in enumerate(self._hash_seeds):
            h = (key * seed + row) & 0x7FFFFFFF
            bucket = h % self.sketch_width
            sign = 1 if (h >> 15) & 1 else -1
            self.sketch[row, bucket] += sign

    def process(self, u: int, v: int, sign: int) -> float:
        """Process one element; deletions, and insertions of a stored edge
        whose deletion was ignored, are no-ops (return 0.0). Random
        Pairing checks the other insertions (DESIGN.md §6)."""
        edge = (u, v) if u >= 0 else (v, u)
        if sign < 0:
            if edge in self.rp.sample:
                self.deleted.add(edge)
            return 0.0
        if edge in self.deleted:
            self.deleted.remove(edge)
            return 0.0
        # Count before the membership probability shifts with this edge.
        n_bf, comps = count_butterflies_with_sample(self.rp.sample, u, v)
        q = self.q
        for op, a, b in self.rp.insert(u, v):
            if op == "r":  # evicted
                self.deleted.discard((a, b))
        self.comparisons += comps
        adj_amount = n_bf / q**3 if n_bf else 0.0
        self.estimate += adj_amount
        self._sketch_update(u, v)
        return adj_amount

    def process_stream(self, stream: Iterable[Element]) -> float:
        for u, v, sign in stream:
            self.process(u, v, sign)
        return self.estimate
