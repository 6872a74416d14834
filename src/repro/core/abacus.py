"""ABACUS (Algorithm 1): sequential fully-dynamic butterfly estimation.

For each stream element ``(u, v, sign)`` (sign = +1 insert / -1 delete):

1. count the butterflies the edge forms with the current sample (the
   counting kernel), and adjust the estimate by
   ``sign * n_butterflies / Pr(|E|, c_b, c_g)`` using the *pre-update*
   sampler state (Appendix B uses ``p^(s-1)``);
2. update the sample via Random Pairing, which checks the element first.

With ``k`` at least the stream length the sample is the whole graph,
every discovery probability is 1, and the "estimate" is the exact
butterfly count — tests exploit this to triangulate the stream path
against the static exact engines.
"""
from __future__ import annotations

from typing import Iterable, Tuple

from repro.core.counting import count_butterflies_with_sample
from repro.core.probability import discovery_probability
from repro.core.random_pairing import RandomPairing

Element = Tuple[int, int, int]  # (u, v, sign)


class Abacus:
    """Streaming butterfly-count estimator with memory budget ``k``."""

    def __init__(self, k: int, seed: int = 0):
        self.rp = RandomPairing(k, seed=seed)
        self.k = k
        self.estimate = 0.0
        self.comparisons = 0  # total set-intersection work (Sec. VI-G)

    def process(self, u: int, v: int, sign: int) -> float:
        """Process one stream element; returns the estimate adjustment.

        Raises :class:`~repro.core.encoding.StreamContractError`, with no
        state changed, when Random Pairing rejects it: {u, v} is not bipartite,
        is inserted while sampled, or is deleted while no edge is live.
        """
        rp = self.rp
        # Pre-update state (Appendix B: increments use p^(s-1)).
        n_bf, comps = count_butterflies_with_sample(rp.sample, u, v)
        adj_amount = 0.0
        if n_bf:
            p = discovery_probability(self.k, rp.n_live, rp.c_b, rp.c_g)
            adj_amount = (n_bf if sign > 0 else -n_bf) / p
        # The kernel only reads. The sampler raises, with nothing changed, on
        # a contract breach; the counters move only once it has accepted.
        if sign > 0:
            rp.insert(u, v)
        else:
            rp.delete(u, v)
        self.comparisons += comps
        if n_bf:
            self.estimate += adj_amount
        return adj_amount

    def process_stream(self, stream: Iterable[Element]) -> float:
        """Process a whole stream; returns the final estimate."""
        for u, v, sign in stream:
            self.process(u, v, sign)
        return self.estimate
