"""Discovery-probability and variance math (Eq. 1, Theorem 2).

All quantities are exact rational/float computations over the sampler
state ``(n_live, c_b, c_g)``:

- ``n_live``: |E|, edges inserted and not yet deleted,
- ``c_b``: uncompensated deletions of *sampled* edges ("bad"),
- ``c_g``: uncompensated deletions of non-sampled edges ("good"),
- ``k``: memory budget (max sample size).

Equation 1:  Pr = y/T * (y-1)/(T-1) * (y-2)/(T-2)
with y = min(k, T) and T = |E| + c_b + c_g — the probability that three
specific distinct live edges are all in the uniform sample.
"""
from __future__ import annotations

from math import comb


def discovery_probability(k: int, n_live: int, c_b: int, c_g: int) -> float:
    """Eq. 1: probability that 3 specific distinct live edges are sampled.

    Returns 0.0 when fewer than 3 edges can be sampled (T < 3 or y < 3);
    ABACUS never divides by it in that case because discovering a
    butterfly requires >= 3 sampled edges.
    """
    t = n_live + c_b + c_g
    y = min(k, t)
    if y < 3 or t < 3:
        return 0.0
    return (y / t) * ((y - 1) / (t - 1)) * ((y - 2) / (t - 2))


def gamma(n_edges: int, k: int) -> float:
    """γ = C(|E|, k) / C(|E|-4, k-4) — extrapolation factor (Thm. 2).

    Equals the reciprocal of the probability that a specific butterfly
    (4 edges) is fully contained in a uniform k-subset of |E| edges.
    """
    if k < 4:
        raise ValueError("gamma requires k >= 4")
    if n_edges <= k:
        return 1.0
    return comb(n_edges, k) / comb(n_edges - 4, k - 4)


def _pair_prob(n_edges: int, k: int, shared_edges: int) -> float:
    """P[both butterflies of a pair sharing ``shared_edges`` edges sampled].

    Pairs sharing 0/1/2 edges span 8/7/6 distinct edges (Fig. 12).
    """
    distinct = 8 - shared_edges
    if k < distinct:
        return 0.0
    if n_edges <= k:
        return 1.0
    return comb(n_edges - distinct, k - distinct) / comb(n_edges, k)


def variance(
    expected: float, n_edges: int, k: int, y1: float, y2: float, y3: float
) -> float:
    """Closed-form Var[c] of Theorem 2.

    ``y1, y2, y3``: number of butterfly pairs sharing 0, 1, 2 edges.
    ``expected`` is E[c] = the true butterfly count (unbiasedness).
    """
    g = gamma(n_edges, k)
    s = (
        y1 * _pair_prob(n_edges, k, 0)
        + y2 * _pair_prob(n_edges, k, 1)
        + y3 * _pair_prob(n_edges, k, 2)
    )
    return g * expected - expected**2 + 2.0 * g * g * s


def variance_upper_bound(expected: float, n_edges: int, k: int) -> float:
    """Theorem 2's tight upper bound on Var[c].

    Var[c] <= γE[c] + 2γ² C(E[c], 2) C(|E|-6, k-6)/C(|E|, k) - E[c]².
    """
    g = gamma(n_edges, k)
    pairs = expected * (expected - 1.0) / 2.0
    return g * expected + 2.0 * g * g * pairs * _pair_prob(n_edges, k, 2) - expected**2
