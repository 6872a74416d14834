"""Fully dynamic stream construction (Sec. VI-A, *Deletions*).

Following the paper's protocol for turning an insert-only edge list into
a fully dynamic stream:

 (a) insertions appear in the edge list's natural order;
 (b) a fraction α of the edges are selected for deletion;
 (c) each selected edge's deletion is placed at a uniformly random
     position strictly after its insertion.

Implementation: insertions get positions 0, 1, 2, …; a deletion of the
edge inserted at position *i* draws a real-valued position uniform in
``(i, N)`` (N = #insertions) and all events are sorted by position —
exactly "a random position after its corresponding insertion".

Elements are ``(u, v, sign)`` with encoded vertex ids and
sign ∈ {+1, -1}.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]
Element = Tuple[int, int, int]


def fully_dynamic_stream(
    edges: Sequence[Edge], alpha: float, seed: int = 0
) -> List[Element]:
    """Build the stream for ``edges`` with deletion ratio ``alpha``.

    Returns ``round(alpha * |edges|)`` deletions interleaved after their
    insertions; total length ``|edges| * (1 + alpha)`` (rounded).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    n = len(edges)
    n_del = int(round(alpha * n))
    rng = np.random.default_rng(seed)
    events: List[Tuple[float, int, Edge]] = [
        (float(i), +1, e) for i, e in enumerate(edges)
    ]
    if n_del:
        victims = rng.choice(n, size=n_del, replace=False)
        for i in victims.tolist():
            pos = rng.uniform(i, n)
            # strictly after the insertion: nudge ties forward
            events.append((pos + 0.5, -1, edges[i]))
    events.sort(key=lambda t: t[0])
    return [(e[0], e[1], sign) for _, sign, e in events]


def insertions_only(stream: Iterable[Element]) -> List[Element]:
    """Filter a stream down to its insertion elements (Ins-only mode)."""
    return [el for el in stream if el[2] > 0]


def final_edges(stream: Iterable[Element]) -> List[Edge]:
    """Live edge set after the whole stream (insertions minus deletions),
    in the order of each edge's last insertion."""
    live: Dict[Edge, None] = {}
    for u, v, sign in stream:
        e = (u, v)
        if sign > 0:
            if e in live:
                raise ValueError(f"duplicate insertion of live edge {e}")
            live[e] = None
        else:
            if e not in live:
                raise ValueError(f"deletion of non-live edge {e}")
            del live[e]
    return list(live)
