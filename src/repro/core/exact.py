"""Exact butterfly counting — the ground-truth substrate.

The butterfly count of a bipartite graph equals
``sum over vertex pairs (a, b) on one side of C(#common neighbors, 2)``,
computed by aggregating *wedges* (2-paths through a center vertex on the
other side). Enumerating wedges from the side with the smaller wedge
volume ``Σ C(d, 2)`` is the cheap-side trick of Sanei-Mehri et al. [28]
that the paper also uses.

Two interchangeable engines (tests assert they agree):

- :func:`butterflies_duckdb` — every ground truth: benchmarks, the
  exhibits and Table II,
- :func:`butterflies_reference` — pure-Python, for tiny graphs and for
  butterfly *enumeration* (variance tests need the y1/y2/y3 pair
  profile of Theorem 2).
"""
from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Set, Tuple

import duckdb
import pandas as pd

from repro.core.encoding import dec_right, is_left

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------
def edges_to_pdf(edges: Iterable[Edge]) -> pd.DataFrame:
    """Encoded (u, v) edges -> pandas DataFrame with raw ``l``/``r`` ids."""
    ls, rs = [], []
    for u, v in edges:
        if not is_left(u):
            u, v = v, u
        ls.append(u)
        rs.append(dec_right(v))
    return pd.DataFrame({"l": ls, "r": rs}, dtype="int64")


# ---------------------------------------------------------------------------
# cheap-side selection
# ---------------------------------------------------------------------------
def wedge_volumes(edges_pdf: pd.DataFrame) -> Tuple[int, int]:
    """(Σ C(d_l, 2), Σ C(d_r, 2)) — wedge volume centered on each side."""
    dl = edges_pdf.groupby("l").size()
    dr = edges_pdf.groupby("r").size()
    vol_l = int((dl * (dl - 1) // 2).sum())
    vol_r = int((dr * (dr - 1) // 2).sum())
    return vol_l, vol_r


def _center(edges_pdf: pd.DataFrame) -> Tuple[str, str]:
    """(center_col, side_col): center on the side with smaller wedge volume."""
    vol_l, vol_r = wedge_volumes(edges_pdf)
    return ("l", "r") if vol_l <= vol_r else ("r", "l")


# ---------------------------------------------------------------------------
# DuckDB engine
# ---------------------------------------------------------------------------
def butterfly_sql(center: str, side: str) -> str:
    """SQL counting the butterflies of table ``edges`` (columns ``l``/``r``,
    duplicate rows allowed) with wedges centered on ``center``."""
    return f"""
        WITH e AS (SELECT DISTINCT l, r FROM edges),
        w AS (
            SELECT a.{side} AS s1, b.{side} AS s2
            FROM e a JOIN e b ON a.{center} = b.{center} AND a.{side} < b.{side}
        ),
        g AS (SELECT s1, s2, COUNT(*) AS c FROM w GROUP BY s1, s2)
        SELECT CAST(COALESCE(SUM(c * (c - 1) / 2), 0) AS BIGINT) AS butterflies
        FROM g
    """


def butterflies_duckdb(edges_pdf: pd.DataFrame) -> int:
    """Exact butterfly count via DuckDB (the ground-truth path)."""
    if len(edges_pdf) == 0:
        return 0
    center, side = _center(edges_pdf)
    con = duckdb.connect()
    try:
        con.register("edges", edges_pdf)
        return int(con.execute(butterfly_sql(center, side)).fetchone()[0])
    finally:
        con.close()


# ---------------------------------------------------------------------------
# pure-Python reference engine
# ---------------------------------------------------------------------------
def _adj_by_side(edges: Iterable[Edge]) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    left: Dict[int, Set[int]] = {}
    right: Dict[int, Set[int]] = {}
    for u, v in edges:
        if not is_left(u):
            u, v = v, u
        left.setdefault(u, set()).add(v)
        right.setdefault(v, set()).add(u)
    return left, right


def butterflies_reference(edges: Iterable[Edge]) -> int:
    """Exact count over encoded edges — O(wedges); tiny graphs only."""
    left, right = _adj_by_side(edges)
    vol_l = sum(len(s) * (len(s) - 1) // 2 for s in left.values())
    vol_r = sum(len(s) * (len(s) - 1) // 2 for s in right.values())
    centers = left if vol_l <= vol_r else right
    pair_counts: Dict[Tuple[int, int], int] = {}
    for nbrs in centers.values():
        for a, b in combinations(sorted(nbrs), 2):
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
    return sum(c * (c - 1) // 2 for c in pair_counts.values())


def enumerate_butterflies_reference(
    edges: Iterable[Edge],
) -> List[frozenset]:
    """All butterflies as frozensets of 4 canonical (left, right) edges.

    Exponential-ish in hub degree; strictly for tiny test graphs (it
    feeds the y1/y2/y3 pair profile of the Theorem 2 variance test).
    """
    left, _ = _adj_by_side(edges)
    out: List[frozenset] = []
    lefts = sorted(left)
    for i, u in enumerate(lefts):
        for x in lefts[i + 1 :]:
            common = left[u] & left[x]
            for v, w in combinations(sorted(common), 2):
                out.append(frozenset([(u, v), (u, w), (x, v), (x, w)]))
    return out


def butterfly_pair_profile(butterflies: List[frozenset]) -> Tuple[int, int, int]:
    """(y1, y2, y3): #butterfly pairs sharing 0, 1, 2 edges (Thm. 2)."""
    y = [0, 0, 0]
    for b1, b2 in combinations(butterflies, 2):
        shared = len(b1 & b2)
        if shared <= 2:
            y[shared] += 1
    return y[0], y[1], y[2]


# ---------------------------------------------------------------------------
# dataset statistics (Table II)
# ---------------------------------------------------------------------------
def butterfly_density(n_butterflies: int, n_edges: int) -> float:
    """|B| / |E|^4 — reproduces Table II's 'Butterfly Density' column.

    (Reverse-engineered: the paper's values satisfy |B| / |E|^4 for all
    four datasets, e.g. MovieLens 1.1e12 / (1e7)^4 = 1.1e-16.)
    """
    return n_butterflies / float(n_edges) ** 4
