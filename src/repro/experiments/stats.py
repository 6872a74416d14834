"""Table II reproduction: dataset statistics.

For each synthetic KONECT-lite dataset: |E|, |L|, |R|, exact butterfly
count |B| (DuckDB engine, like every other ground truth), and butterfly
density |B|/|E|^4, printed next to the paper's Table II values for the
corresponding real graph.
"""
from __future__ import annotations

from typing import Dict, List

from repro.core import exact
from repro.streamgen import datasets


def dataset_stats(scale: float = 1.0) -> List[Dict]:
    """Compute the Table II rows."""
    rows: List[Dict] = []
    for name in datasets.dataset_names():
        edges = datasets.load(name, scale)
        pdf = exact.edges_to_pdf(edges)
        b = exact.butterflies_duckdb(pdf)
        paper = datasets.PAPER_TABLE2[name]
        rows.append(
            {
                "dataset": name,
                "E": len(edges),
                "L": int(pdf["l"].nunique()),
                "R": int(pdf["r"].nunique()),
                "B": b,
                "density": exact.butterfly_density(b, len(edges)),
                "paper_graph": paper["paper_name"],
                "paper_E": paper["E"],
                "paper_B": paper["B"],
                "paper_density": paper["density"],
            }
        )
    return rows
