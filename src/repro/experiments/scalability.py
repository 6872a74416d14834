"""Figure 7 reproduction: elapsed time vs processed stream fraction.

The paper measures ABACUS's cumulative processing time after each 10%
of the stream (α = 20%) for three sample sizes and shows it grows
linearly (Theorem 3: O(k²t)). We reproduce the checkpoint series and a
least-squares linearity coefficient (R²) per (dataset, k).
"""
from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.experiments import common

N_CHECKPOINTS = 10


def scalability_series(
    dataset_names: Sequence[str] = ("trackers_lite", "orkut_lite"),
    ks: Sequence[int] | None = None,
    scale: float = 1.0,
) -> List[Dict]:
    """Cumulative elapsed seconds at each stream-fraction checkpoint."""
    if ks is None:
        ks = common.scaled_ks(common.DEFAULT_KS, scale)
    rows: List[Dict] = []
    for name in dataset_names:
        stream = common.make_stream(name, common.DEFAULT_ALPHA, scale)
        n = len(stream)
        marks = [round(i * n / N_CHECKPOINTS) for i in range(1, N_CHECKPOINTS + 1)]
        for k in ks:
            obj = common.make_algo("abacus", k, seed=13)
            t0 = time.perf_counter()
            prev = 0
            for i, m in enumerate(marks, start=1):
                obj.process_stream(stream[prev:m])
                prev = m
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "pct": i * 100 // N_CHECKPOINTS,
                        "elements": m,
                        "elapsed_s": time.perf_counter() - t0,
                    }
                )
    return rows


def linearity_r2(rows: List[Dict]) -> List[Dict]:
    """R² of elapsed ~ elements per (dataset, k) — linear ⇒ R² ≈ 1."""
    series: Dict = {}
    for r in rows:
        series.setdefault((r["dataset"], r["k"]), []).append(
            (r["elements"], r["elapsed_s"])
        )
    out: List[Dict] = []
    for (name, k), pts in sorted(series.items()):
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        n = len(pts)
        mx, my = sum(xs) / n, sum(ys) / n
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        sxx = sum((x - mx) ** 2 for x in xs)
        syy = sum((y - my) ** 2 for y in ys)
        r2 = (sxy * sxy) / (sxx * syy) if sxx > 0 and syy > 0 else float("nan")
        out.append({"dataset": name, "k": k, "r2": r2, "total_s": ys[-1]})
    return out
