"""Figures 3 & 5 reproduction: relative error vs sample size.

Fig. 3: fully dynamic streams (α = 20%) — ABACUS vs FLEET vs CAS, which
ignore deletions and therefore estimate the insert-only count.
Fig. 5: insertion-only streams (α = 0%) — all three are applicable.

Each (dataset, k, algo) point is the mean relative error over ``runs``
seeded repetitions (the paper uses 10; the exhibits use 5). The ground
truth is the exact count of the final graph (per run, since deletion
choices vary with the seed).
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments import common
from repro.streamgen import datasets

ALGOS = ("abacus", "fleet", "cas")


def accuracy_sweep(
    dataset_names: Sequence[str] | None = None,
    ks: Sequence[int] | None = None,
    alpha: float = common.DEFAULT_ALPHA,
    runs: int = 5,
    scale: float = 1.0,
) -> List[Dict]:
    """Mean relative error per (dataset, k, algo).

    ``ks`` are effective sample sizes; when omitted, the full-scale
    default grid is scaled with ``scale``.
    """
    if ks is None:
        ks = common.scaled_ks(common.DEFAULT_KS, scale)
    names = dataset_names or datasets.dataset_names()
    rows: List[Dict] = []
    for name in names:
        streams = [
            common.make_stream(name, alpha, scale, seed=r) for r in range(runs)
        ]
        truths = [common.ground_truth(s) for s in streams]
        for k in ks:
            for algo in ALGOS:
                errs, ests = [], []
                for r, (stream, truth) in enumerate(zip(streams, truths)):
                    est = common.make_algo(algo, k, seed=1000 * r + 7).process_stream(
                        stream
                    )
                    errs.append(common.relative_error(truth, est))
                    ests.append(est)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "algo": algo,
                        "alpha": alpha,
                        "rel_err": common.mean(errs),
                        "est_mean": common.mean(ests),
                        "truth_mean": common.mean([float(t) for t in truths]),
                        "runs": runs,
                    }
                )
    return rows


def improvement_over_baselines(rows: List[Dict]) -> List[Dict]:
    """Per (dataset, k): rel_err(baseline) / rel_err(abacus) — the paper's
    'x× more accurate' headline numbers."""
    by_key: Dict = {}
    for r in rows:
        by_key[(r["dataset"], r["k"], r["algo"])] = r["rel_err"]
    out: List[Dict] = []
    for (name, k, algo), err in sorted(by_key.items()):
        if algo == "abacus":
            continue
        ab = by_key.get((name, k, "abacus"))
        if ab and ab > 0:
            out.append(
                {
                    "dataset": name,
                    "k": k,
                    "baseline": algo,
                    "improvement_x": err / ab,
                }
            )
    return out
