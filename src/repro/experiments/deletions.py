"""Figure 6 reproduction: impact of the deletions ratio α.

Fixed sample size (the mid-grid "150K" analogue), α swept over
{5, 10, 20, 30}% — the paper's claim is that ABACUS's relative error
stays small (< 8%) and its throughput stays flat irrespective of α.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments import common
from repro.streamgen import datasets

DEFAULT_ALPHAS = (0.05, 0.10, 0.20, 0.30)


def deletions_sweep(
    dataset_names: Sequence[str] | None = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    k: int | None = None,
    runs: int = 3,
    scale: float = 1.0,
) -> List[Dict]:
    """Relative error and throughput of ABACUS per (dataset, α).

    ``k`` is the effective sample size (default: the mid-grid "150K"
    analogue scaled with ``scale``).
    """
    if k is None:
        (k,) = common.scaled_ks((common.DEFAULT_MID_K,), scale)
    names = dataset_names or datasets.dataset_names()
    rows: List[Dict] = []
    for name in names:
        for alpha in alphas:
            errs, thrs = [], []
            for r in range(runs):
                stream = common.make_stream(name, alpha, scale, seed=r)
                truth = common.ground_truth(stream)
                obj = common.make_algo("abacus", k, seed=500 * r + 3)
                est, elapsed = common.timed_run(obj, stream)
                errs.append(common.relative_error(truth, est))
                thrs.append(len(stream) / elapsed)
            rows.append(
                {
                    "dataset": name,
                    "alpha": alpha,
                    "k": k,
                    "rel_err": common.mean(errs),
                    "edges_per_s": common.mean(thrs),
                    "runs": runs,
                }
            )
    return rows
