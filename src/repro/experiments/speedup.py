"""Figures 8 & 9 reproduction: PARABACUS speedup over ABACUS.

Speedup = sequential ABACUS wall-clock / PARABACUS wall-clock on the
same stream (α = 20%), varying the mini-batch size M (Fig. 8) and the
parallelism p (Fig. 9). PARABACUS runs the Spark RDD executor.

Substitution note (DESIGN.md §3): the paper's Java threads have ~µs
dispatch overhead; a Spark job costs ~0.1–0.2 s per mini-batch, so the
per-batch counting work must dominate that for parallelism to pay off
and the absolute factors are smaller than the paper's. The monotone
shapes are preserved, and ``benchmarks/test_exhibits.py`` asserts them on
the Fig. 8 and Fig. 9 tables: speedup grows with M, with p, with k, and
with butterfly density.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments import common

#: The densest and the sparsest dataset (Table II).
DATASETS = ("movielens_lite", "orkut_lite")
#: Fig. 9's parallelism grid and its fixed mini-batch size.
THREAD_COUNTS = (2, 4, 8, 16)
THREADS_BATCH_SIZE = 16000


def _sequential_baseline(stream, k: int, seed: int) -> float:
    obj = common.make_algo("abacus", k, seed=seed)
    _, elapsed = common.timed_run(obj, stream)
    return elapsed


def speedup_vs_batch(
    spark,
    dataset_names: Sequence[str] = DATASETS,
    ks: Sequence[int] | None = None,
    batch_sizes: Sequence[int] = (4000, 8000, 16000, 32000),
    n_groups: int = 16,
    scale: float = 1.0,
) -> List[Dict]:
    """Fig. 8: speedup per (dataset, k, M) at fixed parallelism."""
    if ks is None:
        ks = common.scaled_ks(common.DEFAULT_KS, scale)
    common.spark_warmup(spark)
    rows: List[Dict] = []
    for name in dataset_names:
        stream = common.make_stream(name, common.DEFAULT_ALPHA, scale)
        for k in ks:
            t_seq = _sequential_baseline(stream, k, seed=21)
            for m in batch_sizes:
                pb = common.make_algo(
                    "parabacus", k, 21, spark, batch_size=m, n_groups=n_groups
                )
                _, t_par = common.timed_run(pb, stream)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "batch_size": m,
                        "n_groups": n_groups,
                        "t_seq_s": t_seq,
                        "t_par_s": t_par,
                        "speedup": t_seq / t_par,
                    }
                )
    return rows


def speedup_vs_threads(spark, scale: float = 1.0) -> List[Dict]:
    """Fig. 9: speedup per (dataset, k, p) at fixed mini-batch size."""
    ks = common.scaled_ks(common.DEFAULT_KS, scale)
    common.spark_warmup(spark)
    rows: List[Dict] = []
    for name in DATASETS:
        stream = common.make_stream(name, common.DEFAULT_ALPHA, scale)
        for k in ks:
            t_seq = _sequential_baseline(stream, k, seed=22)
            for p in THREAD_COUNTS:
                pb = common.make_algo(
                    "parabacus", k, 22, spark, batch_size=THREADS_BATCH_SIZE, n_groups=p
                )
                _, t_par = common.timed_run(pb, stream)
                rows.append(
                    {
                        "dataset": name,
                        "k": k,
                        "n_groups": p,
                        "batch_size": THREADS_BATCH_SIZE,
                        "t_seq_s": t_seq,
                        "t_par_s": t_par,
                        "speedup": t_seq / t_par,
                    }
                )
    return rows
