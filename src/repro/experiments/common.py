"""Shared plumbing for the experiment harnesses.

Streams, ground truths, algorithm factories, and timed runs — so every
harness measures the same way: wall-clock of ``process_stream`` only
(the paper measures "running time of each method independently of the
ingestion rate ... ignoring the waiting time for each edge's arrival",
Sec. VI-C), relative error as |x - x̂|/x (Sec. VI-A).
"""
from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.baselines.cas import CasR
from repro.baselines.fleet import Fleet3
from repro.core import exact
from repro.core.abacus import Abacus, Element
from repro.core.parabacus import ParAbacus, RDDExecutor, SerialExecutor, drop_zip_importers
from repro.streamgen import datasets
from repro.streamgen.stream import final_edges, fully_dynamic_stream, insertions_only

#: Sample-size grid in *full-scale* units; harnesses scale it with the
#: dataset scale via :func:`scaled_ks`. The paper uses 75K/150K/300K on
#: 10M-327M-edge graphs; our graphs are ~100-1000x smaller in edges and
#: ~1e5x smaller in butterfly count, so the sampled-discovery count
#: B*(k/|E|)^3 — which must stay >= O(10) for the estimator to operate —
#: forces larger *relative* sample sizes (DESIGN.md §3).
DEFAULT_KS = (6000, 12000, 24000)
DEFAULT_MID_K = 12000  # the "150K" analogue for single-k experiments
DEFAULT_ALPHA = 0.20  # the paper's default deletions ratio


def scaled_ks(ks, scale: float):
    """Scale full-scale sample sizes with the dataset scale."""
    return tuple(max(16, int(round(k * scale))) for k in ks)


def make_stream(
    name: str, alpha: float, scale: float = 1.0, seed: int = 0
) -> List[Element]:
    """Fully dynamic stream for a named dataset (deterministic)."""
    return fully_dynamic_stream(datasets.load(name, scale), alpha, seed=seed)


def ground_truth(stream: Sequence[Element]) -> int:
    """Exact butterfly count of the graph the stream leaves behind."""
    return exact.butterflies_duckdb(exact.edges_to_pdf(final_edges(stream)))


def relative_error(truth: float, estimate: float) -> float:
    """|x - x̂| / x (Sec. VI-A; truth must be > 0)."""
    if truth <= 0:
        raise ValueError("relative error undefined for non-positive truth")
    return abs(truth - estimate) / truth


def make_algo(algo: str, k: int, seed: int, spark=None, batch_size: int = 500, n_groups: int = 8):
    """Factory for the compared estimators, keyed as in the figures."""
    if algo == "abacus":
        return Abacus(k, seed=seed)
    if algo == "fleet":
        return Fleet3(k, seed=seed)
    if algo == "cas":
        return CasR(k, seed=seed)
    if algo == "parabacus":
        ex = RDDExecutor(spark, n_groups) if spark is not None else SerialExecutor(n_groups)
        return ParAbacus(k, batch_size=batch_size, seed=seed, executor=ex)
    raise ValueError(f"unknown algo {algo!r}")


def timed_run(algo_obj, stream: Sequence[Element]) -> Tuple[float, float]:
    """(estimate, elapsed_seconds) for one full stream pass."""
    t0 = time.perf_counter()
    est = algo_obj.process_stream(stream)
    return est, time.perf_counter() - t0


def spark_warmup(spark) -> None:
    """Run one trivial job so JVM/worker startup doesn't pollute timings.

    Its tasks end as PARABACUS's do, with :func:`drop_zip_importers`, so
    the first timed job starts on workers that no longer re-read
    pyspark.zip per task.
    """
    spark.sparkContext.parallelize(range(16), 16).foreach(lambda _: drop_zip_importers())


def mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_KS",
    "ground_truth",
    "insertions_only",
    "make_algo",
    "make_stream",
    "mean",
    "relative_error",
    "spark_warmup",
    "timed_run",
]
