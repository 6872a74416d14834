"""Workload definitions, set-up, timed passes and correctness probes.

A workload is one stream replayed through one estimator. ``p`` (groups and
Spark's ``local[p]``) is ``os.cpu_count()``, so Spark never runs more task
threads than there are cores. The seed drives graph generation (added to
the dataset's own graph seed, so seed 0 gives ``datasets.load``'s graph),
deletion placement and the sampler RNG.
"""
from __future__ import annotations

import dataclasses
import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.abacus import Abacus
from repro.core.exact import butterflies_duckdb, edges_to_pdf
from repro.core.parabacus import ParAbacus, RDDExecutor
from repro.streamgen import datasets
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import final_edges, fully_dynamic_stream

Element = Tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str  # "abacus" or "parabacus"
    dataset: str
    scale: float
    alpha: float
    k: int
    batch: int = 0  # M, PARABACUS only
    exact_prefix: int = 0  # elements of the exact-mode probe (k = prefix)
    theorem5_prefix: int = 0  # elements of the Theorem-5 probe; 0 = whole stream

    def params(self, p: int) -> Dict[str, object]:
        out = {"algo": self.algo, "dataset": self.dataset, "scale": self.scale,
               "alpha": self.alpha, "k": self.k}
        if self.algo == "parabacus":
            out.update(M=self.batch, p=p, executor="RDDExecutor")
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("abacus_dense", "abacus", "movielens_lite", 1.0, 0.2, 24_000,
                 exact_prefix=3_000),
        Workload("abacus_churn", "abacus", "orkut_lite", 4.0, 0.5, 24_000,
                 exact_prefix=20_000),
        Workload("parabacus_dense", "parabacus", "movielens_lite", 1.0, 0.2, 24_000,
                 batch=16_000, exact_prefix=3_000, theorem5_prefix=28_000),
        Workload("parabacus_sparse", "parabacus", "orkut_lite", 1.0, 0.2, 24_000,
                 batch=8_000, exact_prefix=20_000),
    )
}


# ---------------------------------------------------------------------------
# set-up: inputs, ground truth, Spark
# ---------------------------------------------------------------------------
@dataclass
class Inputs:
    stream: List[Element]
    truth: int
    times: Dict[str, float]


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Stream and its exact final butterfly count (DuckDB, Sec. VI-A)."""
    spec = datasets.DATASETS[w.dataset].scaled(w.scale)
    spec = dataclasses.replace(spec, seed=spec.seed + 1000 * seed)
    t0 = time.perf_counter()
    edges = zipf_bipartite(spec.n_left, spec.n_right, spec.n_edges,
                           a_left=spec.a_left, a_right=spec.a_right, seed=spec.seed)
    t1 = time.perf_counter()
    stream = fully_dynamic_stream(edges, w.alpha, seed=seed)
    t2 = time.perf_counter()
    truth = exact_count(stream)
    t3 = time.perf_counter()
    return Inputs(stream, truth, {"setup.graph_s": t1 - t0, "setup.stream_s": t2 - t1,
                                  "setup.truth_s": t3 - t2})


def exact_count(stream: Sequence[Element]) -> int:
    return butterflies_duckdb(edges_to_pdf(final_edges(stream)))


def start_spark(p: int, local_dir: str):
    """``local[p]`` session; its scratch files stay under ``local_dir``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{p}]")
        .config("spark.driver.memory", "1g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.local.dir", local_dir)
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={local_dir}")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm_spark(spark, stream: Sequence[Element], p: int) -> float:
    """Warm the workers, then time one empty p-task job (ms).

    The warm-up job runs PARABACUS on a few elements, so every Python
    worker starts and imports ``repro`` before anything is timed.
    """
    head = list(stream[: 8 * p])
    ParAbacus(max(2, len(head)), batch_size=len(head),
              executor=RDDExecutor(spark, p)).process_stream(head)
    sc = spark.sparkContext
    t0 = time.perf_counter()
    sc.parallelize(range(p), p).map(abs).collect()
    return 1000 * (time.perf_counter() - t0)


def stop_jvm() -> None:
    """Stop the Spark gateway JVM this process launched and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()
            raise


# ---------------------------------------------------------------------------
# passes: one fresh estimator over the whole stream, driven as a consumer
# ---------------------------------------------------------------------------
@dataclass
class Pass:
    estimator: object
    wall_s: float
    latency_us: np.ndarray  # per element: the call that folded it in


def abacus_pass(stream: Sequence[Element], k: int, seed: int,
                instrument: Optional[Callable] = None) -> Pass:
    """``Abacus.process`` once per element, each call timed."""
    est = Abacus(k, seed=seed)
    if instrument is not None:
        instrument(est)
    process = est.process
    clock = time.perf_counter_ns
    lat = array("q")
    record = lat.append
    start = clock()
    for u, v, sign in stream:
        t0 = clock()
        process(u, v, sign)
        record(clock() - t0)
    wall = (clock() - start) / 1e9
    return Pass(est, wall, np.frombuffer(lat, dtype=np.int64) / 1000.0)


def parabacus_pass(batches: Sequence[Sequence[Element]], k: int, seed: int, spark,
                   p: int, instrument: Optional[Callable] = None) -> Pass:
    """``ParAbacus.process_batch`` once per mini-batch of M elements.

    Each element is charged its batch's call time, so the staleness cost
    of batching shows in the per-element latency.
    """
    est = ParAbacus(k, batch_size=len(batches[0]), seed=seed,
                    executor=RDDExecutor(spark, p))
    if instrument is not None:
        instrument(est)
    clock = time.perf_counter_ns
    calls: List[Tuple[int, int]] = []
    start = clock()
    for batch in batches:
        t0 = clock()
        est.process_batch(batch)
        calls.append((clock() - t0, len(batch)))
    wall = (clock() - start) / 1e9
    dts, sizes = zip(*calls)
    return Pass(est, wall, np.repeat(np.array(dts) / 1000.0, sizes))


def batched(stream: Sequence[Element], m: int) -> List[List[Element]]:
    return [list(stream[i: i + m]) for i in range(0, len(stream), m)]


# ---------------------------------------------------------------------------
# correctness probes (outside the timed passes)
# ---------------------------------------------------------------------------
def same_estimate(a: float, b: float) -> bool:
    """Theorem 5: equal up to float summation order."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def exact_probe(w: Workload, stream: Sequence[Element], seed: int, spark, p: int
                ) -> List[Tuple[str, bool, str]]:
    """k >= |prefix|: every estimator must return the exact count."""
    prefix = list(stream[: w.exact_prefix])
    truth = exact_count(prefix)
    k = max(2, len(prefix))
    checks = []
    est = Abacus(k, seed=seed).process_stream(prefix)
    checks.append(("exact.abacus", truth > 0 and est == truth,
                   f"estimate {est} vs duckdb {truth} on {len(prefix)} elements"))
    if w.algo == "parabacus":
        m = max(1, len(prefix) // 3)
        pb = ParAbacus(k, batch_size=m, seed=seed, executor=RDDExecutor(spark, p))
        est = pb.process_stream(prefix)
        checks.append(("exact.parabacus_rdd", truth > 0 and est == truth,
                       f"estimate {est} vs duckdb {truth} on {len(prefix)} elements, M={m}"))
    return checks


def theorem5_probe(w: Workload, stream: Sequence[Element], seed: int, spark, p: int
                   ) -> Tuple[str, bool, str]:
    """PARABACUS-RDD equals ABACUS at the same seed on a prefix, k < |prefix|."""
    prefix = list(stream[: w.theorem5_prefix])
    a = Abacus(w.k, seed=seed).process_stream(prefix)
    pb = ParAbacus(w.k, batch_size=w.batch, seed=seed, executor=RDDExecutor(spark, p))
    b = pb.process_stream(prefix)
    return ("theorem5.prefix", len(prefix) > w.k and same_estimate(a, b),
            f"parabacus {b} vs abacus {a} on {len(prefix)} elements, k={w.k}")
