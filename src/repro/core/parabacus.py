"""PARABACUS (Section V): mini-batch parallel ABACUS with versioned samples.

Per mini-batch of M elements:

1. **Sequential RP pass** (O(1) amortized per edge): for edge *j* record
   the pre-update triplet ``(|E|, c_b, c_g)`` (Sec. V-A's cached
   ``{s, c_b, c_g}``) and the delta ``S_{j-1} -> S_j`` produced by
   Random Pairing. The base version ``S_0`` is snapshotted once (as an
   edge list — cheap to broadcast; tasks build the adjacency in bulk,
   in O(k)). Random Pairing checks each element against the stream
   contract; if it rejects one mid-pass, the sampler is restored to
   ``S_0``, its triplet and its RNG state.
2. **Parallel per-edge counting**: the M edges are split into ``p``
   contiguous equal-sized groups (the paper's thread assignment). Every
   executor runs the same task, :func:`process_groups`, over a contiguous
   run of groups: it builds its first edge's version as a
   :class:`~repro.core.sample_graph.Adjacency` (neighbour sets, plus
   bitsets on dense vertices), replaying the broadcast deltas on
   ``S_0``'s edge set first only when it does not start at group 0. It
   then counts every one of its edges against that edge's version with
   the same kernel ABACUS runs, and extrapolates with the Eq. 1 increment
   from the cached triplet. Each group emits ``(partial_count,
   comparisons)``, and executors return these pairs in group order.
3. **Consolidation** is free: the driver's live sample already advanced
   to ``S_M`` during step 1, which serves as the next batch's ``S_0``.

The two executors differ only in where the task runs:

- :class:`SerialExecutor` — in-process, one task over all of the batch's
  groups, for fast Theorem-5 equivalence tests;
- :class:`RDDExecutor` — one Spark RDD job per mini-batch, with at most
  one task per core (the paper's
  contribution *is* this physical parallel operator, and the reproduction
  brief sanctions RDD for it); the speedup experiments (Figs. 8-10) use
  it, and it is equivalence-tested against ABACUS.

Theorem 5 (and its test) guarantee the estimate equals ABACUS's for the
same RNG seed, up to float summation order.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.abacus import Element
from repro.core.counting import count_butterflies_with_sample
from repro.core.encoding import StreamContractError
from repro.core.probability import discovery_probability
from repro.core.random_pairing import Op, RandomPairing
from repro.core.sample_graph import Adjacency, Edge, SampleGraph

Triplet = Tuple[int, int, int]


# ---------------------------------------------------------------------------
# version replay + per-group counting (shared by all executors)
# ---------------------------------------------------------------------------
def group_bounds(m: int, p: int) -> List[int]:
    """p+1 boundaries splitting range(m) into p contiguous balanced groups."""
    if m == 0:
        return [0]
    p = max(1, min(p, m))
    return [round(i * m / p) for i in range(p + 1)]


def process_groups(
    s0_edges: Sequence[Edge],
    batch: Sequence[Element],
    deltas: Sequence[Sequence[Op]],
    triplets: Sequence[Triplet],
    k: int,
    bounds: Sequence[int],
) -> List[Tuple[float, int]]:
    """Count the consecutive groups ``batch[bounds[i]:bounds[i + 1]]``
    against their sample versions; one ``(partial_count, comparisons)``
    per group.

    ``batch[j]``'s version is ``S_j`` = ``S_0`` + deltas[0..j-1]; the
    increment uses the cached pre-update triplet ``triplets[j]``.
    The first group's version is replayed on a plain edge set and built
    in bulk; every later delta is replayed into the same
    :class:`~repro.core.sample_graph.Adjacency` the kernel reads on the
    driver, so consecutive groups share one replay.
    """
    sample = Adjacency(_edges_at(s0_edges, deltas[: bounds[0]]))
    out = []
    for start, stop in zip(bounds, bounds[1:]):
        partial = 0.0
        comparisons = 0
        for j in range(start, stop):
            u, v, sign = batch[j]
            n_bf, comps = count_butterflies_with_sample(sample, u, v)
            comparisons += comps
            if n_bf:
                n_live, c_b, c_g = triplets[j]
                p = discovery_probability(k, n_live, c_b, c_g)
                partial += (n_bf if sign > 0 else -n_bf) / p
            for kind, a, b in deltas[j]:
                if kind == "a":
                    sample.add(a, b)
                else:
                    sample.remove(a, b)
        out.append((partial, comparisons))
    return out


def _edges_at(s0_edges: Sequence[Edge], deltas: Sequence[Sequence[Op]]) -> Dict[Edge, None]:
    """Edges of ``S_0`` + ``deltas``, as canonical (left, right) pairs.

    Replayed on an edge set, not an :class:`Adjacency`: an RDD task that
    does not start at group 0 replays up to M deltas before its first
    element, and keeping neighbour sets and bitsets current through all
    of them costs more than its counting.
    The set is an insertion-ordered dict: building the adjacency in
    ``S_0``'s order is faster than in a set's hash order, which scatters
    memory accesses.
    """
    live = dict.fromkeys(s0_edges)
    for ops in deltas:
        for kind, u, v in ops:
            e = (u, v) if u >= 0 else (v, u)
            if kind == "a":
                live[e] = None
            else:
                del live[e]
    return live


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------
def drop_zip_importers() -> None:
    """Remove every ``zipimport.zipimporter`` from ``sys.path_importer_cache``.

    A Spark Python worker runs ``importlib.invalidate_caches()`` before
    every task, to pick up files shipped with the job. On Python 3.11 that
    call makes each cached zipimporter re-read its archive's whole central
    directory. A reused worker caches about sixteen of them: one per
    imported package of pyspark.zip (1.3K entries), two for the spark-core
    jar (5.4K entries) that Spark puts on the worker's path, and py4j's
    source zip. That is ~0.2 s of CPU per task. The archives do not change
    during a run, and a dropped entry is rebuilt from
    ``zipimport._zip_directory_cache``, without a re-read, the next time an
    import needs it. Calling this at the end of a task leaves the worker's
    next task nothing to re-read.

    Where zipimport refreshes lazily (newer Pythons) or nothing refreshes
    the caches per task, it does no harm. ``sys.path`` and every other
    finder are left as they are.
    """
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del cache[path]


class SerialExecutor:
    """Runs one batch in-process as a single task over all of its groups
    (tests, and runs without Spark)."""

    def __init__(self, n_groups: int):
        self.n_groups = n_groups

    def run(self, s0_edges, batch, deltas, triplets, k) -> List[Tuple[float, int]]:
        bounds = group_bounds(len(batch), self.n_groups)
        return process_groups(s0_edges, batch, deltas, triplets, k, bounds)


class RDDExecutor:
    """Fan the group tasks out as one Spark RDD job per mini-batch.

    The versioned sample (S_0 edge list + deltas + triplets) and the
    batch ride a broadcast variable; the job is ``parallelize(range(n_tasks),
    n_tasks).flatMap(task).collect()``. Spark runs at most
    ``defaultParallelism`` tasks at once and each task has a fixed
    dispatch cost, so the ``n_groups`` groups go to ``min(n_groups,
    defaultParallelism)`` tasks, each counting a contiguous run of groups
    with :func:`process_groups`. ``collect()`` keeps partition order, so
    the per-group pairs come back in group order. Groups stay the unit of
    work and of reporting (Fig. 10's per-group comparisons). This is the
    lowest-overhead Spark mapping of the paper's one-thread-per-group
    model and is what the speedup experiments use. Each task ends with
    :func:`drop_zip_importers`, so the worker's next task starts without
    re-reading pyspark.zip and the spark-core jar.
    """

    def __init__(self, spark, n_groups: int):
        self.spark = spark
        self.n_groups = n_groups

    def run(self, s0_edges, batch, deltas, triplets, k) -> List[Tuple[float, int]]:
        sc = self.spark.sparkContext
        bounds = group_bounds(len(batch), self.n_groups)
        n_groups = len(bounds) - 1
        n_tasks = min(n_groups, sc.defaultParallelism)
        first = group_bounds(n_groups, n_tasks)  # task t: groups first[t]..first[t+1]-1
        bc = sc.broadcast((list(s0_edges), list(batch), list(deltas), list(triplets), k))

        def task(t: int) -> List[Tuple[float, int]]:
            out = process_groups(*bc.value, bounds[first[t] : first[t + 1] + 1])
            drop_zip_importers()
            return out

        try:
            return sc.parallelize(range(n_tasks), n_tasks).flatMap(task).collect()
        finally:
            bc.destroy()


# ---------------------------------------------------------------------------
# the algorithm
# ---------------------------------------------------------------------------
class ParAbacus:
    """Mini-batch PARABACUS with a pluggable group executor."""

    def __init__(self, k: int, batch_size: int, seed: int = 0, *, executor):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.rp = RandomPairing(k, seed=seed)
        self.k = k
        self.batch_size = batch_size
        self.executor = executor
        self.estimate = 0.0
        self.comparisons = 0
        # per-group comparison totals, accumulated over the stream
        # (Fig. 10's per-thread workload)
        self.group_comparisons: Dict[int, int] = {}

    def process_batch(self, batch: Sequence[Element]) -> float:
        """Process one mini-batch; returns the batch's count adjustment.

        Raises :class:`~repro.core.encoding.StreamContractError`, with no
        state changed, when the RP pass rejects an element (an edge that is
        not bipartite, a duplicate insert of a sampled edge, a delete with
        no live edge): the sampler is then put back as it was before the
        batch.
        """
        rp = self.rp
        s0_edges = rp.sample.edges()
        s0_triplet = rp.triplet
        s0_rng = rp.rng.getstate()
        deltas: List[List[Op]] = []
        triplets: List[Triplet] = []
        try:
            for u, v, sign in batch:
                triplets.append(rp.triplet)
                deltas.append(rp.insert(u, v) if sign > 0 else rp.delete(u, v))
        except StreamContractError:
            rp.sample = SampleGraph()
            for a, b in s0_edges:  # in order: same edge list and positions
                rp.sample.add(a, b)
            rp.n_live, rp.c_b, rp.c_g = s0_triplet
            rp.rng.setstate(s0_rng)
            raise
        adjustment = 0.0
        counts = self.executor.run(s0_edges, batch, deltas, triplets, self.k)
        for g, (partial, comps) in enumerate(counts):
            adjustment += partial
            self.comparisons += comps
            self.group_comparisons[g] = self.group_comparisons.get(g, 0) + comps
        self.estimate += adjustment
        return adjustment

    def process_stream(self, stream: Iterable[Element]) -> float:
        """Process a stream in mini-batches; returns the final estimate."""
        batch: List[Element] = []
        for el in stream:
            batch.append(el)
            if len(batch) == self.batch_size:
                self.process_batch(batch)
                batch = []
        if batch:
            self.process_batch(batch)
        return self.estimate
