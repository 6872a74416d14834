"""Tests for PARABACUS: Theorem 5 equivalence, versioning, executors."""
import copy
import importlib
import os
import sys
import zipfile
import zipimport

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import exact, parabacus
from repro.core.abacus import Abacus
from repro.core.parabacus import (
    ParAbacus,
    RDDExecutor,
    SerialExecutor,
    drop_zip_importers,
    group_bounds,
    process_groups,
)
from repro.core.encoding import StreamContractError, enc_right
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import final_edges, fully_dynamic_stream


def stream_of(seed, n=120, alpha=0.25):
    edges = zipf_bipartite(18, 18, n, 0.8, 0.8, seed=seed)
    return fully_dynamic_stream(edges, alpha, seed=seed)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def test_group_bounds_cover_and_balance():
    b = group_bounds(10, 3)
    assert b[0] == 0 and b[-1] == 10
    sizes = [b[i + 1] - b[i] for i in range(3)]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_group_bounds_more_groups_than_items():
    b = group_bounds(2, 8)
    assert b[0] == 0 and b[-1] == 2
    assert len(b) - 1 == 2


def test_group_bounds_empty_batch():
    assert group_bounds(0, 4) == [0]


# ---------------------------------------------------------------------------
# Theorem 5: PARABACUS == ABACUS (same seed)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("batch_size", [1, 7, 32, 1000])
def test_equivalence_serial(seed, batch_size):
    stream = stream_of(seed)
    e1 = Abacus(k=25, seed=seed).process_stream(stream)
    pb = ParAbacus(k=25, batch_size=batch_size, seed=seed, executor=SerialExecutor(3))
    e2 = pb.process_stream(stream)
    assert e2 == pytest.approx(e1, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n_groups", [1, 2, 5, 16])
def test_equivalence_any_group_count(n_groups):
    stream = stream_of(3)
    e1 = Abacus(k=20, seed=3).process_stream(stream)
    pb = ParAbacus(k=20, batch_size=50, seed=3, executor=SerialExecutor(n_groups))
    assert pb.process_stream(stream) == pytest.approx(e1, rel=1e-9, abs=1e-9)


def test_exact_mode_parabacus():
    """k >= stream: PARABACUS, like ABACUS, is exact."""
    stream = stream_of(5)
    truth = exact.butterflies_reference(final_edges(stream))
    pb = ParAbacus(k=len(stream) + 1, batch_size=13, seed=5, executor=SerialExecutor(4))
    assert pb.process_stream(stream) == pytest.approx(truth)


def test_rng_consumption_matches_abacus():
    """Sampling decisions are identical: final samples coincide."""
    stream = stream_of(6)
    ab = Abacus(k=15, seed=6)
    ab.process_stream(stream)
    pb = ParAbacus(k=15, batch_size=11, seed=6, executor=SerialExecutor(2))
    pb.process_stream(stream)
    assert sorted(ab.rp.sample.edges()) == sorted(pb.rp.sample.edges())
    assert ab.rp.triplet == pb.rp.triplet


def test_comparisons_total_matches_abacus():
    """Same per-edge counting work overall (Fig. 10's metric)."""
    stream = stream_of(7)
    ab = Abacus(k=20, seed=7)
    ab.process_stream(stream)
    pb = ParAbacus(k=20, batch_size=16, seed=7, executor=SerialExecutor(4))
    pb.process_stream(stream)
    assert pb.comparisons == ab.comparisons


def test_group_comparisons_accumulate():
    stream = stream_of(8)
    pb = ParAbacus(k=20, batch_size=30, seed=8, executor=SerialExecutor(4))
    pb.process_stream(stream)
    assert sum(pb.group_comparisons.values()) == pb.comparisons
    assert set(pb.group_comparisons) <= {0, 1, 2, 3}


def test_process_group_version_replay():
    """A group starting at j counts against S_j, not S_0."""
    u, v = 0, enc_right(0)
    w, x = enc_right(1), 1
    s0 = [(u, w), (x, w)]  # missing (x, v)
    batch = [(x, v, 1), (u, v, 1)]
    deltas = [[("a", x, v)], [("a", u, v)]]
    triplets = [(2, 0, 0), (3, 0, 0)]
    # group [1, 2): edge (u, v) must see S_1 (which has (x, v)) -> 1 butterfly
    ((partial, _),) = process_groups(s0, batch, deltas, triplets, k=10, bounds=[1, 2])
    assert partial == pytest.approx(1.0)
    # group [0, 1): edge (x, v) sees S_0 -> no butterfly
    ((partial0, _),) = process_groups(s0, batch, deltas, triplets, k=10, bounds=[0, 1])
    assert partial0 == 0.0
    # both groups in one call share one replay and give the same counts
    assert process_groups(s0, batch, deltas, triplets, k=10, bounds=[0, 1, 2]) == [
        process_groups(s0, batch, deltas, triplets, k=10, bounds=[0, 1])[0],
        process_groups(s0, batch, deltas, triplets, k=10, bounds=[1, 2])[0],
    ]


def test_serial_executor_counts_a_batch_in_one_task(monkeypatch):
    """One process_groups call (one replay) per batch, whatever the group count."""
    calls = []
    real = parabacus.process_groups

    def spy(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(parabacus, "process_groups", spy)
    pb = ParAbacus(k=20, batch_size=40, seed=2, executor=SerialExecutor(5))
    pb.process_stream(stream_of(2)[:100])
    assert calls == [group_bounds(40, 5), group_bounds(40, 5), group_bounds(20, 5)]


class PerGroupReference(SerialExecutor):
    """SerialExecutor that also runs each group from its own replay (one
    process_groups call per group) and keeps both results per batch."""

    def __init__(self, n_groups):
        super().__init__(n_groups)
        self.batches = []

    def run(self, s0_edges, batch, deltas, triplets, k):
        packed = super().run(s0_edges, batch, deltas, triplets, k)
        bounds = group_bounds(len(batch), self.n_groups)
        per_group = [
            process_groups(s0_edges, batch, deltas, triplets, k, bounds[g : g + 2])[0]
            for g in range(len(bounds) - 1)
        ]
        self.batches.append((packed, per_group))
        return packed


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7).map(enc_right)),
        min_size=1, max_size=60, unique=True,
    ),
    alpha=st.floats(0.0, 0.9),
    k=st.integers(2, 40),
    batch_size=st.integers(1, 40),
    n_groups=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_packed_task_matches_per_group_replay_and_abacus(
    edges, alpha, k, batch_size, n_groups, seed
):
    stream = fully_dynamic_stream(edges, alpha, seed=seed)
    ex = PerGroupReference(n_groups)
    pb = ParAbacus(k, batch_size=batch_size, seed=seed, executor=ex)
    ab = Abacus(k, seed=seed)
    assert pb.process_stream(stream) == pytest.approx(
        ab.process_stream(stream), rel=1e-9, abs=1e-9
    )
    assert pb.comparisons == ab.comparisons
    assert ex.batches and all(packed == per_group for packed, per_group in ex.batches)


def sampler_state(pb):
    return (pb.estimate, pb.comparisons, dict(pb.group_comparisons), pb.rp.triplet,
            pb.rp.sample.edges(), pb.rp.rng.getstate())


@pytest.mark.parametrize("kind", ["non-bipartite", "duplicate insert", "delete with no live edge"])
def test_contract_error_mid_batch_restores_sampler(kind):
    """RP rejects the batch's last element after the others moved the
    sampler: everything is as before the batch, and the run goes on as if
    the batch had never come."""
    prefix = [(u, enc_right(v), 1) for u in range(4) for v in range(4)]
    fresh = [(u, enc_right(v), 1) for u in range(4, 6) for v in range(3)]
    pb, twin = (ParAbacus(k=6, batch_size=16, seed=1, executor=SerialExecutor(2))
                for _ in range(2))
    pb.process_batch(prefix)
    twin.process_batch(prefix)
    if kind == "non-bipartite":
        bad = fresh + [(0, 1, 1)]  # both endpoints left-encoded
    elif kind == "duplicate insert":
        ahead = copy.deepcopy(pb.rp)
        for u, v, _ in fresh:
            ahead.insert(u, v)
        bad = fresh + [(*ahead.sample.edges()[-1], 1)]  # sampled by then
    else:
        bad = fresh + [(u, v, -1) for u, v, _ in prefix + fresh] + [(0, enc_right(0), -1)]
    before = sampler_state(pb)
    with pytest.raises(StreamContractError):
        pb.process_batch(bad)
    assert sampler_state(pb) == before
    after = [(u, enc_right(v), 1) for u in range(6, 8) for v in range(4)] + [(0, enc_right(0), -1)]
    assert pb.process_batch(after) == twin.process_batch(after)
    assert sampler_state(pb) == sampler_state(twin)
    assert pb.estimate > 0


def test_drop_zip_importers_forgets_only_zip_finders(tmp_path, monkeypatch):
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zmod_a.py", "A = 1\n")
        z.writestr("zmod_b.py", "B = 2\n")
    monkeypatch.setattr(sys, "path", [str(archive), *sys.path])
    cache = sys.path_importer_cache
    try:
        assert importlib.import_module("zmod_a").A == 1
        assert isinstance(cache.get(str(archive)), zipimport.zipimporter)
        others = {p: f for p, f in cache.items() if not isinstance(f, zipimport.zipimporter)}
        drop_zip_importers()
        assert not any(isinstance(f, zipimport.zipimporter) for f in cache.values())
        assert cache == others
        # nothing left for a cache refresh to re-read; the next import from
        # the archive reuses its cached directory
        reads = []
        read = zipimport._read_directory
        monkeypatch.setattr(zipimport, "_read_directory", lambda a: reads.append(a) or read(a))
        importlib.invalidate_caches()
        assert importlib.import_module("zmod_b").B == 2
        assert reads == []
    finally:
        for name in ("zmod_a", "zmod_b"):
            sys.modules.pop(name, None)
        cache.pop(str(archive), None)


def test_batch_size_validation():
    with pytest.raises(ValueError):
        ParAbacus(k=5, batch_size=0, executor=SerialExecutor(1))


def test_partial_batch_flushed_at_stream_end():
    stream = stream_of(9)[:25]
    pb = ParAbacus(k=10, batch_size=1000, seed=9, executor=SerialExecutor(2))
    pb.process_stream(stream)
    ab = Abacus(k=10, seed=9)
    ab.process_stream(stream)
    # the RP pass and the counting both ran on the 25-element tail batch
    assert pb.rp.n_live == len(final_edges(stream))
    assert pb.comparisons == ab.comparisons > 0


# ---------------------------------------------------------------------------
# Spark executor (session-scoped fixture; kept few but meaningful)
# ---------------------------------------------------------------------------
def test_equivalence_rdd_executor(spark):
    stream = stream_of(11, n=200)
    e1 = Abacus(k=30, seed=11).process_stream(stream)
    pb = ParAbacus(k=30, batch_size=60, seed=11, executor=RDDExecutor(spark, 4))
    assert pb.process_stream(stream) == pytest.approx(e1, rel=1e-9, abs=1e-9)


def test_spark_executors_report_comparisons(spark):
    stream = stream_of(13, n=150)
    ab = Abacus(k=25, seed=13)
    ab.process_stream(stream)
    pb = ParAbacus(k=25, batch_size=75, seed=13, executor=RDDExecutor(spark, 3))
    pb.process_stream(stream)
    assert pb.comparisons == ab.comparisons


def test_rdd_executor_runs_more_groups_than_cores_in_one_task_wave(spark, monkeypatch):
    """Groups share tasks (at most one per core) and report exactly what
    the serial executor reports for each group on its own."""
    sc = spark.sparkContext
    n_groups = 2 * sc.defaultParallelism + 1
    slices = []
    parallelize = type(sc).parallelize

    def spy(self, c, numSlices=None):
        slices.append(numSlices)
        return parallelize(self, c, numSlices)

    monkeypatch.setattr(type(sc), "parallelize", spy)
    stream = stream_of(17, n=200)
    rdd = ParAbacus(k=30, batch_size=70, seed=17, executor=RDDExecutor(spark, n_groups))
    serial = ParAbacus(k=30, batch_size=70, seed=17, executor=SerialExecutor(n_groups))
    assert rdd.process_stream(stream) == serial.process_stream(stream)
    assert rdd.group_comparisons == serial.group_comparisons
    assert len(rdd.group_comparisons) == n_groups
    assert slices and all(n == sc.defaultParallelism for n in slices)


def test_rdd_executor_destroys_broadcast_when_a_task_fails(spark, monkeypatch):
    """With no deltas every group task raises IndexError; the job must fail
    and the broadcast's driver-side file must still be removed."""
    sc = spark.sparkContext
    made = []
    broadcast = type(sc).broadcast

    def spy(self, value):
        bc = broadcast(self, value)
        made.append(bc)
        return bc

    monkeypatch.setattr(type(sc), "broadcast", spy)
    batch = [(u, v, 1) for u, v in zipf_bipartite(6, 6, 12, seed=1)]
    with pytest.raises(Exception, match="IndexError"):
        RDDExecutor(spark, 3).run([], batch, [], [(0, 0, 0)] * len(batch), 10)
    assert len(made) == 1
    assert not os.path.exists(made[0]._path)
