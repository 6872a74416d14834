"""Estimates and comparison counts pinned on the benchmark's seed-3 streams.

The streams are built as ``perfbench/workloads.make_inputs`` builds them
(the dataset spec at the workload's scale, its graph seed offset by
``1000 * seed``, then ``fully_dynamic_stream``), with each workload's
alpha and k. The values are compared with ``==``: a change to the kernel,
the sample or Random Pairing that is meant to leave behaviour alone must
leave every one of them as it is. A change that moves an estimate on
purpose (its RNG use, its summation order) updates the pin and says why.
"""
import dataclasses

import pytest

from repro.baselines.cas import CasR
from repro.baselines.fleet import Fleet3
from repro.core.abacus import Abacus
from repro.core.parabacus import ParAbacus, SerialExecutor
from repro.streamgen.datasets import DATASETS
from repro.streamgen.graphs import zipf_bipartite
from repro.streamgen.stream import fully_dynamic_stream

SEED = 3
K = 24_000


def bench_stream(dataset, scale, alpha, seed=SEED):
    spec = DATASETS[dataset].scaled(scale)
    spec = dataclasses.replace(spec, seed=spec.seed + 1000 * seed)
    edges = zipf_bipartite(spec.n_left, spec.n_right, spec.n_edges,
                           a_left=spec.a_left, a_right=spec.a_right, seed=spec.seed)
    return fully_dynamic_stream(edges, alpha, seed=seed)


@pytest.fixture(scope="module")
def sparse_stream():
    """``parabacus_sparse``'s stream: orkut_lite x1, alpha 0.2."""
    return bench_stream("orkut_lite", 1.0, 0.2)


@pytest.mark.parametrize("dataset, scale, alpha, estimate, comparisons", [
    pytest.param("movielens_lite", 1.0, 0.2, 46489845.3224705, 64924622, id="abacus_dense"),
    pytest.param("orkut_lite", 4.0, 0.5, 94084.73910413911, 909380, id="abacus_churn"),
])
def test_abacus_pinned(dataset, scale, alpha, estimate, comparisons):
    ab = Abacus(K, seed=SEED)
    ab.process_stream(bench_stream(dataset, scale, alpha))
    assert (ab.estimate, ab.comparisons) == (estimate, comparisons)


def test_serial_parabacus_pinned(sparse_stream):
    pb = ParAbacus(K, 8000, seed=SEED, executor=SerialExecutor(4))
    pb.process_stream(sparse_stream)
    assert (pb.estimate, pb.comparisons) == (31513.478211972746, 515064)
    assert pb.group_comparisons == {0: 125807, 1: 129150, 2: 121617, 3: 138490}


@pytest.mark.parametrize("make, estimate, comparisons", [
    pytest.param(Fleet3, 69453.18561218548, 334109, id="fleet3"),
    pytest.param(CasR, 79078.75724113412, 213138, id="cas_r"),
])
def test_insert_only_baseline_pinned(sparse_stream, make, estimate, comparisons):
    est = make(K, seed=SEED)
    est.process_stream([el for el in sparse_stream if el[2] > 0])
    assert (est.estimate, est.comparisons) == (estimate, comparisons)
