"""Tests for the experiment harnesses (small-scale, shape-level checks)."""
import math
import statistics

import pytest

from repro.experiments import common
from repro.experiments.accuracy import accuracy_sweep, improvement_over_baselines
from repro.experiments.deletions import deletions_sweep
from repro.experiments.load_balance import (
    balance_summary,
    load_per_group,
    total_comparisons,
)
from repro.experiments.report import format_table
from repro.experiments.scalability import linearity_r2, scalability_series
from repro.experiments.speedup import speedup_vs_batch
from repro.experiments.stats import dataset_stats
from repro.experiments.throughput import throughput_sweep


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
def test_format_table_alignment_and_columns():
    rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 1e9}]
    txt = format_table(rows, title="T")
    lines = txt.strip().splitlines()
    assert lines[0] == "== T =="
    assert lines[1].split() == ["a", "b"]
    assert len(lines) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([], title="x")


def test_format_table_column_subset():
    txt = format_table([{"a": 1, "b": 2}], columns=["b"])
    assert "a" not in txt.splitlines()[0]


# ---------------------------------------------------------------------------
# common
# ---------------------------------------------------------------------------
def test_relative_error():
    assert common.relative_error(10, 12) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        common.relative_error(0, 1)


def test_make_algo_unknown():
    with pytest.raises(ValueError):
        common.make_algo("nope", 10, 0)


def test_make_stream_and_truth():
    stream = common.make_stream("movielens_lite", 0.2, scale=0.05, seed=0)
    assert len(stream) == round(1.2 * 4000)
    assert common.ground_truth(stream) > 0


# ---------------------------------------------------------------------------
# Table II harness
# ---------------------------------------------------------------------------
def test_dataset_stats_duckdb():
    rows = dataset_stats(scale=0.05)
    assert len(rows) == 4
    by = {r["dataset"]: r for r in rows}
    assert by["movielens_lite"]["density"] > by["orkut_lite"]["density"]
    for r in rows:
        assert r["B"] > 0 and r["E"] > 0
        assert r["density"] == pytest.approx(r["B"] / r["E"] ** 4)


# ---------------------------------------------------------------------------
# Fig. 3 / Fig. 5 harness
# ---------------------------------------------------------------------------
def test_accuracy_sweep_fully_dynamic_shape():
    rows = accuracy_sweep(
        dataset_names=["movielens_lite"], ks=(400, 800), alpha=0.2,
        runs=2, scale=0.08,
    )
    assert len(rows) == 2 * 3
    by = {(r["k"], r["algo"]): r["rel_err"] for r in rows}
    # the paper's central claim: ABACUS beats the deletion-ignoring baselines
    for k in (400, 800):
        assert by[(k, "abacus")] < by[(k, "fleet")]
        assert by[(k, "abacus")] < by[(k, "cas")]


def test_accuracy_sweep_insert_only_no_gap():
    """Fig. 5: with α=0 ABACUS is comparable to the baselines (within 3x)."""
    rows = accuracy_sweep(
        dataset_names=["movielens_lite"], ks=(800,), alpha=0.0, runs=3, scale=0.08,
    )
    by = {r["algo"]: r["rel_err"] for r in rows}
    assert by["abacus"] < 3 * max(by["fleet"], by["cas"]) + 0.05


def test_improvement_over_baselines():
    rows = [
        {"dataset": "d", "k": 1, "algo": "abacus", "rel_err": 0.02},
        {"dataset": "d", "k": 1, "algo": "fleet", "rel_err": 0.4},
    ]
    out = improvement_over_baselines(rows)
    assert out == [
        {"dataset": "d", "k": 1, "baseline": "fleet", "improvement_x": pytest.approx(20.0)}
    ]


# ---------------------------------------------------------------------------
# Fig. 4 harness
# ---------------------------------------------------------------------------
def test_throughput_sweep_rows():
    rows = throughput_sweep(
        dataset_names=["movielens_lite"], ks=(500,), scale=0.05,
        algos=("abacus", "abacus_ins", "fleet", "cas"),
    )
    assert len(rows) == 4
    for r in rows:
        assert r["edges_per_s"] > 0
    ins = next(r for r in rows if r["algo"] == "abacus_ins")
    full = next(r for r in rows if r["algo"] == "abacus")
    assert ins["stream_len"] < full["stream_len"]  # deletions filtered out


def test_throughput_sweep_parabacus_requires_spark():
    rows = throughput_sweep(
        dataset_names=["movielens_lite"], ks=(500,), scale=0.05,
        algos=("parabacus",), spark=None,
    )
    assert rows == []  # silently skipped without a session


# ---------------------------------------------------------------------------
# Fig. 6 harness
# ---------------------------------------------------------------------------
def test_deletions_sweep_error_stays_bounded():
    rows = deletions_sweep(
        dataset_names=["movielens_lite"], alphas=(0.05, 0.3), k=800,
        runs=2, scale=0.08,
    )
    assert len(rows) == 2
    for r in rows:
        assert r["rel_err"] < 0.5
        assert r["edges_per_s"] > 0


# ---------------------------------------------------------------------------
# Fig. 7 harness
# ---------------------------------------------------------------------------
def test_scalability_series_linear():
    """A pass here takes ~40 ms, so one shared-core stall can bend a single
    series: r² is taken on the per-checkpoint median of three runs."""
    runs = [
        scalability_series(dataset_names=("movielens_lite",), ks=(400,), scale=0.1)
        for _ in range(3)
    ]
    for rows in runs:
        assert len(rows) == 10
        assert [r["pct"] for r in rows] == list(range(10, 101, 10))
        elapsed = [r["elapsed_s"] for r in rows]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    median_rows = [
        {**rows[0], "elapsed_s": statistics.median(r["elapsed_s"] for r in rows)}
        for rows in zip(*runs)
    ]
    r2 = linearity_r2(median_rows)[0]["r2"]
    assert r2 > 0.97


# ---------------------------------------------------------------------------
# Figs. 8/9 harness (spark; tiny grid — asserts plumbing, not speedup)
# ---------------------------------------------------------------------------
def test_speedup_vs_batch_rows(spark):
    rows = speedup_vs_batch(
        spark,
        dataset_names=("movielens_lite",), ks=(800,), batch_sizes=(2000,),
        n_groups=2, scale=0.05,
    )
    assert len(rows) == 1
    assert rows[0]["speedup"] > 0
    assert rows[0]["t_seq_s"] > 0 and rows[0]["t_par_s"] > 0


# ---------------------------------------------------------------------------
# Fig. 10 harness
# ---------------------------------------------------------------------------
def test_load_per_group_serial_balance():
    rows = load_per_group(
        dataset_names=("movielens_lite",), k=800, batch_size=1000,
        n_groups=4, scale=0.1, spark=None,
    )
    assert len(rows) == 4
    summary = balance_summary(rows)[0]
    assert summary["groups"] == 4
    # contiguous versioned-sample grouping keeps threads balanced
    assert summary["imbalance_max_over_mean"] < 1.5
    assert math.isclose(sum(r["share"] for r in rows), 1.0, rel_tol=1e-9)


def test_total_comparisons_tracks_density():
    """Sec. VI-G: denser graphs do more intersection work at equal k."""
    rows = total_comparisons(
        dataset_names=("movielens_lite", "orkut_lite"), k=800, scale=0.1,
    )
    by = {r["dataset"]: r["total_comparisons"] for r in rows}
    assert by["movielens_lite"] > by["orkut_lite"]
