"""The paper's nine exhibits, each defined once, and the command that prints them.

``EXHIBITS`` maps an exhibit name to a ``(scale, spark) -> [(title, rows,
columns)]`` function and to whether it uses Spark: Table II and Figs. 3-10
(the Sec. VI-G totals print with Fig. 10). Each function runs its
``repro.experiments`` harness with the default grid, runs and alpha.
``jobs/run.py`` prints them and ``benchmarks/test_exhibits.py`` checks them.

``main`` runs one exhibit: ``python jobs/run.py EXHIBIT [--scale 1.0]``.
Spark exhibits create a local session (``repro.spark_util``) and stop it
when done; the others never start a JVM.
"""
import argparse

from repro.experiments import (
    accuracy,
    deletions,
    load_balance,
    scalability,
    speedup,
    stats,
    throughput,
)
from repro.experiments.report import print_table
from repro.spark_util import get_session

ACCURACY_COLUMNS = ["dataset", "k", "algo", "rel_err", "est_mean", "truth_mean"]


def table2_stats(scale, spark):
    rows = stats.dataset_stats(scale=scale)
    return [(f"Table II — dataset statistics (scale={scale})", rows, None)]


def fig3_accuracy(scale, spark):
    rows = accuracy.accuracy_sweep(scale=scale)
    return [
        ("Fig. 3 — relative error, fully dynamic (alpha=0.2)", rows, ACCURACY_COLUMNS),
        (
            "Fig. 3 — ABACUS accuracy improvement over baselines (x)",
            accuracy.improvement_over_baselines(rows),
            None,
        ),
    ]


def fig4_throughput(scale, spark):
    rows = throughput.throughput_sweep(
        scale=scale, algos=("abacus", "abacus_ins", "fleet", "cas", "parabacus"), spark=spark
    )
    columns = ["dataset", "k", "algo", "stream_len", "elapsed_s", "edges_per_s"]
    return [("Fig. 4 — throughput (alpha=0.2)", rows, columns)]


def fig5_accuracy_insert_only(scale, spark):
    rows = accuracy.accuracy_sweep(alpha=0.0, scale=scale)
    return [("Fig. 5 — relative error, insertion-only (alpha=0)", rows, ACCURACY_COLUMNS)]


def fig6_deletions(scale, spark):
    rows = deletions.deletions_sweep(scale=scale)
    columns = ["dataset", "alpha", "k", "rel_err", "edges_per_s"]
    return [("Fig. 6 — impact of deletions ratio", rows, columns)]


def fig7_scalability(scale, spark):
    rows = scalability.scalability_series(scale=scale)
    return [
        (
            "Fig. 7 — elapsed time per 10% checkpoint (alpha=0.2)",
            rows,
            ["dataset", "k", "pct", "elements", "elapsed_s"],
        ),
        ("Fig. 7 — linearity (R^2 of elapsed~elements)", scalability.linearity_r2(rows), None),
    ]


def fig8_speedup_batch(scale, spark):
    rows = speedup.speedup_vs_batch(spark, scale=scale)
    columns = ["dataset", "k", "batch_size", "n_groups", "t_seq_s", "t_par_s", "speedup"]
    return [("Fig. 8 — speedup vs mini-batch size", rows, columns)]


def fig9_speedup_threads(scale, spark):
    rows = speedup.speedup_vs_threads(spark, scale=scale)
    columns = ["dataset", "k", "n_groups", "batch_size", "t_seq_s", "t_par_s", "speedup"]
    return [("Fig. 9 — speedup vs #thread groups", rows, columns)]


def fig10_load_balance(scale, spark):
    rows = load_balance.load_per_group(scale=scale, spark=spark)
    return [
        ("Fig. 10 — per-group intersection comparisons", rows, None),
        ("Fig. 10 — balance summary", load_balance.balance_summary(rows), None),
        (
            "Sec. VI-G — total comparisons per dataset",
            load_balance.total_comparisons(scale=scale),
            None,
        ),
    ]


#: exhibit name -> (tables function, uses Spark)
EXHIBITS = {
    "table2_stats": (table2_stats, False),
    "fig3_accuracy": (fig3_accuracy, False),
    "fig4_throughput": (fig4_throughput, True),
    "fig5_accuracy_insert_only": (fig5_accuracy_insert_only, False),
    "fig6_deletions": (fig6_deletions, False),
    "fig7_scalability": (fig7_scalability, False),
    "fig8_speedup_batch": (fig8_speedup_batch, True),
    "fig9_speedup_threads": (fig9_speedup_threads, True),
    "fig10_load_balance": (fig10_load_balance, True),
}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="Regenerate one exhibit of the paper's evaluation.")
    ap.add_argument("exhibit", choices=EXHIBITS)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    tables, uses_spark = EXHIBITS[args.exhibit]
    spark = get_session(f"repro-{args.exhibit}") if uses_spark else None
    try:
        for title, rows, columns in tables(args.scale, spark):
            print_table(rows, columns, title)
    finally:
        if spark is not None:
            spark.stop()
