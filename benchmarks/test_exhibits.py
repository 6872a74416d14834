"""Benchmark of the paper's nine exhibits, checked against the tables they print.

Each exhibit of ``repro.experiments.exhibits.EXHIBITS`` runs once under
pytest-benchmark, prints its tables, and must show the paper's shape in
those same tables (``CHECKS``). Figs. 8 and 9 run at full scale, where the
per-batch counting work outweighs Spark's job overhead (DESIGN.md §3); the
others at half scale. Absolute factors are smaller than the paper's; the
orderings and monotone trends are what is asserted.
"""
import pytest

from repro.experiments.exhibits import EXHIBITS
from repro.experiments.report import print_table

SCALE = {"fig8_speedup_batch": 1.0, "fig9_speedup_threads": 1.0}


def check_table2(tables):
    ((_, rows, _),) = tables
    by = {r["dataset"]: r for r in rows}
    # Table II's density ordering is the property the substitution preserves
    assert (
        by["movielens_lite"]["density"]
        > by["trackers_lite"]["density"]
        > by["livejournal_lite"]["density"]
        > by["orkut_lite"]["density"]
    )
    for r in rows:
        assert r["B"] > 0


def check_fig3(tables):
    (_, rows, _), (_, imp, _) = tables
    by = {(r["dataset"], r["k"], r["algo"]): r["rel_err"] for r in rows}
    # ABACUS beats both deletion-ignoring baselines on every dataset and k
    for (ds, k, algo), err in by.items():
        if algo == "abacus":
            assert err < by[(ds, k, "fleet")], (ds, k)
            assert err < by[(ds, k, "cas")], (ds, k)
    # and every improvement factor is > 1 (paper: 2.57x .. 148.4x)
    assert all(r["improvement_x"] > 1.0 for r in imp)


def check_fig4(tables):
    ((_, rows, _),) = tables
    by = {(r["dataset"], r["k"], r["algo"]): r["edges_per_s"] for r in rows}
    for (ds, k, algo), eps in by.items():
        if algo == "abacus":
            # fully dynamic ABACUS within 4x of every insert-only baseline
            # (paper: within ~1.5x; Python adds variance at small k)
            assert eps > by[(ds, k, "fleet")] / 4, (ds, k)
            assert eps > by[(ds, k, "cas")] / 4, (ds, k)


def check_fig5(tables):
    ((_, rows, _),) = tables
    by = {(r["dataset"], r["k"], r["algo"]): r["rel_err"] for r in rows}
    k_min, k_max = min(r["k"] for r in rows), max(r["k"] for r in rows)
    for (ds, k, algo), err in by.items():
        if algo == "abacus":
            # comparable to the specialists: within 3x of the best baseline
            # (generous MC margin)
            best_baseline = min(by[(ds, k, "fleet")], by[(ds, k, "cas")])
            assert err < 3.0 * best_baseline + 0.05, (ds, k)
    # error shrinks with k for ABACUS (smallest vs largest sample)
    for ds in {r["dataset"] for r in rows}:
        assert by[(ds, k_max, "abacus")] < by[(ds, k_min, "abacus")] + 0.02, ds


def check_fig6(tables):
    ((_, rows, _),) = tables
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r["dataset"], []).append(r)
    for ds, rs in by_ds.items():
        # error bounded at every alpha (paper: < 8%; MC margin here)
        assert all(r["rel_err"] < 0.25 for r in rs), ds
        # throughput flat in alpha: max/min within 2x
        thr = [r["edges_per_s"] for r in rs]
        assert max(thr) / min(thr) < 2.0, ds


def check_fig7(tables):
    _, (_, fits, _) = tables
    for f in fits:
        assert f["r2"] > 0.95, f
    # larger sample => larger total elapsed time (paper observation)
    by = {(f["dataset"], f["k"]): f["total_s"] for f in fits}
    k_min, k_max = min(f["k"] for f in fits), max(f["k"] for f in fits)
    for ds in {f["dataset"] for f in fits}:
        assert by[(ds, k_max)] > by[(ds, k_min)], ds


def check_fig8(tables):
    ((_, rows, _),) = tables
    by = {(r["dataset"], r["k"], r["batch_size"]): r["speedup"] for r in rows}
    ks = sorted({r["k"] for r in rows})
    m_min, m_max = min(r["batch_size"] for r in rows), max(r["batch_size"] for r in rows)
    top = by[("movielens_lite", ks[-1], m_max)]
    # speedup grows with the mini-batch size (dense dataset, every k)
    for k in ks:
        assert by[("movielens_lite", k, m_max)] > by[("movielens_lite", k, m_min)], k
    # speedup grows with the sample size at the largest batch
    assert top > by[("movielens_lite", ks[0], m_min)]
    # denser graph => more speedup (paper: MovieLens 17.6x vs Orkut 5x)
    assert top > by[("orkut_lite", ks[-1], m_max)]
    # Fig. 4: PARABACUS out-throughputs sequential ABACUS on the densest
    # dataset at the largest k and batch
    assert top > 1.0
    # and parallelism pays off there by a clear margin
    assert top > 1.5


def check_fig9(tables):
    ((_, rows, _),) = tables
    by = {
        (r["k"], r["n_groups"]): r["speedup"]
        for r in rows
        if r["dataset"] == "movielens_lite"
    }
    k_min, k_max = min(k for k, _ in by), max(k for k, _ in by)
    p_min, p_max = min(p for _, p in by), max(p for _, p in by)
    # more threads help at the largest sample size
    assert by[(k_max, p_max)] > by[(k_max, p_min)]
    # the largest sample size gains the most at full parallelism
    assert by[(k_max, p_max)] >= by[(k_min, p_max)] * 0.9


def check_fig10(tables):
    _, (_, summaries, _), (_, totals, _) = tables
    for s in summaries:
        assert s["groups"] == 8
        # near-equal loads (paper's Fig. 10 bars are visually flat)
        assert s["imbalance_max_over_mean"] < 1.35, s
    by_total = {t["dataset"]: t["total_comparisons"] for t in totals}
    # denser graph => more intersection work (Sec. VI-G: ML 2.21B vs Orkut 0.30B)
    assert by_total["movielens_lite"] > by_total["orkut_lite"]
    by_mean = {s["dataset"]: s["mean"] for s in summaries}
    assert by_mean["movielens_lite"] > by_mean["orkut_lite"]


CHECKS = {
    "table2_stats": check_table2,
    "fig3_accuracy": check_fig3,
    "fig4_throughput": check_fig4,
    "fig5_accuracy_insert_only": check_fig5,
    "fig6_deletions": check_fig6,
    "fig7_scalability": check_fig7,
    "fig8_speedup_batch": check_fig8,
    "fig9_speedup_threads": check_fig9,
    "fig10_load_balance": check_fig10,
}


@pytest.mark.parametrize("name", EXHIBITS)
def test_exhibit(name, benchmark, request):
    tables_fn, uses_spark = EXHIBITS[name]
    spark = request.getfixturevalue("spark") if uses_spark else None
    tables = benchmark.pedantic(
        tables_fn, args=(SCALE.get(name, 0.5), spark), rounds=1, iterations=1
    )
    for title, rows, columns in tables:
        print_table(rows, columns, title)
    CHECKS[name](tables)
