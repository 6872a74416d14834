"""Smoke tests for the exhibit registry that ``jobs/run.py`` runs.

Exhibits without Spark run end to end through ``main`` at tiny scale.
Spark exhibits call their registry function with the shared fixture
session instead, because ``main`` stops the session it uses.
"""
import pytest

from repro.experiments import exhibits

NAMES = [
    "table2_stats",
    "fig3_accuracy",
    "fig4_throughput",
    "fig5_accuracy_insert_only",
    "fig6_deletions",
    "fig7_scalability",
    "fig8_speedup_batch",
    "fig9_speedup_threads",
    "fig10_load_balance",
]

SPARK_NAMES = {"fig4_throughput", "fig8_speedup_batch", "fig9_speedup_threads",
               "fig10_load_balance"}


@pytest.mark.parametrize("name", NAMES)
def test_job_importable(name):
    tables, uses_spark = exhibits.EXHIBITS[name]
    assert callable(tables)
    assert uses_spark == (name in SPARK_NAMES)


def test_registry_holds_only_the_nine_exhibits():
    assert sorted(exhibits.EXHIBITS) == sorted(NAMES)


def main_output(name, capsys):
    exhibits.main([name, "--scale", "0.05"])
    return capsys.readouterr().out


def test_fig3_job_tiny(capsys):
    out = main_output("fig3_accuracy", capsys)
    assert "== Fig. 3 — relative error, fully dynamic (alpha=0.2) ==" in out
    assert "== Fig. 3 — ABACUS accuracy improvement over baselines (x) ==" in out
    assert "abacus" in out and "fleet" in out and "cas" in out


def test_fig5_job_tiny(capsys):
    out = main_output("fig5_accuracy_insert_only", capsys)
    assert "== Fig. 5 — relative error, insertion-only (alpha=0) ==" in out


def test_fig6_job_tiny(capsys):
    out = main_output("fig6_deletions", capsys)
    assert "== Fig. 6 — impact of deletions ratio ==" in out
    assert "alpha" in out


def test_fig7_job_tiny(capsys):
    out = main_output("fig7_scalability", capsys)
    assert "== Fig. 7 — elapsed time per 10% checkpoint (alpha=0.2) ==" in out
    assert "== Fig. 7 — linearity (R^2 of elapsed~elements) ==" in out


def test_table2_job_tiny(capsys):
    out = main_output("table2_stats", capsys)
    assert "== Table II — dataset statistics (scale=0.05) ==" in out
    assert "movielens_lite" in out and "orkut_lite" in out


def test_fig10_job_tiny(spark):
    tables = exhibits.fig10_load_balance(0.05, spark)
    assert [title for title, _, _ in tables] == [
        "Fig. 10 — per-group intersection comparisons",
        "Fig. 10 — balance summary",
        "Sec. VI-G — total comparisons per dataset",
    ]
    assert all(rows for _, rows, _ in tables)


def test_unknown_exhibit_exits_2():
    with pytest.raises(SystemExit) as exc:
        exhibits.main(["fig11_nonexistent"])
    assert exc.value.code == 2
