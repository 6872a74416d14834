"""Tests for the exact butterfly counting engines (+ oracle checks)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import exact
from repro.core.encoding import enc_right
from repro.oracle import assert_equivalent
from repro.streamgen.graphs import complete_bipartite, zipf_bipartite


def pdf_of(edges):
    return exact.edges_to_pdf(edges)


# ---------------------------------------------------------------------------
# hand-computable graphs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (4, 5), (6, 4)])
def test_complete_bipartite_closed_form(a, b):
    """K_{a,b} has C(a,2)*C(b,2) butterflies."""
    expected = a * (a - 1) // 2 * (b * (b - 1) // 2)
    edges = complete_bipartite(a, b)
    assert exact.butterflies_reference(edges) == expected
    assert exact.butterflies_duckdb(pdf_of(edges)) == expected


def test_single_butterfly():
    edges = [(0, enc_right(0)), (0, enc_right(1)), (1, enc_right(0)), (1, enc_right(1))]
    assert exact.butterflies_reference(edges) == 1
    assert exact.butterflies_duckdb(pdf_of(edges)) == 1


def test_path_has_no_butterfly():
    edges = [(0, enc_right(0)), (1, enc_right(0)), (1, enc_right(1)), (2, enc_right(1))]
    assert exact.butterflies_reference(edges) == 0
    assert exact.butterflies_duckdb(pdf_of(edges)) == 0


def test_empty_graph():
    assert exact.butterflies_reference([]) == 0
    assert exact.butterflies_duckdb(pd.DataFrame({"l": [], "r": []})) == 0


def test_star_has_no_butterfly():
    edges = [(0, enc_right(j)) for j in range(6)]
    assert exact.butterflies_reference(edges) == 0
    assert exact.butterflies_duckdb(pdf_of(edges)) == 0


# ---------------------------------------------------------------------------
# engines agree on random graphs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_reference_vs_duckdb_random(seed):
    edges = zipf_bipartite(25, 25, 150, 0.8, 0.8, seed=seed)
    assert exact.butterflies_reference(edges) == exact.butterflies_duckdb(pdf_of(edges))


@pytest.mark.parametrize("seed", range(3))
def test_spark_vs_duckdb_random(spark, seed):
    edges = zipf_bipartite(30, 30, 200, 0.9, 0.9, seed=seed)
    pdf = pdf_of(edges)
    assert exact.butterflies_spark(spark, pdf) == exact.butterflies_duckdb(pdf)


@pytest.mark.parametrize("center", ["l", "r"])
def test_spark_center_choice_irrelevant(spark, center):
    edges = zipf_bipartite(20, 40, 180, 1.0, 0.6, seed=7)
    pdf = pdf_of(edges)
    df = spark.createDataFrame(pdf[["l", "r"]])
    got = int(exact.butterflies_spark_df(df, center).first()["butterflies"])
    assert got == exact.butterflies_duckdb(pdf)


@pytest.mark.parametrize("center,side", [("l", "r"), ("r", "l")])
def test_spark_engine_against_oracle(spark, center, side):
    """Row-level diff of the Spark pipeline against the identical DuckDB SQL
    via the oracle (catches a broken join/aggregation, not just 'it ran')."""
    edges = zipf_bipartite(25, 25, 160, 0.8, 0.8, seed=11)
    pdf = pdf_of(edges)
    df = spark.createDataFrame(pdf[["l", "r"]])
    assert_equivalent(
        exact.butterflies_spark_df(df, center),
        exact.butterfly_sql(center, side),
        edges=pdf,
    )


def test_wedge_aggregation_oracle(spark):
    """Check the *intermediate* wedge-pair aggregation row-by-row, not
    just the final scalar — a broken join would surface here."""
    edges = zipf_bipartite(25, 25, 160, 0.8, 0.8, seed=11)
    pdf = pdf_of(edges)
    df = spark.createDataFrame(pdf[["l", "r"]])
    a = df.select(F.col("r").alias("c"), F.col("l").alias("s1"))
    b = df.select(F.col("r").alias("c"), F.col("l").alias("s2"))
    pairs = (
        a.join(b, "c")
        .where(F.col("s1") < F.col("s2"))
        .groupBy("s1", "s2")
        .agg(F.count(F.lit(1)).alias("c"))
    )
    assert_equivalent(
        pairs,
        """
        SELECT a.l AS s1, b.l AS s2, COUNT(*) AS c
        FROM edges a JOIN edges b ON a.r = b.r AND a.l < b.l
        GROUP BY a.l, b.l
        """,
        edges=pdf,
    )


def test_spark_engine_dedups_input(spark):
    edges = complete_bipartite(3, 3)
    pdf = pdf_of(edges + edges)  # duplicated rows
    assert exact.butterflies_spark(spark, pdf) == 9


# ---------------------------------------------------------------------------
# wedge volumes / density / conversions
# ---------------------------------------------------------------------------
def test_wedge_volumes():
    # K_{2,3}: each of 3 right vertices has d=2 -> vol_r = 3; each of 2
    # left has d=3 -> vol_l = 2*3 = 6
    vol_l, vol_r = exact.wedge_volumes(pdf_of(complete_bipartite(2, 3)))
    assert (vol_l, vol_r) == (6, 3)


def test_edges_to_pdf_decodes_right_ids():
    pdf = pdf_of([(3, enc_right(5)), (enc_right(6), 2)])
    assert sorted(zip(pdf["l"], pdf["r"])) == [(2, 6), (3, 5)]


def test_butterfly_density():
    assert exact.butterfly_density(16, 2) == 1.0
    assert exact.butterfly_density(0, 100) == 0.0


# ---------------------------------------------------------------------------
# enumeration + pair profile (Theorem 2 inputs)
# ---------------------------------------------------------------------------
def test_enumerate_matches_count():
    for seed in range(5):
        edges = zipf_bipartite(10, 10, 40, seed=seed)
        bfs = exact.enumerate_butterflies_reference(edges)
        assert len(bfs) == exact.butterflies_reference(edges)


def test_enumerate_butterfly_edges_are_graph_edges():
    edges = complete_bipartite(3, 3)
    edge_set = set(edges)
    for bf in exact.enumerate_butterflies_reference(edges):
        assert len(bf) == 4
        assert all(e in edge_set for e in bf)


def test_pair_profile_single_butterfly():
    edges = complete_bipartite(2, 2)
    bfs = exact.enumerate_butterflies_reference(edges)
    assert exact.butterfly_pair_profile(bfs) == (0, 0, 0)


def test_pair_profile_k23():
    """K_{2,3}: 3 butterflies, each pair shares exactly 2 edges."""
    bfs = exact.enumerate_butterflies_reference(complete_bipartite(2, 3))
    assert len(bfs) == 3
    assert exact.butterfly_pair_profile(bfs) == (0, 0, 3)


def test_pair_profile_total_pairs():
    edges = complete_bipartite(3, 3)
    bfs = exact.enumerate_butterflies_reference(edges)
    y1, y2, y3 = exact.butterfly_pair_profile(bfs)
    n = len(bfs)
    assert y1 + y2 + y3 == n * (n - 1) // 2
