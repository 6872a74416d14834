"""Tests for the exact butterfly counting engines (DuckDB and pure Python)."""
import duckdb
import pandas as pd
import pytest

from repro.core import exact
from repro.core.encoding import enc_right
from repro.streamgen.graphs import complete_bipartite, zipf_bipartite


def pdf_of(edges):
    return exact.edges_to_pdf(edges)


def sql_count(pdf, center, side):
    """``butterfly_sql`` in DuckDB with a fixed wedge center."""
    con = duckdb.connect()
    try:
        con.register("edges", pdf)
        return con.execute(exact.butterfly_sql(center, side)).fetchone()[0]
    finally:
        con.close()


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
    # duplicated input rows are one edge (the SELECT DISTINCT)
    assert exact.butterflies_duckdb(pdf_of(edges + edges)) == expected


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
    truth = exact.butterflies_reference(edges)
    pdf = pdf_of(edges)
    assert exact.butterflies_duckdb(pdf) == truth
    # the cheap-side choice changes the cost, never the count
    assert sql_count(pdf, "l", "r") == sql_count(pdf, "r", "l") == truth


# The two tests below keep the names they had when they ran on the Spark
# exact engine; they now check the same properties of the DuckDB engine.
@pytest.mark.parametrize("center", ["l", "r"])
def test_spark_center_choice_irrelevant(center):
    """Either wedge center gives the count the cheap-side choice gives."""
    side = "r" if center == "l" else "l"
    edges = zipf_bipartite(20, 40, 180, 1.0, 0.6, seed=7)
    pdf = pdf_of(edges)
    assert sql_count(pdf, center, side) == exact.butterflies_duckdb(pdf)
    assert sql_count(pdf, center, side) == exact.butterflies_reference(edges)


def test_spark_engine_dedups_input():
    """Duplicated input rows are one edge, whichever center is used."""
    edges = complete_bipartite(3, 3)
    pdf = pdf_of(edges + edges)
    assert exact.butterflies_duckdb(pdf) == 9
    assert sql_count(pdf, "l", "r") == sql_count(pdf, "r", "l") == 9


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
