"""Tests for bipartite graph construction (repro.core.graph, paper §3.2)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import build_graph, incidences
from repro.core.lcc import lcc_values
from repro.core.ranking import rank_frame
from repro.lakes.datalake import CELLS_SCHEMA, lake_from_tables
from repro.lakes.sb import sb_lake
from repro.oracle import assert_equivalent
from tests.fixtures import EXAMPLE31_TABLES, FIGURE1_TABLES


@pytest.fixture(scope="module")
def fig1(spark):
    return lake_from_tables(spark, FIGURE1_TABLES)


@pytest.fixture(scope="module")
def g31(spark):
    return build_graph(
        lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False
    )


def test_incidences_oracle(spark, fig1):
    got = incidences(fig1)
    assert_equivalent(
        got,
        """
        SELECT DISTINCT table_id || '.' || col_id AS attr,
               UPPER(TRIM(value)) AS value
        FROM cells
        WHERE value IS NOT NULL AND TRIM(value) <> ''
        """,
        cells=fig1.toPandas(),
    )


def test_example31_counts(g31):
    # 8 distinct values, 4 attributes, 14 incidences (paper Fig. 3b).
    assert g31.n_values == 8
    assert g31.n_attrs == 4
    assert g31.n_edges == 14
    assert g31.n_nodes == 12


def test_value_and_attr_id_ranges(g31):
    e = g31.edge_frame()
    assert len(g31.labels) == g31.n_nodes
    assert sorted(set(e.value_id)) == list(range(g31.n_values))
    assert sorted(set(e.attr_id)) == list(
        range(g31.n_values, g31.n_values + g31.n_attrs)
    )


def test_node_ids_deterministic_by_label(g31):
    vals, attrs = list(g31.value_labels), list(g31.labels[g31.n_values :])
    assert vals == sorted(vals)
    assert attrs == sorted(attrs)


def test_node_ids_follow_spark_label_order(spark):
    # Accents, CJK, and an astral-plane character (UTF-16 would sort it
    # before U+FF21; code-point order, like Spark's, sorts it after).
    words = ["zebra", "éclair", "Äpfel", "日本", "\uff21x", "\U0001f600", "Ω", "a b"]
    lake = lake_from_tables(spark, {"T": {"c": words, "d": words}})
    g = build_graph(lake)
    spark_order = (
        incidences(lake).select(F.col("value").alias("label")).distinct()
        .orderBy("label").toPandas()["label"].tolist()
    )
    assert list(g.value_labels) == spark_order


def test_each_value_is_single_node(g31):
    # JAGUAR occurs in all four attributes but is one node (paper §3.2).
    assert (g31.labels == "JAGUAR").sum() == 1
    jid = int(np.flatnonzero(g31.labels == "JAGUAR")[0])
    assert g31.edges.where(F.col("value_id") == jid).count() == 4


def test_value_degrees_oracle(spark, fig1):
    graph = build_graph(fig1, prune_unique=False)
    got = spark.createDataFrame(pd.DataFrame({
        "value": graph.value_labels,
        "degree": graph.csr.degrees()[: graph.n_values],
    }))
    assert_equivalent(
        got,
        """
        SELECT value, COUNT(*) AS degree FROM (
            SELECT DISTINCT table_id || '.' || col_id AS attr,
                   UPPER(TRIM(value)) AS value
            FROM cells WHERE value IS NOT NULL AND TRIM(value) <> ''
        ) GROUP BY value
        """,
        cells=fig1.toPandas(),
    )


def test_prune_unique_keeps_only_multi_attribute_values(spark, fig1):
    pruned = build_graph(fig1, prune_unique=True)
    labels = set(pruned.value_labels)
    # the full Figure-1 lake's multi-attribute values ("2" repeats only
    # within T2.num, so it is pruned):
    assert labels == {"JAGUAR", "PUMA", "PANDA", "TOYOTA"}
    assert pruned.n_attrs == 12  # attribute universe unchanged
    assert (pruned.csr.degrees()[: pruned.n_values] >= 2).all()


def test_prune_false_keeps_all(spark, fig1):
    full = build_graph(fig1, prune_unique=False)
    assert full.n_values == 37


def test_edges_reference_valid_nodes(g31):
    nodes = set(range(g31.n_nodes))
    edges = g31.edges.toPandas()
    assert set(edges.value_id) <= nodes
    assert set(edges.attr_id) <= nodes
    assert (edges.value_id < g31.n_values).all()
    assert (edges.attr_id >= g31.n_values).all()


def test_edges_distinct(g31):
    e = g31.edges.toPandas()
    assert len(e) == len(e.drop_duplicates())


def test_build_graph_idempotent_counts(spark, fig1):
    g1 = build_graph(fig1, prune_unique=False)
    g2 = build_graph(fig1, prune_unique=False)
    assert (g1.n_values, g1.n_attrs, g1.n_edges) == (
        g2.n_values,
        g2.n_attrs,
        g2.n_edges,
    )
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(g1.csr.indices, g2.csr.indices)


def test_row_order_changes_neither_graph_nor_lcc_ranking(spark):
    cells = sb_lake(spark, scale=0.1, seed=0).cells
    pdf = cells.toPandas()
    order = np.random.default_rng(7).permutation(len(pdf))
    shuffled = spark.createDataFrame(
        pdf.iloc[order].reset_index(drop=True), schema=CELLS_SCHEMA
    )
    a, b = build_graph(cells), build_graph(shuffled)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.csr.indptr, b.csr.indptr)
    assert np.array_equal(a.csr.indices, b.csr.indices)

    def lcc_ranking(g):
        labeled = pd.DataFrame({"label": g.value_labels, "lcc": lcc_values(g)})
        return rank_frame(labeled, score_col="lcc", ascending=True)

    pd.testing.assert_frame_equal(lcc_ranking(a), lcc_ranking(b), check_exact=True)
