"""LCC tests (repro.core.lcc) — including the paper's Example 3.6 exact
values, networkx's Latapy clustering as an oracle on random bipartite
graphs, and a full DuckDB-oracle re-derivation of the measure in SQL."""
from unittest.mock import patch

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core import lcc
from repro.core.graph import build_graph
from repro.core.lcc import lcc_scores, lcc_values
from repro.lakes.datalake import lake_from_tables
from repro.oracle import assert_equivalent
from tests.fixtures import EXAMPLE36_LCC, bipartite_graphs, twin_bipartite_graphs


@pytest.fixture(scope="module")
def lcc31(g31):
    return dict(zip(g31.value_labels, lcc_values(g31)))


@pytest.mark.parametrize("label,expected", sorted(EXAMPLE36_LCC.items()))
def test_example36_exact_values(lcc31, label, expected):
    """Paper Example 3.6: LCC(Jaguar)=0.36, Puma=0.43, Toyota=Panda=0.46."""
    assert lcc31[label] == pytest.approx(expected, abs=1e-9)


def test_homographs_have_lowest_lcc(lcc31):
    """Hypothesis 3.4 on the running example."""
    assert lcc31["JAGUAR"] < lcc31["PUMA"] < lcc31["TOYOTA"]


def test_all_value_nodes_scored(g31):
    assert lcc_scores(g31).count() == g31.n_values


def test_lcc_range(g31):
    scores = lcc_scores(g31).toPandas()
    assert ((scores.lcc >= 0) & (scores.lcc <= 1)).all()


def test_isolated_value_filled_with_one(spark):
    # value "solo" shares its only attribute with nobody.
    lake = lake_from_tables(
        spark, {"A": {"x": ["solo"]}, "B": {"y": ["a", "b"], "z": ["a", "b"]}}
    )
    g = build_graph(lake, prune_unique=False)
    got = dict(zip(g.value_labels, lcc_values(g)))
    assert got["SOLO"] == 1.0
    # a and b share both attributes: Jaccard 1 → LCC 1.
    assert got["A"] == pytest.approx(1.0)
    assert got["B"] == pytest.approx(1.0)


@settings(max_examples=150, deadline=None)
@given(st.one_of(bipartite_graphs(), twin_bipartite_graphs()))
def test_lcc_matches_networkx_latapy(graph):
    """Equation (1) is Latapy's bipartite clustering (mode "dot"); values
    without a value-neighbor keep the documented 1.0 fill. On graphs with
    twin values and twin attributes this checks the class walk's weights,
    and twins tie exactly."""
    got = lcc_values(graph)
    classes = graph.csr.twins.classes[: graph.n_values]
    assert np.array_equal(got, got[np.unique(classes, return_index=True)[1]][classes])
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_nodes))
    g.add_edges_from(graph.edge_frame().itertuples(index=False))
    ref = nx.bipartite.latapy_clustering(g, range(graph.n_values), mode="dot")
    for u in range(graph.n_values):
        has_neighbor = any(w != u for a in g[u] for w in g[a])
        assert got[u] == pytest.approx(ref[u] if has_neighbor else 1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.one_of(bipartite_graphs(), twin_bipartite_graphs()))
def test_lcc_blocks_agree(graph):
    """Blocks of one value class each give the same scores as one block."""
    whole = lcc_values(graph)
    with patch.object(lcc, "BLOCK_PATHS", 1):
        assert np.array_equal(lcc_values(graph), whole)


def test_lcc_oracle_sql(spark, g31):
    """Re-derive Equation (1) in DuckDB SQL over the edge list."""
    got = lcc_scores(g31).select("node_id", F.round("lcc", 6).alias("lcc"))
    edges = g31.edges.toPandas()
    assert_equivalent(
        got,
        """
        WITH deg AS (
            SELECT value_id, COUNT(*) AS d FROM edges GROUP BY value_id
        ),
        pairs AS (
            SELECT a.value_id AS v, b.value_id AS w, COUNT(*) AS inter
            FROM edges a JOIN edges b ON a.attr_id = b.attr_id
            WHERE a.value_id < b.value_id
            GROUP BY 1, 2
        ),
        jac AS (
            SELECT p.v, p.w,
                   CAST(p.inter AS DOUBLE) / (dv.d + dw.d - p.inter) AS j
            FROM pairs p
            JOIN deg dv ON dv.value_id = p.v
            JOIN deg dw ON dw.value_id = p.w
        ),
        sym AS (
            SELECT v AS node_id, j FROM jac
            UNION ALL
            SELECT w AS node_id, j FROM jac
        )
        SELECT d.value_id AS node_id,
               ROUND(COALESCE(AVG(s.j), 1.0), 6) AS lcc
        FROM deg d LEFT JOIN sym s ON s.node_id = d.value_id
        GROUP BY d.value_id
        """,
        edges=edges,
    )
