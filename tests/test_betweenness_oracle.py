"""networkx as the BC oracle: one source's Brandes dependencies on the
Example 3.1 graph equal networkx's single-source subset BC, and exact
Brandes, single-process and fanned out over Spark, equals
``nx.betweenness_centrality`` on random bipartite graphs, repeated pairs
included. On graphs forced to contain twins, the twin-weighted Spark BC
also equals the unweighted kernel."""
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.betweenness import (
    betweenness_exact,
    betweenness_spark,
    betweenness_values,
    brandes_dependencies,
)
from tests.fixtures import bipartite_graphs, twin_bipartite_graphs


def _nx_graph(graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_nodes))
    g.add_edges_from(graph.edge_frame().itertuples(index=False))
    return g


def _nx_bc(graph) -> np.ndarray:
    bc = nx.betweenness_centrality(_nx_graph(graph), normalized=True)
    return np.array([bc[u] for u in range(graph.n_nodes)])


@pytest.mark.parametrize("source", [0, 3, 7, 11])
def test_dependencies_match_networkx(g31, source):
    """``delta_s(v) = sum_t sigma_st(v) / sigma_st``; networkx halves
    subset BC on undirected graphs, hence the factor 2."""
    g = _nx_graph(g31)
    want = nx.betweenness_centrality_subset(
        g, [source], list(g.nodes), normalized=False
    )
    got = brandes_dependencies(g31.csr.indptr, g31.csr.indices, source)
    assert np.allclose(
        got, [2 * want[u] for u in range(g31.n_nodes)], rtol=0, atol=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs())
def test_exact_matches_networkx(graph):
    got = betweenness_exact(graph.csr, normalized=True)
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(bipartite_graphs())
def test_spark_matches_networkx(spark, graph):
    pdf = betweenness_spark(spark, graph.csr).toPandas()
    got = np.zeros(graph.n_nodes)
    got[pdf["node_id"].to_numpy()] = pdf["bc"].to_numpy()
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(twin_bipartite_graphs())
def test_twin_weighted_matches_unweighted(spark, graph):
    """One sweep per twin class, weighted by class size, is exact BC."""
    csr = graph.csr
    got = betweenness_values(spark, csr)
    assert np.allclose(got, betweenness_exact(csr, normalized=True), rtol=1e-12, atol=0)
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)
