"""networkx as the BC oracle: exact Brandes, single-process and fanned
out over Spark, equals ``nx.betweenness_centrality`` on random
bipartite graphs, repeated pairs included."""
import networkx as nx
import numpy as np
from hypothesis import given, settings

from repro.core.betweenness import betweenness_exact, betweenness_spark
from tests.fixtures import bipartite_graphs


def _nx_bc(graph) -> np.ndarray:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_nodes))
    g.add_edges_from(graph.edge_frame().itertuples(index=False))
    bc = nx.betweenness_centrality(g, normalized=True)
    return np.array([bc[u] for u in range(graph.n_nodes)])


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs())
def test_exact_matches_networkx(graph):
    got = betweenness_exact(graph.csr, normalized=True)
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(bipartite_graphs())
def test_spark_matches_networkx(spark, graph):
    pdf = betweenness_spark(spark, graph.csr, normalized=True).toPandas()
    got = np.zeros(graph.n_nodes)
    got[pdf["node_id"].to_numpy()] = pdf["bc"].to_numpy()
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)
