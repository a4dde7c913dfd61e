"""networkx as the BC oracle: exact Brandes, single-process and fanned
out over Spark, equals ``nx.betweenness_centrality`` on random
bipartite graphs, repeated pairs included. On graphs forced to contain
twins, the twin-weighted Spark BC also equals the unweighted kernel."""
import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.betweenness import (
    betweenness_exact,
    betweenness_spark,
    betweenness_values,
    dependency_sum,
)
from repro.graph.csr import twin_classes
from tests.fixtures import bipartite_graphs, twin_bipartite_graphs


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


@settings(max_examples=15, deadline=None)
@given(twin_bipartite_graphs(), st.data())
def test_twin_weighted_matches_unweighted(spark, graph, data):
    """One sweep per twin class, weighted by class size, is exact BC; and
    explicit sources that hit one class several times give the plain
    unweighted ``n / s`` estimate."""
    csr = graph.csr
    got = betweenness_values(spark, csr, normalized=True)
    assert np.allclose(got, betweenness_exact(csr, normalized=True), rtol=1e-12, atol=0)
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)

    cls = twin_classes(csr)
    biggest = np.flatnonzero(cls == np.bincount(cls).argmax())
    drawn = data.draw(st.lists(st.integers(0, csr.n - 1), max_size=2 * csr.n))
    sources = np.concatenate([drawn, biggest, biggest[:1]]).astype(np.int64)
    got = betweenness_values(spark, csr, sources=sources, normalized=False)
    ref = dependency_sum(csr.indptr, csr.indices, sources) * (csr.n / len(sources))
    assert np.allclose(got, ref, rtol=1e-12, atol=0)
