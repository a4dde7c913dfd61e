"""networkx as the BC oracle: each source's Brandes dependencies on the
full graph equal networkx's single-source subset BC, on the Example 3.1
graph and from every source of random bipartite graphs, twins included.
Exact BC, as the unit-size sum on the driver and through
:func:`betweenness_values`, equals ``nx.betweenness_centrality`` on
random bipartite graphs, repeated pairs included, and on a generated SB
lake. On graphs forced to contain twins and isolated nodes, the
class-graph BC equals the unit-size sum and the twin-weighted sum of
full-graph sweeps, and sampled BC averages to exact BC over every
source set."""
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import betweenness
from repro.core.betweenness import (
    betweenness_spark,
    betweenness_values,
    brandes_dependencies,
)
from repro.core.graph import build_graph
from repro.graph.csr import CSR, csr_from_arrays
from repro.lakes.sb import sb_lake
from tests.fixtures import bipartite_graphs, exact_bc, twin_bipartite_graphs


def _nx_graph(graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n_nodes))
    g.add_edges_from(graph.edge_frame().itertuples(index=False))
    return g


def _nx_bc(graph) -> np.ndarray:
    bc = nx.betweenness_centrality(_nx_graph(graph))
    return np.array([bc[u] for u in range(graph.n_nodes)])


def _assert_dependencies_match(graph, sources):
    """``delta_s(v) = sum_t sigma_st(v) / sigma_st``; networkx halves
    subset BC on undirected graphs, hence the factor 2."""
    g = _nx_graph(graph)
    for source in sources:
        want = nx.betweenness_centrality_subset(
            g, [source], list(g.nodes), normalized=False
        )
        got = brandes_dependencies(graph.csr.indptr, graph.csr.indices, source)
        assert np.allclose(
            got, [2 * want[u] for u in range(graph.n_nodes)], rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("source", [0, 3, 7, 11])
def test_dependencies_match_networkx(g31, source):
    _assert_dependencies_match(g31, [source])


@settings(max_examples=100, deadline=None)
@given(st.one_of(bipartite_graphs(), twin_bipartite_graphs()))
def test_dependencies_match_networkx_every_source(graph):
    """With unit sizes the twin term is zero: each twin of the source
    is an ordinary node at distance 2."""
    _assert_dependencies_match(graph, range(graph.n_nodes))


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs())
def test_exact_matches_networkx(graph):
    got = exact_bc(graph.csr)
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(bipartite_graphs())
def test_spark_matches_networkx(spark, graph):
    """Small graphs sweep on the driver; this one forces the Spark job."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betweenness, "DRIVER_EDGE_VISITS", 0)
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
    assert np.allclose(got, exact_bc(csr), rtol=1e-12, atol=0)
    assert np.allclose(got, _nx_bc(graph), rtol=0, atol=1e-9)


def test_generated_lake_matches_networkx(spark):
    """End to end on a generated lake: SB at scale 0.1 has 1,170 nodes
    in 147 twin classes."""
    graph = build_graph(sb_lake(spark, scale=0.1, seed=0).cells)
    assert (graph.n_nodes, graph.csr.twins.graph.n) == (1170, 147)
    got = betweenness_values(spark, graph.csr)
    assert np.allclose(got, _nx_bc(graph), rtol=1e-12, atol=0)


def _with_isolated(graph, extra: int) -> CSR:
    """``graph``'s CSR with ``extra`` isolated nodes appended."""
    csr = graph.csr
    return CSR(np.r_[csr.indptr, np.full(extra, csr.indptr[-1])], csr.indices)


def _twin_weighted_sum(csr: CSR, sources: np.ndarray) -> np.ndarray:
    """Normalized BC as full-graph sweeps, one per twin class of
    ``sources`` from its first source, weighted by its source count."""
    cls = csr.twins.classes
    _, first, counts = np.unique(cls[sources], return_index=True, return_counts=True)
    acc = np.zeros(csr.n)
    for i in np.argsort(first):
        acc += counts[i] * brandes_dependencies(
            csr.indptr, csr.indices, int(sources[first[i]])
        )
    acc *= csr.n / len(sources)
    return acc / float((csr.n - 1) * (csr.n - 2))


@settings(max_examples=40, deadline=None)
@given(twin_bipartite_graphs(), st.integers(1, 3), st.data())
def test_class_graph_matches_full_graph(spark, graph, extra, data):
    """Sweeps on the class graph equal twin-weighted sweeps on the full
    graph, exact and sampled, with isolated nodes; twins tie exactly.
    The class of isolated nodes divides by no zero degree."""
    csr = _with_isolated(graph, extra)
    n_samples = data.draw(st.one_of(st.none(), st.integers(1, csr.n)))
    with np.errstate(divide="raise", invalid="raise"):
        got = betweenness_values(spark, csr, n_samples=n_samples, seed=3)
    sources = (
        np.arange(csr.n) if n_samples is None
        else betweenness.sample_sources(csr, n_samples, seed=3)
    )
    assert np.allclose(got, _twin_weighted_sum(csr, sources), rtol=1e-12, atol=0)
    cls = csr.twins.classes
    assert np.array_equal(got, got[np.unique(cls, return_index=True)[1]][cls])


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_sampled_bc_unbiased(spark, monkeypatch, s):
    """The mean of the sampled estimator over all C(n, s) source sets is
    exact BC, on a twin-rich graph with an isolated node."""
    v = np.array([0, 0, 1, 1, 2, 2, 3, 4, 4, 5, 5, 6])
    a = np.array([7, 8, 7, 8, 7, 8, 8, 9, 10, 9, 10, 10])
    csr = csr_from_arrays(v, a, 12)  # node 11 is isolated
    assert csr.twins.graph.n == 9
    sets = list(combinations(range(csr.n), s))
    monkeypatch.setattr(
        betweenness, "sample_sources", lambda csr, n, *, seed: np.array(sets[seed])
    )
    mean = sum(
        betweenness_values(spark, csr, n_samples=s, seed=i) for i in range(len(sets))
    ) / len(sets)
    assert np.allclose(mean, exact_bc(csr), rtol=1e-12, atol=0)
