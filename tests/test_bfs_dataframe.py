"""The level-synchronous BFS that drives the Brandes kernel must agree
with networkx on distances and shortest-path counts (sigma) from each
source of the Example 3.1 graph."""
import networkx as nx
import numpy as np
import pytest

from repro.core.graph import build_graph
from repro.graph.csr import expand
from repro.lakes.datalake import lake_from_tables
from tests.fixtures import EXAMPLE31_TABLES


def _kernel_bfs(csr, source):
    """dist/sigma via the same level-sync logic used in Brandes."""
    n = csr.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n)
    dist[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source])
    d = 0
    while frontier.size:
        srcs, nbrs = expand(csr.indptr, csr.indices, frontier)
        new = np.unique(nbrs[dist[nbrs] == -1])
        dist[new] = d + 1
        on = dist[nbrs] == d + 1
        np.add.at(sigma, nbrs[on], sigma[srcs[on]])
        frontier = new
        d += 1
    return dist, sigma


@pytest.fixture(scope="module")
def g31(spark):
    return build_graph(
        lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False
    )


@pytest.mark.parametrize("source", [0, 3, 7, 11])
def test_bfs_matches_kernel(g31, source):
    g = nx.Graph()
    g.add_nodes_from(range(g31.n_nodes))
    g.add_edges_from(g31.edge_frame().itertuples(index=False))
    want_dist = nx.single_source_shortest_path_length(g, source)

    dist, sigma = _kernel_bfs(g31.csr, source)
    assert {u for u in range(g31.n_nodes) if dist[u] >= 0} == set(want_dist)
    for node, d in want_dist.items():
        assert dist[node] == d
        n_paths = sum(1 for _ in nx.all_shortest_paths(g, source, node))
        assert sigma[node] == pytest.approx(n_paths)
