"""Tests for the CSR adjacency substrate (repro.graph.csr)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import build_graph
from repro.graph.csr import csr_from_arrays, csr_from_edges, twin_classes
from repro.lakes.datalake import lake_from_tables
from tests.fixtures import EXAMPLE31_TABLES, bipartite_graphs, twin_bipartite_graphs


def test_single_edge():
    csr = csr_from_arrays(np.array([0]), np.array([1]), 2)
    assert csr.n == 2
    assert csr.n_undirected_edges == 1
    assert list(csr.neighbors(0)) == [1]
    assert list(csr.neighbors(1)) == [0]


def test_triangle_degrees():
    csr = csr_from_arrays(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
    assert list(csr.degrees()) == [2, 2, 2]


def test_isolated_nodes():
    csr = csr_from_arrays(np.array([0]), np.array([1]), 5)
    assert csr.n == 5
    for u in (2, 3, 4):
        assert len(csr.neighbors(u)) == 0
    assert list(csr.degrees()) == [1, 1, 0, 0, 0]


def _random_pairs(rng, n, m):
    """``m`` random loop-free pairs over ``n`` nodes, repeats likely."""
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return src[keep], dst[keep]


def _n_distinct(src, dst) -> int:
    return len({frozenset(p) for p in zip(src.tolist(), dst.tolist())})


def test_symmetry_random():
    rng = np.random.default_rng(0)
    n = 30
    src, dst = _random_pairs(rng, n, 80)
    csr = csr_from_arrays(src, dst, n)
    # undirected: u in N(v) iff v in N(u), each once
    for u in range(n):
        for v in csr.neighbors(u):
            assert (csr.neighbors(int(v)) == u).sum() == 1
    assert len(csr.indices) == 2 * _n_distinct(src, dst)
    assert csr.indptr[-1] == len(csr.indices)


def test_csr_from_edges_matches_graph(spark):
    g = build_graph(lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False)
    csr = csr_from_edges(g.edges, g.n_nodes)
    assert csr.n == 12
    assert csr.n_undirected_edges == 14
    # the Spark edges view round-trips to the graph's own CSR
    assert np.array_equal(csr.indptr, g.csr.indptr)
    assert np.array_equal(csr.indices, g.csr.indices)


def test_neighbors_sorted_and_order_free():
    rng = np.random.default_rng(2)
    src = rng.integers(0, 15, 60)
    dst = rng.integers(0, 15, 60)
    csr = csr_from_arrays(src, dst, 15)
    perm = rng.permutation(60)
    again = csr_from_arrays(dst[perm], src[perm], 15)
    assert np.array_equal(csr.indptr, again.indptr)
    assert np.array_equal(csr.indices, again.indices)
    for u in range(15):
        assert (np.diff(csr.neighbors(u)) >= 0).all()


def test_degrees_sum_to_twice_edges():
    rng = np.random.default_rng(1)
    src, dst = _random_pairs(rng, 20, 50)
    csr = csr_from_arrays(src, dst, 20)
    assert csr.degrees().sum() == 2 * _n_distinct(src, dst)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_no_edges(n):
    csr = csr_from_arrays(np.array([], dtype=np.int64), np.array([], dtype=np.int64), n)
    assert csr.n == n
    assert csr.n_undirected_edges == 0
    assert list(csr.degrees()) == [0] * n


@settings(max_examples=200, deadline=None)
@given(st.one_of(bipartite_graphs(), twin_bipartite_graphs()))
def test_twin_classes_match_neighbour_sets(graph):
    """One class per distinct neighbour set, isolated nodes included,
    numbered in order of each class's smallest node."""
    csr = graph.csr
    ids: dict = {}
    ref = [ids.setdefault(frozenset(csr.neighbors(u).tolist()), len(ids))
           for u in range(csr.n)]
    assert np.array_equal(twin_classes(csr), ref)
