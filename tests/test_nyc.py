"""Tests for the scalability lake + subgraph extraction (repro.lakes.nyc)."""
import numpy as np
import pytest

from repro.core.graph import build_graph
from repro.lakes.datalake import lake_stats
from repro.lakes.nyc import attribute_induced_subgraph, nyc_lake


@pytest.fixture(scope="module")
def small_nyc(spark):
    return nyc_lake(spark, sf=0.01, seed=1)


def test_nyc_lake_generates(spark, small_nyc):
    stats = lake_stats(small_nyc.cells)
    assert stats["n_values"] > 100
    assert stats["n_attrs"] > 10


def test_nyc_scales_with_sf(spark, small_nyc):
    bigger = nyc_lake(spark, sf=0.03, seed=1)
    assert lake_stats(bigger.cells)["n_values"] > lake_stats(small_nyc.cells)["n_values"]


@pytest.fixture(scope="module")
def edges_pdf(spark, small_nyc):
    g = build_graph(small_nyc.cells, prune_unique=True)
    return g.edges.toPandas()


@pytest.mark.parametrize("target", [50, 200])
def test_subgraph_reaches_target_edges(edges_pdf, target):
    csr = attribute_induced_subgraph(edges_pdf, target, seed=0)
    # within the margin of the last attribute added (footnote 9)
    max_attr = edges_pdf.groupby("attr_id").size().max()
    assert target <= csr.n_undirected_edges <= target + max_attr


def test_subgraph_is_valid_csr(edges_pdf):
    csr = attribute_induced_subgraph(edges_pdf, 100, seed=1)
    assert csr.indptr[-1] == len(csr.indices)
    assert (csr.indices < csr.n).all()
    # symmetric: total degree is twice the edge count
    assert csr.degrees().sum() == 2 * csr.n_undirected_edges


@pytest.mark.parametrize("seed,target", [(0, 50), (4, 300)])
def test_subgraph_matches_loop_reference(edges_pdf, seed, target):
    """Footnote 9 as a loop: add shuffled attributes until the target."""
    attrs = np.unique(edges_pdf["attr_id"])
    np.random.default_rng(seed).shuffle(attrs)
    sizes = edges_pdf.groupby("attr_id").size()
    chosen, total = [], 0
    for a in attrs:
        chosen.append(a)
        total += sizes[a]
        if total >= target:
            break
    sub = edges_pdf[edges_pdf["attr_id"].isin(chosen)]
    csr = attribute_induced_subgraph(edges_pdf, target, seed=seed)
    assert csr.n == sub["value_id"].nunique() + len(chosen)
    assert csr.n_undirected_edges == len(sub)


def test_subgraph_deterministic(edges_pdf):
    a = attribute_induced_subgraph(edges_pdf, 100, seed=2)
    b = attribute_induced_subgraph(edges_pdf, 100, seed=2)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def test_subgraph_larger_target_more_edges(edges_pdf):
    small = attribute_induced_subgraph(edges_pdf, 50, seed=3)
    large = attribute_induced_subgraph(edges_pdf, 500, seed=3)
    assert large.n_undirected_edges > small.n_undirected_edges
