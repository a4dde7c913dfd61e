"""Distributed-BC tests: BC must agree with the unit-size sums on the
full graph (:func:`tests.fixtures.exact_bc`) and, on a
twin-rich graph, with networkx; the sampled estimator must behave; and
the scores must not depend on how many sources one multi-source pass
sweeps. Each test runs BC's sweeps in a Spark job and on the driver,
which must give bit-identical scores; a call at the driver limit runs
one Spark job, and one below it none."""
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import betweenness
from repro.core.betweenness import (
    CHUNKS,
    betweenness_spark,
    betweenness_values,
    brandes_dependencies,
    class_dependency_sum,
    sample_sources,
)
from repro.core.graph import build_graph
from repro.graph.csr import csr_from_arrays
from repro.lakes.datalake import lake_from_tables
from tests.fixtures import EXAMPLE31_TABLES, exact_bc, spark_jobs, twin_bipartite_graphs


def _random_csr(n=40, m=120, seed=3):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return csr_from_arrays(src[keep], dst[keep], n)


def _collect(df, n):
    out = np.zeros(n)
    for r in df.collect():
        out[r["node_id"]] = r["bc"]
    return out


def _both(monkeypatch, fn):
    """``fn()`` with BC's sweeps in a Spark job, then on the driver; the
    two results must be bit-identical."""
    monkeypatch.setattr(betweenness, "DRIVER_EDGE_VISITS", 0)
    on_spark = fn()
    monkeypatch.setattr(betweenness, "DRIVER_EDGE_VISITS", math.inf)
    on_driver = fn()
    assert np.array_equal(on_spark, on_driver)
    return on_driver


def test_spark_exact_matches_kernel(spark, monkeypatch):
    csr = _random_csr()
    got = _both(monkeypatch, lambda: _collect(betweenness_spark(spark, csr), csr.n))
    ref = exact_bc(csr)
    assert np.allclose(got, ref, atol=1e-12)


def test_all_sources_sampled_equals_exact(spark, monkeypatch):
    csr = _random_csr(seed=5)
    got = _both(monkeypatch, lambda: _collect(
        betweenness_spark(spark, csr, n_samples=csr.n, seed=0), csr.n
    ))
    ref = exact_bc(csr)
    assert np.allclose(got, ref, atol=1e-12)


def test_explicit_sources_subset(spark, monkeypatch):
    csr = _random_csr(seed=6)
    # half the sources: estimator = (n/s)·partial sums, normalized.
    sources = sample_sources(csr, csr.n // 2, seed=6)
    got = _both(monkeypatch, lambda: _collect(
        betweenness_spark(spark, csr, n_samples=len(sources), seed=6), csr.n
    ))
    partial = np.zeros(csr.n)
    for s in sources:
        partial += brandes_dependencies(csr.indptr, csr.indices, s)
    scale = csr.n / len(sources) / ((csr.n - 1) * (csr.n - 2))
    assert np.allclose(got, partial * scale, atol=1e-9)


def test_sampled_ranking_correlates_with_exact(spark, monkeypatch):
    csr = _random_csr(n=120, m=400, seed=7)
    exact = exact_bc(csr)
    approx = _both(monkeypatch, lambda: _collect(
        betweenness_spark(spark, csr, n_samples=60, seed=1), csr.n
    ))
    # Spearman rank correlation, computed by hand to avoid scipy import
    # issues: correlation of rank vectors.
    def ranks(x):
        order = np.argsort(x)
        r = np.empty_like(order, dtype=float)
        r[order] = np.arange(len(x))
        return r

    rho = np.corrcoef(ranks(exact), ranks(approx))[0, 1]
    assert rho > 0.7


def test_figure1_subgraph_bc_ordering(spark, monkeypatch):
    """Paper Example 3.6: BC(Jaguar) ≫ BC(Puma) > BC(Toyota)=BC(Panda)."""
    g = build_graph(
        lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False
    )
    bc = _both(monkeypatch, lambda: betweenness_values(spark, g.csr))
    labels = {label: i for i, label in enumerate(g.value_labels)}
    jag, puma = bc[labels["JAGUAR"]], bc[labels["PUMA"]]
    toyota, panda = bc[labels["TOYOTA"]], bc[labels["PANDA"]]
    assert jag > 5 * puma  # paper: 0.025 vs 0.003
    assert puma > toyota
    assert toyota == pytest.approx(panda)
    # single-attribute values have zero BC
    for v in ("LEMUR", "PELICAN", "APPLE", "FIAT"):
        assert bc[labels[v]] == pytest.approx(0.0)


def _twin_csr(n_values=60, n_attrs=8, seed=11):
    """Random bipartite graph whose values draw 1–3 of few attributes,
    so many values are twins."""
    rng = np.random.default_rng(seed)
    pairs = [(v, n_values + a) for v in range(n_values)
             for a in rng.choice(n_attrs, size=rng.integers(1, 4), replace=False)]
    src, dst = np.array(pairs).T
    return csr_from_arrays(src, dst, n_values + n_attrs)


def test_twin_graph_matches_networkx(spark, monkeypatch):
    """Exact BC on a graph with many twin classes equals networkx's, so
    the class sweep's size factors and twin credit are checked here
    against an independent reference."""
    csr = _twin_csr()
    assert csr.twins.graph.n < csr.n
    got = _both(monkeypatch, lambda: betweenness_values(spark, csr))
    g = nx.Graph()
    g.add_nodes_from(range(csr.n))
    g.add_edges_from(zip(np.repeat(np.arange(csr.n), csr.degrees()), csr.indices))
    want = nx.betweenness_centrality(g)
    assert np.allclose(got, [want[u] for u in range(csr.n)], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_samples", [None, 25])
def test_chunked_sum_bit_identical(spark, monkeypatch, n_samples):
    """BC adds the same class-kernel chunk partials in the same order as
    a single process, so it depends neither on the cluster's task count
    nor on where the chunks run. Each chunk holds twin classes, in
    first-occurrence source order, weighted by how many sources each
    class has; the class scores expand to nodes at the end."""
    csr = _twin_csr()
    if n_samples is None:
        sources = np.arange(csr.n)
    else:
        sources = sample_sources(csr, n_samples, seed=2)
    got = _both(
        monkeypatch, lambda: betweenness_values(spark, csr, n_samples=n_samples, seed=2)
    )
    cls, size, graph = csr.twins
    slot, reps, weights = {}, [], []
    for s in sources:
        if cls[s] not in slot:
            slot[cls[s]] = len(reps)
            reps.append(cls[s])
            weights.append(0.0)
        weights[slot[cls[s]]] += 1.0
    assert len(reps) < len(sources)
    reps, weights = np.array(reps), np.array(weights)
    ref = np.zeros(graph.n)
    for part in np.array_split(np.arange(len(reps)), min(CHUNKS, len(reps))):
        ref += class_dependency_sum(
            graph.indptr, graph.indices, size, reps[part], weights[part]
        )
    ref = ref[cls] * (csr.n / len(sources))
    assert np.array_equal(got, ref / float((csr.n - 1) * (csr.n - 2)))


def _visits(csr, n_samples, seed):
    """Sweeps × class-graph directed edges of one BC call."""
    cls, _, graph = csr.twins
    sweeps = len(np.unique(cls[sample_sources(csr, n_samples, seed=seed)]))
    return sweeps * len(graph.indices)


def test_one_spark_job(spark, monkeypatch):
    """A BC call at the driver limit is one Spark job: no shuffle stage,
    no second collect."""
    csr = _random_csr(seed=10)
    monkeypatch.setattr(betweenness, "DRIVER_EDGE_VISITS", _visits(csr, 20, 0))
    jobs = spark_jobs(
        spark, "test_one_spark_job",
        lambda: betweenness_values(spark, csr, n_samples=20),
    )
    assert jobs == 1


def test_no_spark_job_below_driver_limit(spark, monkeypatch):
    """A BC call just below the driver limit runs no Spark job."""
    csr = _random_csr(seed=10)
    monkeypatch.setattr(betweenness, "DRIVER_EDGE_VISITS", _visits(csr, 20, 0) + 1)
    jobs = spark_jobs(
        spark, "test_no_spark_job_below_driver_limit",
        lambda: betweenness_values(spark, csr, n_samples=20),
    )
    assert jobs == 0


def test_empty_sources_yields_empty(spark, monkeypatch):
    csr = _random_csr(seed=9)
    bc = _both(monkeypatch, lambda: betweenness_values(spark, csr, n_samples=0))
    assert not bc.any()
    assert betweenness_spark(spark, csr, n_samples=0).count() == 0


@st.composite
def _split_twin_csrs(draw):
    """Two :func:`twin_bipartite_graphs` side by side and 1–3 isolated
    nodes, with at least one edge: a class graph of at least two
    connected components, one of them the class of isolated nodes."""
    parts = [draw(twin_bipartite_graphs()).csr for _ in range(2)]
    src, dst, n = [], [], 0
    for csr in parts:
        src.append(n + np.repeat(np.arange(csr.n), csr.degrees()))
        dst.append(n + csr.indices)
        n += csr.n
    csr = csr_from_arrays(
        np.concatenate(src), np.concatenate(dst), n + draw(st.integers(1, 3))
    )
    assume(len(csr.indices))
    return csr


def _slots(k, s):
    """``SLOTS`` values that make a ``k``-class graph sweep 1, 2, 3 and
    all ``s`` of its sources per pass."""
    return (k, 2 * k, 3 * k, s * k)


@settings(max_examples=100, deadline=None)
@given(_split_twin_csrs(), st.data())
def test_batch_size_invariant_sum(csr, data):
    """The weighted sum over class sources is bit-identical however many
    sources each multi-source pass sweeps."""
    _, size, graph = csr.twins
    order = data.draw(st.permutations(range(graph.n)))
    sources = np.array(order[: data.draw(st.integers(1, graph.n))])
    weights = np.array(data.draw(st.lists(
        st.integers(1, 9), min_size=len(sources), max_size=len(sources)
    )), dtype=np.float64)
    sums = []
    with pytest.MonkeyPatch.context() as mp:
        for slots in _slots(graph.n, len(sources)):
            mp.setattr(betweenness, "SLOTS", slots)
            sums.append(class_dependency_sum(
                graph.indptr, graph.indices, size, sources, weights
            ))
    for got in sums[1:]:
        assert np.array_equal(got, sums[0])


@settings(max_examples=10, deadline=None)
@given(_split_twin_csrs(), st.sampled_from([None, 5]))
def test_batch_size_invariant_bc(spark, csr, n_samples):
    """BC is bit-identical across passes of 1, 2, 3 and all sources of a
    chunk, on the driver and in a Spark job. Two chunks leave each chunk
    several sources to batch. Spark's workers import the module afresh
    and sweep with the default ``SLOTS``; ``_both`` equates them with
    the driver's."""
    k = csr.twins.graph.n
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betweenness, "CHUNKS", 2)
        for slots in _slots(k, csr.n):
            mp.setattr(betweenness, "SLOTS", slots)
            runs.append(_both(mp, lambda: betweenness_values(
                spark, csr, n_samples=n_samples, seed=4
            )))
    for got in runs[1:]:
        assert np.array_equal(got, runs[0])
