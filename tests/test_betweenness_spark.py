"""Distributed-BC tests: the Spark job must agree exactly with the
single-process kernel, and the sampled estimator must behave."""
import numpy as np
import pytest

from repro.core.betweenness import (
    CHUNKS,
    betweenness_exact,
    betweenness_spark,
    betweenness_values,
    dependency_sum,
    sample_sources,
)
from repro.core.graph import build_graph
from repro.graph.csr import csr_from_arrays, csr_from_edges, twin_classes
from repro.lakes.datalake import lake_from_tables
from tests.fixtures import EXAMPLE31_TABLES


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


def test_spark_exact_matches_kernel(spark):
    csr = _random_csr()
    got = _collect(betweenness_spark(spark, csr, normalized=True), csr.n)
    ref = betweenness_exact(csr, normalized=True)
    assert np.allclose(got, ref, atol=1e-12)


def test_spark_exact_raw_matches_kernel(spark):
    csr = _random_csr(seed=4)
    got = _collect(betweenness_spark(spark, csr, normalized=False), csr.n)
    ref = betweenness_exact(csr, normalized=False)
    assert np.allclose(got, ref, atol=1e-12)


def test_all_sources_sampled_equals_exact(spark):
    csr = _random_csr(seed=5)
    got = _collect(betweenness_spark(spark, csr, n_samples=csr.n, seed=0), csr.n)
    ref = betweenness_exact(csr, normalized=True)
    assert np.allclose(got, ref, atol=1e-12)


def test_explicit_sources_subset(spark):
    csr = _random_csr(seed=6)
    # half the sources, explicitly: estimator = (n/s)·partial sums.
    sources = list(range(0, csr.n, 2))
    got = _collect(
        betweenness_spark(spark, csr, sources=sources, normalized=False), csr.n
    )
    from repro.core.betweenness import brandes_dependencies

    partial = np.zeros(csr.n)
    for s in sources:
        partial += brandes_dependencies(csr.indptr, csr.indices, s)
    assert np.allclose(got, partial * (csr.n / len(sources)), atol=1e-9)


def test_sampled_ranking_correlates_with_exact(spark):
    csr = _random_csr(n=120, m=400, seed=7)
    exact = betweenness_exact(csr, normalized=True)
    approx = _collect(betweenness_spark(spark, csr, n_samples=60, seed=1), csr.n)
    # Spearman rank correlation, computed by hand to avoid scipy import
    # issues: correlation of rank vectors.
    def ranks(x):
        order = np.argsort(x)
        r = np.empty_like(order, dtype=float)
        r[order] = np.arange(len(x))
        return r

    rho = np.corrcoef(ranks(exact), ranks(approx))[0, 1]
    assert rho > 0.7


def test_figure1_subgraph_bc_ordering(spark):
    """Paper Example 3.6: BC(Jaguar) ≫ BC(Puma) > BC(Toyota)=BC(Panda)."""
    g = build_graph(
        lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False
    )
    csr = csr_from_edges(g.edges, g.n_nodes)
    bc = betweenness_exact(csr, normalized=True)
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


@pytest.mark.parametrize("n_samples", [None, 25])
def test_chunked_sum_bit_identical(spark, n_samples):
    """The Spark job adds the same chunk partials in the same order as a
    single process, so BC does not depend on the cluster's task count.
    Each chunk holds twin-class representatives, in first-occurrence
    source order, weighted by how many sources their class has."""
    csr = _twin_csr()
    if n_samples is None:
        sources = np.arange(csr.n)
    else:
        sources = sample_sources(csr, n_samples, seed=2)
    got = betweenness_values(
        spark, csr, n_samples=n_samples, seed=2, normalized=False
    )
    cls = twin_classes(csr)
    slot, reps, weights = {}, [], []
    for s in sources:
        if cls[s] not in slot:
            slot[cls[s]] = len(reps)
            reps.append(s)
            weights.append(0.0)
        weights[slot[cls[s]]] += 1.0
    assert len(reps) < len(sources)
    reps, weights = np.array(reps), np.array(weights)
    ref = np.zeros(csr.n)
    for part in np.array_split(np.arange(len(reps)), min(CHUNKS, len(reps))):
        ref += dependency_sum(csr.indptr, csr.indices, reps[part], weights[part])
    assert np.array_equal(got, ref * (csr.n / len(sources)))


def test_one_spark_job(spark):
    """A BC call is one Spark job: no shuffle stage, no second collect."""
    sc = spark.sparkContext
    sc.setJobGroup("test_one_spark_job", "one BC call")
    try:
        betweenness_values(spark, _random_csr(seed=10), n_samples=20)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup("test_one_spark_job")) == 1


def test_empty_sources_yields_empty(spark):
    csr = _random_csr(seed=9)
    out = betweenness_spark(spark, csr, sources=[], normalized=False)
    assert out.count() == 0
