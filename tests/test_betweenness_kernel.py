"""Kernel tests for Brandes betweenness (repro.core.betweenness).

A brute-force reference implementation cross-checked on random graphs
(hypothesis), normalization, disconnected components, sampling, and
invariants of the dependency vector. The closed forms on standard graph
families are in ``test_betweenness_closed_forms``.
"""
from collections import defaultdict, deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.betweenness import (
    brandes_dependencies,
    sample_sources,
)
from repro.graph.csr import CSR, csr_from_arrays
from tests.fixtures import exact_bc, raw_bc


def _brute_force_bc(csr: CSR) -> np.ndarray:
    """Textbook Brandes with explicit predecessor lists (independent of
    the vectorized kernel's level-batched structure)."""
    n = csr.n
    bc = np.zeros(n)
    for s in range(n):
        dist = {s: 0}
        sigma = {s: 1.0}
        preds = defaultdict(list)
        order = [s]
        q = deque([s])
        while q:
            u = q.popleft()
            for w in map(int, csr.neighbors(u)):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    sigma[w] = 0.0
                    q.append(w)
                    order.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = defaultdict(float)
        for w in reversed(order):
            for p in preds[w]:
                delta[p] += sigma[p] / sigma[w] * (1 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc


def _path(n):
    return csr_from_arrays(np.arange(n - 1), np.arange(1, n), n)


def test_normalization_constant():
    csr = _path(5)
    raw = raw_bc(csr)
    norm = exact_bc(csr)
    assert np.allclose(norm, raw / (4 * 3))


def test_disconnected_components_independent():
    # two P3 components: middle of each has BC 2, independently.
    csr = csr_from_arrays(np.array([0, 1, 3, 4]), np.array([1, 2, 4, 5]), 6)
    bc = raw_bc(csr)
    assert np.allclose(bc, [0, 2, 0, 0, 2, 0])


def test_dependency_source_is_zero():
    csr = _path(6)
    for s in range(6):
        delta = brandes_dependencies(csr.indptr, csr.indices, s)
        assert delta[s] == 0.0


def test_dependency_sums_to_pairwise_paths():
    # sum_v delta_s(v) = sum over targets t of (#internal nodes on
    # shortest s-t paths weighted) — for a path graph P4 from endpoint:
    # delta = [0, 2, 1, 0] (t=2 contributes 1 at v=1; t=3 contributes at
    # v=1 and v=2).
    csr = _path(4)
    delta = brandes_dependencies(csr.indptr, csr.indices, 0)
    assert np.allclose(delta, [0, 2, 1, 0])


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    m = draw(st.integers(min_value=0, max_value=40))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(np.array)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(np.array)
    )
    if m == 0:
        src = np.array([], dtype=np.int64)
        dst = np.array([], dtype=np.int64)
    # drop self-loops (bipartite DomainNet graphs never have them)
    keep = src != dst
    return csr_from_arrays(src[keep], dst[keep], n), n


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_kernel_matches_brute_force(graph_n):
    csr, n = graph_n
    got = raw_bc(csr)
    ref = _brute_force_bc(csr)
    assert np.allclose(got, ref, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(random_graph())
def test_bc_nonnegative_and_endpoint_free(graph_n):
    csr, _ = graph_n
    bc = raw_bc(csr)
    assert (bc >= -1e-12).all()
    # degree-1 nodes never lie strictly inside a shortest path
    deg = csr.degrees()
    assert np.allclose(bc[deg <= 1], 0)


def test_sample_sources_uniform_distinct():
    csr = _path(10)
    s = sample_sources(csr, 5, seed=1)
    assert len(s) == len(set(s.tolist())) == 5
    assert set(s.tolist()) <= set(range(10))


def test_sample_sources_capped_at_n():
    csr = _path(4)
    assert len(sample_sources(csr, 100, seed=0)) == 4

