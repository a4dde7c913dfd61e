"""Parametrized closed-form BC checks on standard graph families —
cheap, Spark-free guards for the Brandes kernel."""
import numpy as np
import pytest

from repro.graph.csr import csr_from_arrays
from tests.fixtures import raw_bc


def _path(n):
    return csr_from_arrays(np.arange(n - 1), np.arange(1, n), n)


def _star(n):
    return csr_from_arrays(np.zeros(n - 1, int), np.arange(1, n), n)


def _cycle(n):
    return csr_from_arrays(np.arange(n), (np.arange(n) + 1) % n, n)


def _complete(n):
    src, dst = zip(*[(i, j) for i in range(n) for j in range(i + 1, n)])
    return csr_from_arrays(np.array(src), np.array(dst), n)


def _complete_bipartite(a, b):
    src, dst = zip(*[(i, a + j) for i in range(a) for j in range(b)])
    return csr_from_arrays(np.array(src), np.array(dst), a + b)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_path_graphs(n):
    bc = raw_bc(_path(n))
    expected = [2 * i * (n - 1 - i) for i in range(n)]
    assert np.allclose(bc, expected)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 10])
def test_star_graphs(n):
    bc = raw_bc(_star(n))
    leaves = n - 1
    assert bc[0] == pytest.approx(leaves * (leaves - 1))
    assert np.allclose(bc[1:], 0)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_complete_graphs(n):
    assert np.allclose(raw_bc(_complete(n)), 0)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_cycle_graphs_symmetric(n):
    bc = raw_bc(_cycle(n))
    assert np.allclose(bc, bc[0])
    assert bc[0] > 0


@pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 3), (1, 4)])
def test_complete_bipartite_sides_uniform(a, b):
    """K_{a,b}: nodes within one side are interchangeable — equal BC —
    and (for a ≤ b) the smaller side carries ≥ the larger side's BC."""
    bc = raw_bc(_complete_bipartite(a, b))
    assert np.allclose(bc[:a], bc[0])
    assert np.allclose(bc[a:], bc[a])
    if a < b:
        assert bc[0] > bc[a] - 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_tiny_graphs_zero(n):
    bc = raw_bc(_path(n))
    if n == 2:
        assert np.allclose(bc, 0)
    else:
        assert bc[1] == pytest.approx(2)
