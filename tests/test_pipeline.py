"""End-to-end pipeline tests (repro.core.pipeline) on the paper's
running example, degenerate lakes, random small lakes against networkx,
and a small SB instance — the integration layer."""
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import rank_graph, rank_homographs
from repro.core.graph import build_graph
from repro.eval.metrics import metrics_at_k, topk_curve
from repro.graph import csr as csr_module
from repro.lakes.datalake import lake_from_tables
from repro.lakes.sb import sb_lake
from tests.fixtures import EXAMPLE31_TABLES


def test_figure1_bc_ranks_jaguar_first(spark):
    g = build_graph(lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False)
    top = rank_graph(spark, g, measure="bc").head(2)
    assert list(top.label) == ["JAGUAR", "PUMA"]


def test_figure1_lcc_ranks_jaguar_first(spark):
    g = build_graph(lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False)
    top = rank_graph(spark, g, measure="lcc").head(1)
    assert list(top.label) == ["JAGUAR"]


def test_twin_compression_built_once(spark, monkeypatch):
    """BC and then LCC on one graph share one twin compression."""
    compress, calls = csr_module.compress, []
    monkeypatch.setattr(
        csr_module, "compress", lambda csr: calls.append(csr) or compress(csr)
    )
    g = build_graph(lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False)
    for measure in ("bc", "lcc"):
        rank_graph(spark, g, measure=measure)
    assert [csr is g.csr for csr in calls] == [True]


def test_unknown_measure_raises(spark):
    lake = lake_from_tables(spark, EXAMPLE31_TABLES)
    g = build_graph(lake, prune_unique=False)
    with pytest.raises(ValueError, match="unknown measure"):
        rank_graph(spark, g, measure="pagerank")


def test_prune_shrinks_candidates(spark):
    lake = lake_from_tables(spark, EXAMPLE31_TABLES)
    g_full = build_graph(lake, prune_unique=False)
    g_pruned, ranked = rank_homographs(spark, lake, measure="bc")
    assert g_pruned.n_values < g_full.n_values
    assert ranked.count() == g_pruned.n_values


#: ``{name: (tables, whether the ranking holds the one value X)}``.
DEGENERATE_LAKES = {
    "empty": ({}, False),
    "all-pruned": ({"t": {"a": ["x"], "b": ["y"]}}, False),
    "one-homograph": ({"t": {"a": ["x"], "b": ["x"]}}, True),
}


@pytest.mark.parametrize(
    "measure,n_samples,x_score",
    [("bc", None, 1.0), ("bc", 0, 0.0), ("bc", 1000, 1.0), ("lcc", None, 1.0)],
)
@pytest.mark.parametrize("lake", DEGENERATE_LAKES)
def test_degenerate_lakes(spark, lake, measure, n_samples, x_score):
    """X on the path t.a – X – t.b lies on both ordered attribute pairs'
    only path (BC 1.0 normalized; 0.0 from no sources) and has no value
    neighbour (LCC fill 1.0)."""
    tables, has_x = DEGENERATE_LAKES[lake]
    _, ranked = rank_homographs(
        spark, lake_from_tables(spark, tables), measure=measure, n_samples=n_samples
    )
    got = [tuple(r) for r in ranked.orderBy("rank").collect()]
    assert got == ([("X", x_score, 1)] if has_x else [])


@st.composite
def small_lakes(draw):
    """``{table: {column: [values]}}`` over a few values, some cased or
    padded differently so that normalization merges them."""
    token = st.sampled_from(["a", "b", "c", "d", "e", " A", "b\u00a0", "\u3000C", ""])
    table = st.dictionaries(
        st.sampled_from(["c1", "c2", "c3"]), st.lists(token, max_size=5), min_size=1
    )
    return draw(st.dictionaries(st.sampled_from(["t1", "t2", "t3"]), table, min_size=1))


def _nx_scores(tables) -> tuple[dict, dict]:
    """networkx BC and Latapy LCC per value label of the pruned graph,
    normalizing with Python's ``str.strip().upper()``."""
    attrs_of = {}
    for t, cols in tables.items():
        for c, vals in cols.items():
            for v in filter(None, (v.strip().upper() for v in vals)):
                attrs_of.setdefault(v, set()).add(f"{t}.{c}")
    g = nx.Graph()
    g.add_nodes_from(("a", a) for attrs in attrs_of.values() for a in attrs)
    values = [("v", v) for v, attrs in attrs_of.items() if len(attrs) >= 2]
    g.add_edges_from((v, ("a", a)) for v in values for a in attrs_of[v[1]])
    bc = nx.betweenness_centrality(g, normalized=True)
    lcc = nx.bipartite.latapy_clustering(g, values, mode="dot")
    has_neighbor = {v: any(w != v for a in g[v] for w in g[a]) for v in values}
    return (
        {v: bc[(k, v)] for k, v in values},
        {v: lcc[(k, v)] if has_neighbor[(k, v)] else 1.0 for k, v in values},
    )


@settings(max_examples=15, deadline=None)
@given(small_lakes())
def test_scores_match_networkx(spark, tables):
    """Lake cells → normalize → graph → score → rank agrees with networkx
    on the same graph: BC with ``betweenness_centrality``, LCC with
    ``latapy_clustering(mode="dot")`` and the 1.0 fill."""
    lake = lake_from_tables(spark, tables)
    for measure, ref in zip(("bc", "lcc"), _nx_scores(tables)):
        _, ranked = rank_homographs(spark, lake, measure=measure)
        got = dict(ranked.select("label", measure).toPandas().itertuples(index=False))
        assert got.keys() == ref.keys()
        for label, score in ref.items():
            assert got[label] == pytest.approx(score, rel=0, abs=1e-9)


@pytest.fixture(scope="module")
def sb_small(spark):
    return sb_lake(spark, scale=0.15, seed=0)


@pytest.fixture(scope="module")
def sb_bc_curve(spark, sb_small):
    _, ranked = rank_homographs(spark, sb_small.cells, measure="bc")
    homs = set(sb_small.homographs)
    scored = ranked.withColumn(
        "is_homograph", ranked.label.isin(list(homs))
    )
    return topk_curve(scored, score_col="bc")


def test_sb_bc_finds_most_homographs(sb_bc_curve):
    m = metrics_at_k(sb_bc_curve, 55)
    # paper: 38/55 = 0.69 on Mockaroo SB; the synthetic SB is cleaner, so
    # require at least the paper's level.
    assert m["precision"] >= 0.69


def test_sb_bc_beats_lcc(spark, sb_small, sb_bc_curve):
    _, lcc_ranked = rank_homographs(spark, sb_small.cells, measure="lcc")
    homs = set(sb_small.homographs)
    lcc_curve = topk_curve(
        lcc_ranked.withColumn("is_homograph", lcc_ranked.label.isin(list(homs))),
        score_col="lcc",
    )
    bc_m = metrics_at_k(sb_bc_curve, 55)
    lcc_m = metrics_at_k(lcc_curve, 55)
    assert bc_m["precision"] > lcc_m["precision"]


def test_sampled_bc_close_to_exact_on_sb(spark, sb_small, sb_bc_curve):
    _, sampled = rank_homographs(
        spark, sb_small.cells, measure="bc", n_samples=800, seed=1
    )
    homs = set(sb_small.homographs)
    curve = topk_curve(
        sampled.withColumn("is_homograph", sampled.label.isin(list(homs))),
        score_col="bc",
    )
    exact_p = metrics_at_k(sb_bc_curve, 55)["precision"]
    approx_p = metrics_at_k(curve, 55)["precision"]
    assert approx_p >= exact_p - 0.25
