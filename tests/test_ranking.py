"""Tests for score→label attachment and ranking (repro.core.ranking)."""
import pandas as pd

from repro.core.ranking import MEASURE_ASCENDING, attach_labels, rank_values


def test_measure_directions():
    assert MEASURE_ASCENDING == {"bc": False, "lcc": True}


def test_attach_labels_fills_missing(spark, g31):
    scores = spark.createDataFrame(
        pd.DataFrame({"node_id": [0, 1], "bc": [0.5, 0.25]}),
        schema="node_id long, bc double",
    )
    out = attach_labels(g31, scores, score_col="bc", fill=0.0).toPandas()
    assert len(out) == g31.n_values
    assert (out.bc == 0.0).sum() == g31.n_values - 2


def test_attach_labels_fill_value(spark, g31):
    scores = spark.createDataFrame(
        pd.DataFrame({"node_id": [0], "lcc": [0.3]}),
        schema="node_id long, lcc double",
    )
    out = attach_labels(g31, scores, score_col="lcc", fill=1.0).toPandas()
    assert set(out.lcc.round(6)) == {0.3, 1.0}


def test_rank_descending_and_ascending(spark):
    pdf = pd.DataFrame({"label": ["a", "b", "c"], "s": [0.1, 0.3, 0.2]})
    df = spark.createDataFrame(pdf)
    desc = rank_values(df, score_col="s", ascending=False).toPandas()
    assert list(desc.sort_values("rank").label) == ["b", "c", "a"]
    asc = rank_values(df, score_col="s", ascending=True).toPandas()
    assert list(asc.sort_values("rank").label) == ["a", "c", "b"]


def test_rank_tiebreak_by_label(spark):
    pdf = pd.DataFrame({"label": ["z", "a"], "s": [0.5, 0.5]})
    out = rank_values(
        spark.createDataFrame(pdf), score_col="s", ascending=False
    ).toPandas()
    assert list(out.sort_values("rank").label) == ["a", "z"]


def test_ranks_dense_one_based(spark):
    pdf = pd.DataFrame({"label": list("abcde"), "s": [5.0, 4.0, 3.0, 2.0, 1.0]})
    out = rank_values(
        spark.createDataFrame(pdf), score_col="s", ascending=False
    ).toPandas()
    assert sorted(out["rank"]) == [1, 2, 3, 4, 5]
