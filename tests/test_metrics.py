"""Tests for repro.eval.metrics (top-k curves, P/R/F1). The ``scored``
fixture is a ranking as a Spark DataFrame, which ``topk_curve``
collects; the order and empty-truth tests also pass pandas frames.
Ranking itself (direction, ties by label) is ``rank_frame``'s, tested in
``test_ranking``."""
import pandas as pd
import pytest

from repro.eval.metrics import best_f1, hits_in_topk, metrics_at_k, topk_curve


@pytest.fixture(scope="module")
def scored(spark):
    pdf = pd.DataFrame(
        {
            "label": ["a", "b", "c", "d", "e", "f"],
            "score": [0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
            "is_homograph": [True, True, False, True, False, False],
            "rank": [1, 2, 3, 4, 5, 6],
        }
    )
    return spark.createDataFrame(pdf)


def test_curve_ranks_descending(scored):
    curve = topk_curve(scored, score_col="score")
    assert list(curve.label) == ["a", "b", "c", "d", "e", "f"]
    assert list(curve["rank"]) == [1, 2, 3, 4, 5, 6]


def test_curve_follows_rank_not_row_order(spark, scored):
    """Rows that arrive out of rank order, shuffled in pandas or spread
    over several Spark partitions, give the curve of the rank column."""
    pdf = scored.toPandas()
    # Scores that disagree with the ranks: the curve must not re-rank.
    pdf["score"] = pdf["score"].to_numpy()[::-1]
    want = list(pdf.label)
    shuffled = pdf.sample(frac=1, random_state=3)
    spread = spark.createDataFrame(shuffled).repartition(3)
    assert list(shuffled.label) != want and list(spread.toPandas().label) != want
    for ranking in (shuffled, spread):
        curve = topk_curve(ranking, score_col="score")
        assert list(curve.label) == want
        assert list(curve["rank"]) == [1, 2, 3, 4, 5, 6]
        assert list(curve["tp"]) == [1, 2, 2, 3, 3, 3]


def test_cumulative_precision_recall(scored):
    curve = topk_curve(scored, score_col="score").set_index("rank")
    assert curve.loc[1, "precision"] == 1.0
    assert curve.loc[3, "precision"] == pytest.approx(2 / 3)
    assert curve.loc[4, "precision"] == pytest.approx(3 / 4)
    assert curve.loc[4, "recall"] == pytest.approx(1.0)
    assert curve.loc[6, "recall"] == pytest.approx(1.0)


def test_f1_definition(scored):
    curve = topk_curve(scored, score_col="score").set_index("rank")
    p, r = curve.loc[3, "precision"], curve.loc[3, "recall"]
    assert curve.loc[3, "f1"] == pytest.approx(2 * p * r / (p + r))


def test_metrics_at_k(scored):
    curve = topk_curve(scored, score_col="score")
    m = metrics_at_k(curve, 3)
    assert m == {
        "k": 3,
        "precision": pytest.approx(2 / 3),
        "recall": pytest.approx(2 / 3),
        "f1": pytest.approx(2 / 3),
        "tp": 2,
    }


def test_metrics_at_k_beyond_candidates(scored):
    # k beyond list size: precision re-based on k slots (paper's D4@55).
    curve = topk_curve(scored, score_col="score")
    m = metrics_at_k(curve, 10)
    assert m["tp"] == 3
    assert m["precision"] == pytest.approx(3 / 10)
    assert m["recall"] == pytest.approx(1.0)


def test_best_f1(scored):
    b = best_f1(topk_curve(scored, score_col="score"))
    assert b["k"] == 4  # P=3/4, R=1 → F1 = 6/7, the max
    assert b["f1"] == pytest.approx(6 / 7)


def test_hits_in_topk(scored):
    curve = topk_curve(scored, score_col="score")
    assert hits_in_topk(curve, 2, ["a", "d"]) == 1
    assert hits_in_topk(curve, 4, ["a", "d"]) == 2
    assert hits_in_topk(curve, 6, ["nope"]) == 0


def test_empty_truth_zero_recall():
    pdf = pd.DataFrame(
        {"label": ["a"], "score": [1.0], "is_homograph": [False], "rank": [1]}
    )
    curve = topk_curve(pdf, score_col="score")
    m = metrics_at_k(curve, 1)
    assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0
