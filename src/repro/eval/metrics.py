"""Evaluation metrics (paper §5 "Measures of success").

Precision / recall / F1 of the k top-ranked homograph candidates, and the
full top-k curve of Figure 7, computed in pandas over the collected
ranking (one row per value node, so it is as large as the graph's value
set, which the driver already holds).
"""
from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.ranking import rank_frame


def topk_curve(
    scored: pd.DataFrame | DataFrame,
    *,
    score_col: str,
    truth_col: str = "is_homograph",
    ascending: bool = False,
) -> pd.DataFrame:
    """Cumulative precision/recall/F1 at every rank.

    ``scored`` (pandas, or Spark and collected here) must have one row per
    candidate value with its ``label``, score and a boolean ground-truth
    column. Ties are broken by label. Returns ``(rank, label, score,
    is_homograph, tp, precision, recall, f1)`` ordered by rank.
    """
    if isinstance(scored, DataFrame):
        scored = scored.toPandas()
    c = rank_frame(scored, score_col=score_col, ascending=ascending)
    truth = c[truth_col].astype(bool)
    c["tp"] = truth.cumsum()
    c["precision"] = c["tp"] / c["rank"]
    c["recall"] = c["tp"] / max(int(truth.sum()), 1)
    pr = c["precision"] + c["recall"]
    c["f1"] = (2 * c["precision"] * c["recall"] / pr).fillna(0.0)
    return c[["rank", "label", score_col, truth_col, "tp", "precision", "recall", "f1"]]


def metrics_at_k(curve: pd.DataFrame, k: int) -> dict:
    """Precision/recall/F1 at rank ``k`` from a :func:`topk_curve` result.

    If the curve has fewer than ``k`` rows (fewer candidates than ``k``),
    the last row is used and precision is re-based on ``k`` slots — the
    paper's convention when an algorithm returns fewer than k results
    (D4 on SB returns 21 candidates, scored against 55 slots).
    """
    top = curve[curve["rank"] <= k]
    if top.empty:
        return {"k": k, "precision": 0.0, "recall": 0.0, "f1": 0.0, "tp": 0}
    r = top.iloc[-1]
    tp = int(r["tp"])
    precision = tp / k
    recall = float(r["recall"])
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"k": k, "precision": precision, "recall": recall, "f1": f1, "tp": tp}


def best_f1(curve: pd.DataFrame) -> dict:
    """Rank with the highest F1 on the curve (paper §5.3 reports it);
    the lowest such rank on ties."""
    r = curve.loc[curve["f1"].idxmax()]
    return {
        "k": int(r["rank"]),
        "precision": float(r["precision"]),
        "recall": float(r["recall"]),
        "f1": float(r["f1"]),
        "tp": int(r["tp"]),
    }


def hits_in_topk(curve: pd.DataFrame, k: int, targets: Iterable[str]) -> int:
    """How many of ``targets`` (labels) rank in the top ``k`` — the
    Table 2 / Table 3 measure for injected homographs."""
    top = curve.loc[curve["rank"] <= k, "label"]
    return int(top.isin(set(targets)).sum())
