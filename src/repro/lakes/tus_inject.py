"""TUS-I: homograph removal and controlled injection — paper §4.3.

The paper builds TUS-I from TUS in two steps: (1) remove **all** 26,035
Definition-2 homographs, leaving a lake whose every value has a single
meaning; (2) inject artificial homographs: pick ``m`` values from ``m``
pairwise-non-unionable columns whose attribute cardinality is at least a
threshold, restrict to string values of ≥3 characters, and replace every
occurrence of each picked value with a fresh token
``INJECTEDHOMOGRAPH<k>`` — so the injected token has exactly ``m``
meanings and its BC behaviour can be studied as a function of the
cardinality threshold (Table 2) and of ``m`` (Table 3).

Both steps collect the lake's incidences once
(:func:`repro.core.graph.incidences`) and decide on the driver, in
pandas: the Definition-2 labels against the generator's column → domain
table, and the eligible ``(domain, value)`` pairs. Spark only rewrites
the cells, with a join against a broadcast of the driver's picks (the
homographs to drop, the values to replace). The eligible pairs are
sorted before the seeded draws, so a plan depends on the seed and the
lake's content, not on its row order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.normalize import ATTR_COL, VALUE_COL, norm_value
from repro.core.graph import incidences
from repro.lakes.tus import TUSLake, definition2_truth


def remove_homographs(
    spark: SparkSession, lake: TUSLake
) -> tuple[DataFrame, pd.DataFrame]:
    """Drop every Definition-2 homograph from the lake.

    Returns ``(clean_cells, truth)`` where ``truth`` is the pandas
    labeling that was applied. After this step the lake contains only
    single-meaning values (the paper's TUS-I starting point).
    """
    truth = definition2_truth(incidences(lake.cells), lake.columns)
    homs = truth.loc[truth["is_homograph"], ["label"]]
    homs = spark.createDataFrame(
        homs.rename(columns={"label": VALUE_COL}), schema=f"{VALUE_COL} string"
    )
    cleaned = (
        lake.cells.withColumn(VALUE_COL, norm_value(F.col("value")))
        .join(F.broadcast(homs), on=VALUE_COL, how="left_anti")
        .select("table_id", "col_id", F.col(VALUE_COL).alias("value"))
    )
    return cleaned, truth


@dataclass(frozen=True)
class Injection:
    """Result of :func:`inject_homographs`."""

    cells: DataFrame
    #: the injected tokens, e.g. ``INJECTEDHOMOGRAPH0`` … — the ground
    #: truth homograph set of the modified lake.
    injected: list[str]
    #: (token, domain, replaced_value) provenance, one row per meaning.
    plan: pd.DataFrame


def inject_homographs(
    spark: SparkSession,
    cells: DataFrame,
    column_domains: DataFrame,
    *,
    n: int = 50,
    meanings: int = 2,
    min_cardinality: int = 0,
    seed: int = 0,
) -> Injection:
    """Inject ``n`` homographs with ``meanings`` meanings each.

    For each injected token, ``meanings`` distinct domains are drawn; in
    each, a random string value (≥3 chars, not numeric-looking) is picked
    from a column with distinct-value cardinality ≥ ``min_cardinality``
    — then **all** occurrences of each picked value are replaced by the
    token, lake-wide. Raises if the lake cannot supply enough distinct
    eligible (domain, value) picks.
    """
    inc = incidences(cells)
    inc["cardinality"] = inc.groupby(ATTR_COL)[VALUE_COL].transform("size")
    inc = inc.merge(column_domains.toPandas(), on=ATTR_COL)
    value = inc[VALUE_COL].str
    eligible = (
        inc.loc[
            (inc["cardinality"] >= min_cardinality)
            & (value.len() >= 3)
            & ~value.fullmatch(r"[0-9.,\- ]+"),
            ["domain", VALUE_COL],
        ]
        .drop_duplicates()
        # Sorted so the seeded draws below do not follow lake row order.
        .sort_values(["domain", VALUE_COL])
    )
    rng = np.random.default_rng(seed)
    pools = {
        d: list(rng.permutation(g[VALUE_COL].to_numpy()))
        for d, g in eligible.groupby("domain")
    }
    used: set[str] = set()
    plan_rows = []
    for k in range(n):
        # Draw from domains that still have un-replaced eligible values;
        # the same original value is never replaced by two tokens.
        live = [d for d, pool in pools.items() if pool]
        if len(live) < meanings:
            raise ValueError(
                f"only {len(live)} domains still have eligible values; "
                f"cannot inject homograph {k} with {meanings} meanings"
            )
        doms = rng.choice(np.array(live, dtype=object), size=meanings, replace=False)
        token = f"INJECTEDHOMOGRAPH{k}"
        for dom in doms:
            value = pools[dom].pop()
            while value in used and pools[dom]:
                value = pools[dom].pop()
            if value in used:
                raise ValueError(f"domain {dom} ran out of eligible values")
            used.add(value)
            plan_rows.append((token, dom, value))
    plan = pd.DataFrame(plan_rows, columns=["token", "domain", "replaced_value"])

    repl = spark.createDataFrame(
        plan[["replaced_value", "token"]].rename(columns={"replaced_value": VALUE_COL}),
        schema=f"{VALUE_COL} string, token string",
    )
    injected_cells = (
        cells.withColumn(VALUE_COL, norm_value(F.col("value")))
        .join(F.broadcast(repl), on=VALUE_COL, how="left")
        .select(
            "table_id",
            "col_id",
            F.coalesce(F.col("token"), F.col(VALUE_COL)).alias("value"),
        )
    )
    return Injection(
        cells=injected_cells,
        injected=sorted(plan["token"].unique()),
        plan=plan,
    )
