"""Synthetic Benchmark (SB) generator — paper §4.1, Mockaroo substitute.

13 tables × 3 columns = 39 attributes; every table has ``1000·scale``
rows except the countries table (193 values) and the states table (50
values). 55 two-meaning homographs are planted, 17 of them shared
country/state abbreviations — the paper's hard case: the country and
state columns intersect heavily, so many alternative shortest paths
depress the BC of those homographs (§5.1).

Category vocabularies are synthetic tokens ``CAT:NNNNN`` (so accidental
cross-category collisions are impossible); homographs are extra
human-readable tokens added to exactly two category vocabularies and
sampled into columns like any other value; a token that sampling misses
in every column of one of its categories is forced into one random
column of that category. Small *closed*
vocabularies (country, state, car brand, …) fit entirely inside a
column, giving the high cross-column overlap that lets domain discovery
(D4) find them; large *open* vocabularies (city, names, movies, …)
overlap little between columns, reproducing D4's coverage gap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.lakes.datalake import lake_from_memberships

#: category → base vocabulary size (before planted homographs).
#: "closed" categories keep their real-world sizes at every scale.
_CLOSED = {
    "country": 176,  # + 17 shared codes = 193 (real country count)
    "state": 33,  # + 17 shared codes = 50 (real state count)
    "car_brand": 57,
    "animal": 296,
    "color": 137,
    "language": 95,
    "currency": 160,
    "sport": 107,
}
_OPEN = {
    "city": 3000,
    "first_name": 2600,
    "last_name": 2600,
    "movie": 2200,
    "grocery": 900,
    "company": 1600,
    "job": 700,
    "street": 2600,
}

#: table → (row count or None for default, list of column categories).
_TABLES = {
    "T01": (None, ["company", "animal", "city"]),
    "T02": (None, ["animal", "city", "first_name"]),
    "T03": (None, ["car_brand", "company", "country"]),
    "T04": (None, ["company", "city", "last_name"]),
    "T05": (193, ["country", "currency", "language"]),
    "T06": (50, ["state", "city", "grocery"]),
    "T07": (None, ["movie", "first_name", "last_name"]),
    "T08": (None, ["grocery", "company", "color"]),
    "T09": (None, ["job", "first_name", "city"]),
    "T10": (None, ["sport", "country", "color"]),
    "T11": (None, ["street", "city", "state"]),
    "T12": (None, ["movie", "color", "sport"]),
    "T13": (None, ["car_brand", "street", "job"]),
}

#: planted homographs: token → (category A, category B). 55 total.
_HOMOGRAPHS: dict[str, tuple[str, str]] = {
    # 17 country/state abbreviation homographs (the low-BC cluster).
    **{
        code: ("country", "state")
        for code in [
            "CA", "AL", "GA", "MA", "DE", "MT", "AR", "CO", "ID",
            "IN", "LA", "MD", "MO", "NE", "PA", "SC", "UT",
        ]
    },
    # 8 city / first-name.
    **{
        t: ("city", "first_name")
        for t in [
            "SYDNEY", "AUSTIN", "CHARLOTTE", "LOGAN",
            "JACKSON", "SAVANNAH", "MADISON", "ORLANDO",
        ]
    },
    # 5 city / country.
    **{
        t: ("city", "country")
        for t in ["JAMAICA", "SINGAPORE", "MONACO", "LUXEMBOURG", "DJIBOUTI"]
    },
    # 3 car brand / city.
    **{t: ("car_brand", "city") for t in ["LINCOLN", "PONTIAC", "DODGE"]},
    # 5 grocery / movie.
    **{
        t: ("grocery", "movie")
        for t in ["PUMPKIN", "CHOCOLAT", "OLIVE", "GINGER", "COCONUT"]
    },
    # 3 animal / car brand.
    **{t: ("animal", "car_brand") for t in ["JAGUAR", "BEETLE", "MUSTANG"]},
    # 4 company / animal.
    **{t: ("company", "animal") for t in ["PUMA", "FOX", "CATERPILLAR", "LYNX"]},
    # 3 movie / city.
    **{t: ("movie", "city") for t in ["CASABLANCA", "CHICAGO", "PHILADELPHIA"]},
    # 3 color / grocery.
    **{t: ("color", "grocery") for t in ["SAGE", "CREAM", "PLUM"]},
    # 4 company / last name.
    **{t: ("company", "last_name") for t in ["DELL", "DISNEY", "BOEING", "HILTON"]},
}


@dataclass(frozen=True)
class SBLake:
    """The generated SB lake: cells, ground truth, and metadata."""

    cells: DataFrame
    homographs: list[str]
    columns: pd.DataFrame = field(repr=False)  # (table_id, col_id, category)


def _vocab(category: str, scale: float) -> np.ndarray:
    """Synthetic token vocabulary of a category (homographs excluded)."""
    if category in _CLOSED:
        size = _CLOSED[category]
    else:
        size = max(20, int(_OPEN[category] * scale))
    return np.array([f"{category.upper()}:{i:05d}" for i in range(size)])


def sb_lake(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> SBLake:
    """Generate the SB data lake.

    ``scale=1.0`` matches the paper's shape (~17.6k values, 39 attrs, 55
    homographs); smaller scales shrink row counts and open vocabularies
    while keeping every closed vocabulary and all 55 homographs intact.
    """
    rng = np.random.default_rng(seed)
    default_rows = max(30, int(1000 * scale))
    cat_homs: dict[str, list[str]] = {}
    for token, (a, b) in _HOMOGRAPHS.items():
        cat_homs.setdefault(a, []).append(token)
        cat_homs.setdefault(b, []).append(token)

    col_meta: list[tuple[str, str, str]] = []  # (table_id, col_id, category)
    values: list[np.ndarray] = []
    for table_id, (rows, cats) in _TABLES.items():
        rows = rows or default_rows
        for j, cat in enumerate(cats):
            # Homograph tokens are ordinary members of both category
            # vocabularies — sampled into columns like any other value.
            pool = np.concatenate(
                [_vocab(cat, scale), np.array(cat_homs.get(cat, []), dtype=object)]
            )
            if len(pool) > rows:
                pool = rng.choice(pool, size=rows, replace=False)
            col_meta.append((table_id, f"c{j}_{cat}", cat))
            values.append(pool)

    # Guarantee every homograph realizes both meanings: if sampling missed
    # a whole category side, force the token into one random column of it.
    realized = {(cat, v) for (_, _, cat), vals in zip(col_meta, values) for v in vals}
    cols_by_cat: dict[str, list[int]] = {}
    for i, (_, _, cat) in enumerate(col_meta):
        cols_by_cat.setdefault(cat, []).append(i)
    for token, (a, b) in _HOMOGRAPHS.items():
        for cat in (a, b):
            if (cat, token) not in realized:
                i = int(rng.choice(cols_by_cat[cat]))
                values[i] = np.append(values[i], token)

    memberships = pd.concat(
        [
            pd.DataFrame({"table_id": t, "col_id": c, "value": vals})
            for (t, c, _), vals in zip(col_meta, values)
        ],
        ignore_index=True,
    )
    return SBLake(
        cells=lake_from_memberships(spark, memberships),
        homographs=sorted(_HOMOGRAPHS),
        columns=pd.DataFrame(col_meta, columns=["table_id", "col_id", "category"]),
    )
