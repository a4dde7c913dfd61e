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
force-included in every column of both categories. Small *closed*
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

    col_values: list[tuple[str, str, str, np.ndarray]] = []
    for table_id, (rows, cats) in _TABLES.items():
        rows = rows or default_rows
        for j, cat in enumerate(cats):
            col_id = f"c{j}_{cat}"
            # Homograph tokens are ordinary members of both category
            # vocabularies — sampled into columns like any other value.
            pool = np.concatenate(
                [_vocab(cat, scale), np.array(cat_homs.get(cat, []), dtype=object)]
            )
            if len(pool) <= rows:
                chosen = pool
            else:
                chosen = rng.choice(pool, size=rows, replace=False)
            col_values.append((table_id, col_id, cat, chosen))

    # Guarantee every homograph realizes both meanings: if sampling missed
    # a whole category side, force the token into one random column of it.
    placed: dict[tuple[str, str], bool] = {}
    for _, _, cat, chosen in col_values:
        homs = set(cat_homs.get(cat, []))
        if homs:
            for t in homs & set(chosen):
                placed[(cat, t)] = True
    cols_by_cat: dict[str, list[int]] = {}
    for i, (_, _, cat, _) in enumerate(col_values):
        cols_by_cat.setdefault(cat, []).append(i)
    for token, (a, b) in _HOMOGRAPHS.items():
        for cat in (a, b):
            if not placed.get((cat, token)):
                i = int(rng.choice(cols_by_cat[cat]))
                t_id, c_id, c_cat, chosen = col_values[i]
                col_values[i] = (t_id, c_id, c_cat, np.append(chosen, token))

    frames = [
        pd.DataFrame({"table_id": t, "col_id": c, "value": vals})
        for t, c, _, vals in col_values
    ]
    col_meta = [(t, c, cat) for t, c, cat, _ in col_values]

    memberships = pd.concat(frames, ignore_index=True)
    cells = lake_from_memberships(spark, memberships)
    return SBLake(
        cells=cells,
        homographs=sorted(_HOMOGRAPHS),
        columns=pd.DataFrame(col_meta, columns=["table_id", "col_id", "category"]),
    )
