"""TUS-lite: a Table-Union-Search-style benchmark generator — paper §4.2.

The real TUS benchmark was built by vertically/horizontally slicing real
UK/Canada open-data tables; its unionability ground truth says two
columns are unionable iff they were sliced from the same source. TUS-lite
generates the same structure synthetically:

- ``n_domains`` semantic domains, 75% string / 25% numeric, with
  lognormal (heavily skewed) vocabulary sizes;
- each domain is sliced into several columns, each a random
  ``15–95%``-sized subset of the domain vocabulary (skewed attribute
  cardinalities, the paper's "stress test");
- numeric domains draw zipf-weighted integers from one shared range, so
  small numbers ("2", "50", "125") naturally collide across domains —
  the paper's numeric homographs;
- planted string homographs span ``m ≥ 2`` string domains with a
  heavy-tailed distribution of meanings (paper #M ranges 2–100);
- an optional "." null-marker is sprinkled across columns of many
  domains (the paper's 5th-ranked many-meaning homograph).

Ground truth follows Definition 2: a value is a homograph iff it occurs
in at least two columns that are **not** unionable (different source
domains) — computed from the *realized* lake, not the planting plan:
Spark produces the lake's distinct incidences, and the driver labels
them in pandas against the column → domain table it already holds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.normalize import ATTR_COL, VALUE_COL
from repro.core.graph import incidences
from repro.lakes.datalake import lake_from_memberships

NULL_MARKER = "."


@dataclass(frozen=True)
class TUSLake:
    """Generated TUS-lite lake plus its unionability ground truth."""

    cells: DataFrame
    #: (table_id, col_id, attr, domain, is_numeric) — one row per column.
    columns: pd.DataFrame = field(repr=False)
    #: tokens planted into ≥2 string domains (realized truth may differ).
    planted: list[str] = field(repr=False)

    def column_domains(self, spark: SparkSession) -> DataFrame:
        """``(attr, domain)`` unionability ground truth as a DataFrame."""
        return spark.createDataFrame(
            self.columns[["attr", "domain"]], schema="attr string, domain string"
        )


def tus_lake(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    seed: int = 0,
    n_domains: int = 56,
    frac_numeric: float = 0.25,
    n_planted: int | None = None,
    null_marker: bool = True,
) -> TUSLake:
    """Generate a TUS-lite lake at scale factor ``sf``.

    ``sf=1`` yields ≈45k distinct values over ≈400 columns with column
    cardinalities from 3 to several thousand (half above ~500, as in the
    paper's TUS). ``n_planted=0, null_marker=False`` produces a lake
    whose only homographs are natural numeric collisions — the starting
    point for TUS-I (which then removes those too).
    """
    rng = np.random.default_rng(seed)
    n_numeric = int(n_domains * frac_numeric)
    if n_planted is None:
        n_planted = int(2000 * sf)

    # --- domain vocabularies -------------------------------------------
    # Heavily skewed domain sizes (paper TUS cardinalities span 3–22,703,
    # i.e. real lakes have *tiny* attributes): a quarter of the domains
    # are tiny (8–60 values, unscaled — they are the paper's 3-value
    # columns) and the rest follow a lognormal with a long upper tail.
    # Homographs injected into tiny domains bridge almost no shortest
    # paths — the low-BC misses behind Table 2's 85% at threshold >0.
    tiny = rng.random(n_domains) < 0.25
    sizes = np.where(
        tiny,
        rng.integers(8, 60, n_domains),
        np.clip(
            (rng.lognormal(np.log(500), 1.2, n_domains) * sf).astype(int),
            30,
            max(60, int(6000 * sf)),
        ),
    )
    numeric_range = max(1000, int(20000 * sf))
    # zipf-ish weights over the shared integer range → small ints collide.
    weights = 1.0 / np.arange(1, numeric_range + 1) ** 0.8
    weights /= weights.sum()
    vocabs: dict[str, np.ndarray] = {}
    is_numeric: dict[str, bool] = {}
    for d in range(n_domains):
        dom = f"D{d:03d}"
        numeric = d < n_numeric
        is_numeric[dom] = numeric
        size = int(sizes[d])
        if numeric:
            ints = rng.choice(numeric_range, size=min(size, numeric_range), replace=False, p=weights)
            vocabs[dom] = np.array([str(i) for i in ints], dtype=object)
        else:
            vocabs[dom] = np.array(
                [f"{dom}:{i:06d}" for i in range(size)], dtype=object
            )

    # --- planted multi-domain string homographs ------------------------
    string_doms = [d for d, num in is_numeric.items() if not num]
    planted: dict[str, list[str]] = {}
    if n_planted and len(string_doms) >= 2:
        # heavy-tailed meaning counts: mostly 2, tail toward many.
        meanings = np.minimum(
            2 + np.floor(rng.pareto(2.0, n_planted) * 1.5).astype(int),
            len(string_doms),
        )
        for k in range(n_planted):
            token = f"HOM:{k:06d}"
            doms = rng.choice(string_doms, size=int(meanings[k]), replace=False)
            planted[token] = list(doms)
        for token, doms in planted.items():
            for dom in doms:
                vocabs[dom] = np.append(vocabs[dom], token)

    # --- slice domains into columns ------------------------------------
    frames = []
    col_meta = []
    col_counter = 0
    for dom in vocabs:
        n_cols = int(rng.integers(5, 15))
        vocab = rng.permutation(vocabs[dom])
        forced = [t for t, doms in planted.items() if dom in doms]
        for _ in range(n_cols):
            frac = rng.uniform(0.08, 0.6)
            size = min(len(vocab), max(3, int(len(vocab) * frac)))
            if rng.random() < 0.7:
                # TUS columns are horizontal/vertical slices of one
                # source: sample a *localized window* of the domain, so
                # same-domain columns form partial-overlap chains. The
                # few values in an overlap carry concentrated shortest-
                # path traffic — the natural high-BC background of real
                # lakes (and the reason D4 sees more domains than the
                # ground truth has, §5.5).
                start = int(rng.integers(0, len(vocab) - size + 1))
                vals = vocab[start : start + size]
            else:
                vals = rng.choice(vocab, size=size, replace=False)
            col_meta.append((dom, col_counter, vals, forced))
            col_counter += 1
    # each planted token must realize in ≥1 column of each of its domains:
    # force it into the first column of the domain if sampling missed it.
    seen: dict[tuple[str, str], bool] = {}
    for dom, cid, vals, forced in col_meta:
        if forced:
            present = set(vals) & set(forced)
            for t in present:
                seen[(dom, t)] = True
    fixed_meta = []
    for dom, cid, vals, forced in col_meta:
        missing = [t for t in forced if not seen.get((dom, t))]
        if missing:
            vals = np.concatenate([vals, np.array(missing, dtype=object)])
            for t in missing:
                seen[(dom, t)] = True
        fixed_meta.append((dom, cid, vals))

    # --- null marker ----------------------------------------------------
    if null_marker:
        marked = rng.random(len(fixed_meta)) < 0.05
        fixed_meta = [
            (dom, cid, np.append(vals, NULL_MARKER) if m else vals)
            for (dom, cid, vals), m in zip(fixed_meta, marked)
        ]

    # --- group columns into tables (3–5 columns each, mixed domains) ----
    order = rng.permutation(len(fixed_meta))
    rows = []
    meta_rows = []
    t = 0
    i = 0
    while i < len(order):
        width = int(rng.integers(3, 6))
        table_id = f"t{t:04d}"
        for j, idx in enumerate(order[i : i + width]):
            dom, cid, vals = fixed_meta[idx]
            col_id = f"c{cid:04d}"
            rows.append(
                pd.DataFrame({"table_id": table_id, "col_id": col_id, "value": vals})
            )
            meta_rows.append(
                (table_id, col_id, f"{table_id}.{col_id}", dom, is_numeric[dom])
            )
        i += width
        t += 1

    memberships = pd.concat(rows, ignore_index=True)
    cells = lake_from_memberships(spark, memberships)
    columns = pd.DataFrame(
        meta_rows, columns=["table_id", "col_id", "attr", "domain", "is_numeric"]
    )
    return TUSLake(cells=cells, columns=columns, planted=sorted(planted))


def definition2_truth(cells: DataFrame, column_domains: DataFrame) -> pd.DataFrame:
    """Definition 2 labeling: ``(label, is_homograph)`` for every distinct
    value, computed on the driver from the lake's collected incidences.

    A value is a homograph iff it appears in ≥2 columns belonging to
    different unionability classes (source domains).
    """
    inc = incidences(cells).toPandas().merge(column_domains.toPandas(), on=ATTR_COL)
    n_domains = inc.groupby(VALUE_COL)["domain"].nunique()
    return pd.DataFrame(
        {"label": n_domains.index, "is_homograph": n_domains.to_numpy() >= 2}
    )
