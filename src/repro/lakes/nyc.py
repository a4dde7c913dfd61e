"""NYC-Education-scale lake for the scalability study — paper §5.4.

The paper's scalability dataset (NYC education open data; 1.47M values,
2.3M edges) is only used for wall-clock measurements: graph-construction
time and the linearity of approximate-BC runtime in the number of edges.
Any lake with comparable node/edge structure exercises the same code
path, so this module reuses the TUS-lite generator with a larger,
numeric-heavy domain population, plus the paper's footnote-9 subgraph
extraction (attribute-induced random subgraphs of growing size).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graph.csr import CSR, csr_from_arrays
from repro.lakes.tus import TUSLake, tus_lake


def nyc_lake(spark: SparkSession, *, sf: float = 1.0, seed: int = 7) -> TUSLake:
    """A large lake: ``sf=1`` targets several hundred thousand distinct
    values (an order of magnitude above TUS-lite, scaled to the session
    budget; the paper's NYC graph is ~1.5M nodes / 2.3M edges)."""
    return tus_lake(
        spark,
        sf=8.0 * sf,
        seed=seed,
        n_domains=max(24, int(160 * min(1.0, sf))),
        frac_numeric=0.4,
        n_planted=int(3000 * sf),
    )


def attribute_induced_subgraph(
    edges: pd.DataFrame, target_edges: int, *, seed: int = 0
) -> CSR:
    """Random attribute-induced subgraph (paper footnote 9).

    Repeatedly pick a random attribute node and add all its incident
    value nodes until the subgraph reaches ``target_edges`` (within the
    last attribute's margin). Node ids are re-densified so the CSR is
    compact.
    """
    rng = np.random.default_rng(seed)
    attrs, sizes = np.unique(edges["attr_id"].to_numpy(), return_counts=True)
    order = rng.permutation(len(attrs))  # sorted ids: independent of row order
    n_chosen = np.searchsorted(np.cumsum(sizes[order]), target_edges) + 1
    sub = edges[edges["attr_id"].isin(attrs[order[:n_chosen]])]
    # densify ids: values then attrs, as in repro.core.graph.
    v_ids, src = np.unique(sub["value_id"].to_numpy(), return_inverse=True)
    a_ids, dst = np.unique(sub["attr_id"].to_numpy(), return_inverse=True)
    return csr_from_arrays(src, len(v_ids) + dst, len(v_ids) + len(a_ids))
