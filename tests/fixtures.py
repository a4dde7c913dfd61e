"""Shared test fixtures: the paper's Figure 1 running example, random
bipartite graphs for the networkx oracles, raw and exact BC scores,
row-shuffled lakes, Spark job and stage-task counters and a frame digest.

``FIGURE1_TABLES`` reconstructs the four tables of the paper (donors,
zoos, car imports, corporate sales); ``EXAMPLE31_TABLES`` restricts to
the four attributes of Example 3.1 (T2.name, T1.At Risk, T4.Name,
T3.C2), the subgraph on which the paper quotes exact LCC scores.
"""
import hashlib

import numpy as np
import pandas as pd
from hypothesis import strategies as st

from repro.core.betweenness import _normalize, dependency_sum
from repro.core.graph import BipartiteGraph
from repro.graph.csr import CSR, csr_from_arrays
from repro.lakes.datalake import CELLS_SCHEMA

#: full Figure 1 lake: {table: {column: [values]}}.
FIGURE1_TABLES = {
    "T1": {
        "Donor": ["Google", "Volkswagen", "BMW", "Amazon"],
        "At Risk": ["Panda", "Puma", "Jaguar", "Pelican"],
        "Donation": ["1M", "2M", "0.9M", "1.5M"],
    },
    "T2": {
        "name": ["Panda", "Panda", "Lemur", "Jaguar"],
        "locale": ["Memphis", "Atlanta", "National", "San Diego"],
        "num": ["2", "2", "20", "8"],
    },
    "T3": {
        "C1": ["XE", "Prius", "500"],
        "C2": ["Jaguar", "Toyota", "Fiat"],
        "C3": ["UK", "Japan", "Italy"],
    },
    "T4": {
        "Name": ["Jaguar", "Puma", "Apple", "Toyota"],
        "Revenue": ["25.80", "4.64", "456", "123"],
        "Total": ["43224", "13000", "370870", "123456"],
    },
}

#: the Example 3.1 / Example 3.6 four-attribute sub-lake.
EXAMPLE31_TABLES = {
    "T1": {"At Risk": ["Panda", "Puma", "Jaguar", "Pelican"]},
    "T2": {"name": ["Panda", "Panda", "Lemur", "Jaguar"]},
    "T3": {"C2": ["Jaguar", "Toyota", "Fiat"]},
    "T4": {"Name": ["Jaguar", "Puma", "Apple", "Toyota"]},
}

#: paper Example 3.6 LCC scores on the Example 3.1 subgraph (2 d.p. in
#: the paper: 0.36 / 0.43 / 0.46 / 0.46); exact fractions below.
EXAMPLE36_LCC = {
    "JAGUAR": 2.5 / 7,  # 0.357…
    "PUMA": (1 / 3 + 0.5 + 0.5 + 0.5 + 1 / 3) / 5,  # 0.433…
    "TOYOTA": (0.5 + 1 / 3 + 0.5 + 0.5) / 4,  # 0.458…
    "PANDA": (0.5 + 0.5 + 1 / 3 + 0.5) / 4,  # 0.458…
}


@st.composite
def bipartite_graphs(draw, max_values: int = 12, max_attrs: int = 6):
    """A :class:`BipartiteGraph` from random value–attribute pairs, some
    possibly repeated, built without Spark. Values may be isolated;
    attributes too."""
    n_values = draw(st.integers(1, max_values))
    n_attrs = draw(st.integers(1, max_attrs))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_values - 1), st.integers(0, n_attrs - 1)),
        max_size=n_values * n_attrs,
    ))
    v = np.array([p[0] for p in pairs], dtype=np.int64)
    a = np.array([p[1] for p in pairs], dtype=np.int64)
    n = n_values + n_attrs
    labels = np.array([f"N{i:03d}" for i in range(n)], dtype=object)
    return BipartiteGraph(labels, n_values, csr_from_arrays(v, n_values + a, n))


@st.composite
def twin_bipartite_graphs(draw, max_values: int = 8, max_attrs: int = 5):
    """A :func:`bipartite_graphs` graph forced to contain twins: some
    value rows are copied onto new values, and some attribute rows onto
    new attributes, so several nodes share one neighbour set."""
    base = draw(bipartite_graphs(max_values, max_attrs))
    nv, na = base.n_values, base.n_nodes - base.n_values
    edges = base.edge_frame()
    v, a = edges["value_id"].tolist(), (edges["attr_id"] - nv).tolist()
    value_copies = draw(st.lists(st.integers(0, nv - 1), min_size=1, max_size=6))
    for j, src in enumerate(value_copies):
        a += [x for y, x in zip(v, a) if y == src]
        v += [nv + j] * (len(a) - len(v))
    nv += len(value_copies)
    attr_copies = draw(st.lists(st.integers(0, na - 1), max_size=3))
    for j, src in enumerate(attr_copies):
        v += [y for y, x in zip(v, a) if x == src]
        a += [na + j] * (len(v) - len(a))
    na += len(attr_copies)
    n = nv + na
    labels = np.array([f"N{i:03d}" for i in range(n)], dtype=object)
    return BipartiteGraph(
        labels, nv, csr_from_arrays(np.array(v, dtype=np.int64),
                                    nv + np.array(a, dtype=np.int64), n)
    )


def raw_bc(csr: CSR) -> np.ndarray:
    """Raw BC: dependencies summed over every source."""
    return dependency_sum(csr.indptr, csr.indices, range(csr.n))


def exact_bc(csr: CSR) -> np.ndarray:
    """Exact BC: :func:`raw_bc`, normalized as BC normalizes its scores."""
    return _normalize(raw_bc(csr), csr.n)


def shuffled(spark, cells, seed: int):
    """The same lake with its rows in a seeded random order."""
    pdf = cells.toPandas()
    order = np.random.default_rng(seed).permutation(len(pdf))
    return spark.createDataFrame(
        pdf.iloc[order].reset_index(drop=True), schema=CELLS_SCHEMA
    )


def _run_in_group(spark, group, fn):
    """Run ``fn()`` in a Spark job group; return the status tracker once
    every event of its jobs has arrived."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return sc.statusTracker()


def spark_jobs(spark, group, fn) -> int:
    """Spark jobs that ``fn()`` runs, counted through a job group."""
    return len(_run_in_group(spark, group, fn).getJobIdsForGroup(group))


def spark_stage_tasks(spark, group, fn) -> list[int]:
    """Tasks run by each Spark stage that ``fn()`` runs, in stage order,
    counted through a job group. A stage that a later job reuses is
    skipped there and counted once."""
    tracker = _run_in_group(spark, group, fn)
    stages = sorted({
        stage
        for job in tracker.getJobIdsForGroup(group)
        for stage in tracker.getJobInfo(job).stageIds
    })
    infos = [tracker.getStageInfo(stage) for stage in stages]
    return [i.numCompletedTasks for i in infos if i and i.numCompletedTasks]


def frame_digest(frame: pd.DataFrame) -> str:
    """sha256 of a frame's CSV text, to pin its content in a test."""
    return hashlib.sha256(frame.to_csv(index=False).encode()).hexdigest()
