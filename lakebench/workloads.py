"""The benchmark's workloads: lake set-up, one op, and the op's output check.

Every workload generates its lake with the repository's own generator
(fixed generator seed, so sizes and ground truth are the recorded ones)
and then shuffles the lake's rows with the run seed: the same seed gives
the same input, and every output must be invariant to the row order.
Ops call the public functions of ``repro.core.*``, ``repro.graph.csr``,
``repro.lakes.*`` and ``repro.eval.metrics`` and nothing else.

A traced op calls the layers in the order ``rank_homographs`` does and
persists and counts each layer's output at its boundary, so the time of
Spark's lazy plan lands in the span of the layer that defined it.
"""
from __future__ import annotations

import gc
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.betweenness import betweenness_spark, brandes_dependencies
from repro.core.graph import BipartiteGraph, build_graph
from repro.core.lcc import lcc_scores
from repro.core.pipeline import rank_homographs
from repro.core.ranking import MEASURE_ASCENDING, attach_labels, rank_values
from repro.eval.metrics import hits_in_topk, topk_curve
from repro.graph.csr import CSR, csr_from_edges
from repro.lakes.datalake import CELLS_SCHEMA
from repro.lakes.sb import sb_lake
from repro.lakes.tus import tus_lake
from repro.lakes.tus_inject import inject_homographs, remove_homographs

from spans import Tracer

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

#: Sources of the single-threaded kernel probe: fixed, so every run of a
#: workload times the same BFS sweeps.
KERNEL_SOURCES = 32
KERNEL_SEED = 20210323


@dataclass
class OpResult:
    """What one op returns: its sub-timings, quality values, collected
    rankings (measure → ``(label, score, rank)`` pandas frame) and the
    graph objects the layer probes need."""

    parts: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    rankings: dict = field(default_factory=dict)
    graph: BipartiteGraph | None = None
    csr: CSR | None = None
    injected: list = field(default_factory=list)
    hits: int = 0


def shuffled_cells(spark: SparkSession, cells: DataFrame, seed: int) -> DataFrame:
    """The lake's cells in a seeded row order, as a fresh DataFrame."""
    pdf = cells.toPandas()
    order = np.random.default_rng(seed).permutation(len(pdf))
    return spark.createDataFrame(
        pdf.iloc[order].reset_index(drop=True), schema=CELLS_SCHEMA
    )


def rank(
    spark: SparkSession, cells: DataFrame, measure: str, *,
    n_samples: int | None, seed: int, tracer: Tracer | None,
) -> tuple[BipartiteGraph, CSR | None, DataFrame, pd.DataFrame]:
    """Lake cells → ranking, as a DataFrame and collected. Untraced this is
    exactly ``rank_homographs`` plus a collect; traced it is the same layer
    calls with one span each."""
    if tracer is None:
        graph, ranked = rank_homographs(
            spark, cells, measure=measure, n_samples=n_samples, seed=seed
        )
        return graph, None, ranked, ranked.toPandas()

    csr = None
    with tracer.span("graph") as sp:
        graph = build_graph(cells)
        sp.counts.update(n_values=graph.n_values, n_attrs=graph.n_attrs,
                         n_edges=graph.n_edges)
    if measure == "bc":
        with tracer.span("csr") as sp:
            csr = csr_from_edges(graph.edges, graph.n_nodes)
            sp.counts["bytes"] = csr.indptr.nbytes + csr.indices.nbytes
        with tracer.span("bc") as sp:
            scores = betweenness_spark(spark, csr, n_samples=n_samples, seed=seed)
            scores.persist().count()
            sp.counts["sources"] = csr.n if n_samples is None else min(n_samples, csr.n)
        fill = 0.0
    else:
        with tracer.span("lcc"):
            scores = lcc_scores(graph)
            scores.persist().count()
        fill = 1.0
    with tracer.span("rank") as sp:
        labeled = attach_labels(graph, scores, score_col=measure, fill=fill)
        ranked = rank_values(
            labeled, score_col=measure, ascending=MEASURE_ASCENDING[measure]
        ).persist()
        pdf = ranked.toPandas()
        sp.counts["rows"] = len(pdf)
    return graph, csr, ranked, pdf


def kernel_probe(csr: CSR) -> dict:
    """Single-threaded Brandes kernel time on a fixed seeded set of
    sources: ms per source sweep and undirected edges per second."""
    rng = np.random.default_rng(KERNEL_SEED)
    sources = rng.choice(csr.n, size=min(KERNEL_SOURCES, csr.n), replace=False)
    t = time.perf_counter()
    for s in sources:
        brandes_dependencies(csr.indptr, csr.indices, int(s))
    per_source = (time.perf_counter() - t) / len(sources)
    return {"kernel_ms_per_source": 1e3 * per_source,
            "kernel_edges_per_s": csr.n_undirected_edges / per_source}


def lcc_pairs(graph: BipartiteGraph) -> int:
    """Value pairs the LCC self-join emits: sum over attributes of
    C(cardinality, 2)."""
    card = graph.edges.groupBy("attr_id").count().toPandas()["count"].to_numpy(np.int64)
    return int((card * (card - 1) // 2).sum())


def precision_at(ranking: pd.DataFrame, truth: set, k: int) -> float:
    top = ranking.loc[ranking["rank"] <= k, "label"]
    return int(top.isin(truth).sum()) / k


class Workload:
    """One lake, one kind of op. Subclasses define ``make_lake`` and
    ``op``; ``check`` verifies what every op returns. Why each workload
    exists is stated in BENCHMARK.json."""

    name = ""

    def __init__(self, spark: SparkSession, seed: int):
        self.spark = spark
        self.seed = seed
        self.expected = EXPECTED[self.name]
        self.persisted: list[DataFrame] = []

    # -- lake state ------------------------------------------------------
    def make_lake(self) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        """Generate and persist the lake from scratch; returns seconds."""
        t = time.perf_counter()
        self.make_lake()
        self.reset()
        return time.perf_counter() - t

    def reset(self) -> None:
        """Drop everything Spark caches and re-persist only the lake, so
        every op starts from the same post-setup cache state. Then collect
        garbage in both processes, so no op pays for its predecessor's."""
        self.spark.catalog.clearCache()
        for df in self.persisted:
            df.persist().count()
        gc.collect()
        self.spark.sparkContext._jvm.System.gc()

    def op_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    # -- one op ----------------------------------------------------------
    def op(self, i: int, tracer: Tracer | None) -> OpResult:
        raise NotImplementedError

    # -- checks ----------------------------------------------------------
    def check(self, res: OpResult) -> list[str]:
        errs = []
        for measure, pdf in res.rankings.items():
            errs += check_ranking(pdf, measure, res.graph.n_values)
        return errs

    def check_traced(self, res: OpResult, traced: OpResult) -> list[str]:
        """The traced op ranked like the untraced op of the same seed."""
        return [e for m in res.rankings
                for e in same_ranking(res.rankings[m], traced.rankings[m], m)]

    @staticmethod
    def probes(res: OpResult) -> dict:
        """Layer counters that cost extra work, taken after a traced op so
        they stay out of its spans."""
        p = {}
        if "bc" in res.rankings:
            p.update(kernel_probe(res.csr))
        if "lcc" in res.rankings:
            p["lcc_pairs"] = lcc_pairs(res.graph)
        return p


def check_ranking(pdf: pd.DataFrame, measure: str, n_values: int) -> list[str]:
    """A ranking has one row per value node, ranks 1..n, and scores in the
    measure's direction with ties broken by label."""
    errs = []
    n = len(pdf)
    if n != n_values:
        errs.append(f"{measure}: {n} ranked rows, expected {n_values}")
    if not np.array_equal(pdf["rank"].to_numpy(), np.arange(1, n + 1)):
        errs.append(f"{measure}: ranks are not 1..{n} in order")
    if pdf["label"].duplicated().any():
        errs.append(f"{measure}: duplicate labels")
    s = pdf[measure].to_numpy()
    lab = pdf["label"].to_numpy()
    if MEASURE_ASCENDING[measure]:
        worse = s[1:] < s[:-1]
    else:
        worse = s[1:] > s[:-1]
    tie_bad = (s[1:] == s[:-1]) & (lab[1:] < lab[:-1])
    if worse.any() or tie_bad.any():
        errs.append(f"{measure}: scores not ordered (ties by label)")
    return errs


def same_ranking(a: pd.DataFrame, b: pd.DataFrame, measure: str) -> list[str]:
    """Two rankings of one lake agree: same labels, the same score per
    label, and the same score at every rank, to floating-point rounding
    (sums over Spark partitions may round differently in the last bit)."""
    if len(a) != len(b):
        return [f"{measure}: traced ranking has {len(b)} rows, untraced {len(a)}"]
    m = a.merge(b, on="label", suffixes=("_a", "_b"))
    if len(m) != len(a):
        return [f"{measure}: traced and untraced rankings rank different labels"]
    tol = dict(rtol=1e-9, atol=1e-15)
    if not np.allclose(m[f"{measure}_a"], m[f"{measure}_b"], **tol):
        return [f"{measure}: traced and untraced scores differ"]
    if not np.allclose(a[measure].to_numpy(), b[measure].to_numpy(), **tol):
        return [f"{measure}: traced and untraced orders differ"]
    return []


class SBExact(Workload):
    name = "sb-exact"

    def make_lake(self):
        p = self.expected["lake"]
        sb = sb_lake(self.spark, scale=p["scale"], seed=p["seed"])
        self.cells = shuffled_cells(self.spark, sb.cells, self.seed)
        self.truth = set(sb.homographs)
        self.persisted = [self.cells]

    def op(self, i, tracer):
        res = OpResult()
        for measure in ("bc", "lcc"):
            t = time.perf_counter()
            graph, csr, _, pdf = rank(self.spark, self.cells, measure,
                                   n_samples=None, seed=0, tracer=tracer)
            res.parts[f"rank_{measure}_s"] = time.perf_counter() - t
            res.rankings[measure] = pdf
            res.values[f"precision_{measure}"] = precision_at(
                pdf, self.truth, len(self.truth))
            res.graph = graph
            if csr is not None:
                res.csr = csr
        return res

    def check(self, res):
        errs = super().check(res)
        g = res.graph
        got = (g.n_values, g.n_attrs, g.n_edges)
        want = tuple(self.expected[k] for k in ("n_values", "n_attrs", "n_edges"))
        if got != want:
            errs.append(f"graph (values, attrs, edges) = {got}, recorded {want}")
        for key in ("precision_bc", "precision_lcc"):
            if res.values[key] != self.expected[key]:
                errs.append(f"{key} = {res.values[key]}, recorded {self.expected[key]}")
        return errs


class TUSIInject(Workload):
    name = "tusi-inject"

    def make_lake(self):
        p = self.expected["lake"]
        lake = tus_lake(self.spark, sf=p["sf"], seed=p["seed"])
        clean, _ = remove_homographs(self.spark, lake)
        self.cells = shuffled_cells(self.spark, clean, self.seed)
        self.domains = lake.column_domains(self.spark)
        self.persisted = [self.cells, self.domains]

    def op(self, i, tracer):
        res = OpResult()
        n, seed = self.expected["n"], self.op_seed(i)
        kw = dict(n=n, meanings=self.expected["meanings"], seed=seed)
        if tracer is None:
            inj = inject_homographs(self.spark, self.cells, self.domains, **kw)
        else:
            with tracer.span("inject"):
                inj = inject_homographs(self.spark, self.cells, self.domains, **kw)
                inj.cells.persist().count()
        t = time.perf_counter()
        res.graph, res.csr, ranked, pdf = rank(
            self.spark, inj.cells, "bc", n_samples=self.expected["samples"],
            seed=seed, tracer=tracer)
        res.parts["rank_bc_s"] = time.perf_counter() - t
        res.rankings["bc"] = pdf
        with tracer.span("eval") if tracer else nullcontext():
            curve = topk_curve(
                ranked.withColumn("is_homograph", F.col("label").isin(inj.injected)),
                score_col="bc",
            )
            hits = hits_in_topk(curve, n, inj.injected)
        res.values["recovered_frac"] = hits / n
        res.injected, res.hits = inj.injected, hits
        return res

    def check(self, res):
        errs = super().check(res)
        pdf, n = res.rankings["bc"], self.expected["n"]
        if len(res.injected) != n:
            errs.append(f"{len(res.injected)} tokens injected, asked for {n}")
        ranked = pdf["label"].isin(res.injected)
        if ranked.sum() != len(res.injected):
            errs.append("an injected token is missing from the ranking")
        mine = int((ranked & (pdf["rank"] <= n)).sum())
        if mine != res.hits:
            errs.append(f"hits_in_topk = {res.hits}, the collected ranking has {mine}")
        if res.values["recovered_frac"] < self.expected["min_recovered_frac"]:
            errs.append(f"recovered_frac = {res.values['recovered_frac']} below "
                        f"{self.expected['min_recovered_frac']}")
        return errs


WORKLOADS = {w.name: w for w in (SBExact, TUSIInject)}
