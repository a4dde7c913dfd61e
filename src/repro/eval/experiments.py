"""Experiment harnesses — one function per paper table/figure (§5).

Each harness returns plain pandas/dict results and prints the same rows
the paper reports. Its defaults are the settings behind ``results/``,
and its only keywords are the scale and size ones (scale factors,
sample and injection counts, the swept values) that ``benchmarks/*``
and the tests shrink; every run uses the one seed :data:`SEED`.
Thresholds that the paper states in absolute value terms (column
cardinalities) scale linearly with the TUS-lite scale factor.

Regenerate the captured outputs, one ``results/<name>.txt`` each::

    python -m repro.eval.experiments [name ...]

runs the named experiments of :data:`EXPERIMENTS` (all, in order, when
none is named) in one Spark session and writes each to :data:`RESULTS`.
``PYSPARK_SUBMIT_ARGS`` picks the master and driver memory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import time
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.d4 import discover_domains
from repro.core.betweenness import dependency_sum, sample_sources
from repro.core.graph import build_graph, graph_from_incidences, incidences
from repro.core.pipeline import rank_graph
from repro.eval.metrics import best_f1, hits_in_topk, metrics_at_k, topk_curve
from repro.lakes.datalake import lake_stats
from repro.lakes.nyc import attribute_induced_subgraph, nyc_lake
from repro.lakes.sb import sb_lake
from repro.lakes.tus import definition2_truth, tus_lake
from repro.lakes.tus_inject import inject_homographs, remove_homographs

#: seed of every lake generator, BC source sample and NYC subgraph draw;
#: injection runs are seeded by their setting (Tables 2–3, Fig. 10).
SEED = 0
#: replaced-value cardinality floor of Table 3, before scaling by ``sf``.
TABLE3_MIN_CARDINALITY = 500
#: Brandes sources timed per subgraph in Fig. 9.
FIG9_SOURCES = 100


def _curve(ranked: pd.DataFrame, homographs, measure: str) -> pd.DataFrame:
    """The top-k curve of ``ranked`` against a set of homograph labels."""
    return topk_curve(
        ranked.assign(is_homograph=ranked.label.isin(homographs)), score_col=measure
    )


# --------------------------------------------------------------- Table 1
def table1_stats(
    spark: SparkSession, *, sb_scale: float = 1.0, tus_sf: float = 1.0,
    nyc_sf: float = 0.3,
) -> pd.DataFrame:
    """Dataset statistics: #tables, #attrs, #values, #homographs."""
    rows = []
    sb = sb_lake(spark, scale=sb_scale, seed=SEED)
    s = lake_stats(sb.cells)
    rows.append(("SB", s["n_tables"], s["n_attrs"], s["n_values"], len(sb.homographs)))

    tus = tus_lake(spark, sf=tus_sf, seed=SEED)
    s = lake_stats(tus.cells)
    clean, truth = remove_homographs(spark, tus)
    n_hom = int(truth["is_homograph"].sum())
    rows.append(("TUS-lite", s["n_tables"], s["n_attrs"], s["n_values"], n_hom))

    s = lake_stats(clean)
    rows.append(("TUS-I (clean)", s["n_tables"], s["n_attrs"], s["n_values"], 0))

    nyc = nyc_lake(spark, sf=nyc_sf, seed=SEED)
    s = lake_stats(nyc.cells)
    rows.append(("NYC-lite", s["n_tables"], s["n_attrs"], s["n_values"], None))
    out = pd.DataFrame(
        rows, columns=["dataset", "n_tables", "n_attrs", "n_values", "n_homographs"]
    )
    print(out.to_string(index=False))
    return out


# ------------------------------------------------- §5.1: SB top-55 study
def sb_top55(spark: SparkSession, *, scale: float = 1.0) -> dict:
    """Top-55 precision of exact BC, LCC and the D4 baseline on SB."""
    sb = sb_lake(spark, scale=scale, seed=SEED)
    homs = set(sb.homographs)
    k = len(homs)
    out: dict = {"k": k}

    inc = incidences(sb.cells)
    graph = graph_from_incidences(inc)
    for measure in ("bc", "lcc"):
        ranked = rank_graph(spark, graph, measure=measure)
        out[measure] = metrics_at_k(_curve(ranked, homs, measure), k)

    res = discover_domains(inc)
    detected = set(res.homographs())
    tp = len(detected & homs)
    out["d4"] = {
        "k": k,
        "precision": tp / k,
        "recall": tp / k,
        "f1": tp / k,
        "tp": tp,
        "n_domains": res.n_domains,
        "covered_attrs": int(res.column_domains.attr.nunique()),
        "n_attrs": len(sb.columns),
    }
    print(
        f"SB top-{k}: BC P={out['bc']['precision']:.3f} "
        f"LCC P={out['lcc']['precision']:.3f} D4 P={out['d4']['precision']:.3f} "
        f"(D4 domains={res.n_domains}, covers "
        f"{out['d4']['covered_attrs']}/{out['d4']['n_attrs']} attrs)"
    )
    return out


# ------------------------------------------------------ Tables 2 and 3
def _clean_tus(spark, sf):
    """TUS-lite, its homograph-free TUS-I cells and its column domains,
    the last two materialized for repeated injection. A checkpoint, not
    a cache: a cached plan still ships the lake's local rows in every
    task that reads it."""
    lake = tus_lake(spark, sf=sf, seed=SEED)
    clean, _ = remove_homographs(spark, lake)
    return lake, clean.localCheckpoint(), lake.column_domains(spark).cache()


def _injection_sweep(spark, *, sf, n, runs, n_samples, settings):
    """For each ``(meanings, min_cardinality, run_seed)`` of ``settings``,
    yield the % of ``n`` homographs injected into TUS-I that rank in the
    BC top-``n``, averaged over ``runs`` injections seeded
    ``run_seed + r``."""
    _, clean, cd = _clean_tus(spark, sf)
    for meanings, min_cardinality, run_seed in settings:
        hits = []
        for r in range(runs):
            inj = inject_homographs(
                spark, clean, cd, n=n, meanings=meanings,
                min_cardinality=min_cardinality, seed=run_seed + r,
            )
            ranked = rank_graph(
                spark, build_graph(inj.cells), measure="bc",
                n_samples=n_samples, seed=run_seed + r,
            )
            curve = _curve(ranked, inj.injected, "bc")
            hits.append(hits_in_topk(curve, n, inj.injected) / n)
        yield 100 * float(np.mean(hits))


def table2_cardinality(
    spark: SparkSession, *, sf: float = 1.0, n: int = 50, runs: int = 4,
    thresholds: tuple = (0, 100, 200, 300, 400, 500),
    n_samples: int = 1500,
) -> pd.DataFrame:
    """% of ``n`` injected homographs (2 meanings) in the top-``n`` by BC
    vs the attribute-cardinality threshold of the replaced values.
    Thresholds are scaled by ``sf`` (column sizes scale with sf)."""
    scaled = [int(round(thr * sf)) for thr in thresholds]
    pcts = _injection_sweep(
        spark, sf=sf, n=n, runs=runs, n_samples=n_samples,
        settings=[(2, c, thr) for thr, c in zip(thresholds, scaled)],
    )
    rows = []
    for thr, c, pct in zip(thresholds, scaled, pcts):
        rows.append((thr, c, pct, runs))
        print(f"card ≥ {thr} (scaled {c}): {pct:.1f}% in top-{n}")
    return pd.DataFrame(
        rows, columns=["threshold", "scaled_threshold", "pct_in_topn", "runs"]
    )


def table3_meanings(
    spark: SparkSession, *, sf: float = 1.0, n: int = 50, runs: int = 4,
    meanings: tuple = (2, 3, 4, 5, 6, 7, 8), n_samples: int = 1500,
) -> pd.DataFrame:
    """% of injected homographs in the top-``n`` vs number of meanings,
    with replaced values from attributes of cardinality ≥ 500·sf."""
    scaled = int(round(TABLE3_MIN_CARDINALITY * sf))
    pcts = _injection_sweep(
        spark, sf=sf, n=n, runs=runs, n_samples=n_samples,
        settings=[(m, scaled, 37 * m) for m in meanings],
    )
    rows = []
    for m, pct in zip(meanings, pcts):
        rows.append((m, pct, runs))
        print(f"meanings = {m}: {pct:.1f}% in top-{n}")
    return pd.DataFrame(rows, columns=["meanings", "pct_in_topn", "runs"])


# --------------------------------------------- §5.3: TUS top-k (Fig. 7)
def _tus_graph(spark, sf):
    """TUS-lite's graph and its Definition-2 homographs, from one
    incidences collect."""
    lake = tus_lake(spark, sf=sf, seed=SEED)
    inc = incidences(lake.cells)
    truth = definition2_truth(inc, lake.columns)
    return graph_from_incidences(inc), set(truth.label[truth.is_homograph])


def tus_topk(spark: SparkSession, *, sf: float = 1.0, n_samples: int = 3000) -> dict:
    """Top-k precision/recall/F1 on TUS-lite with its natural homographs,
    at each fixed k below their count."""
    graph, homs = _tus_graph(spark, sf)
    ranked = rank_graph(spark, graph, measure="bc", n_samples=n_samples, seed=SEED)
    curve = _curve(ranked, homs, "bc")
    n_hom = len(homs)
    out = {
        "n_homographs": n_hom,
        "at_k": {
            k: metrics_at_k(curve, k)
            for k in (100, 200, 500, 1000, 2000) if k < n_hom
        },
        "at_n_hom": metrics_at_k(curve, n_hom),
        "best_f1": best_f1(curve),
        "top10": curve.head(10)[["rank", "label", "bc", "is_homograph"]],
    }
    for k, m in out["at_k"].items():
        print(f"P@{k} = {m['precision']:.3f}  R = {m['recall']:.3f}")
    m = out["at_n_hom"]
    print(
        f"at k = #homographs ({n_hom}): P = {m['precision']:.3f} "
        f"R = {m['recall']:.3f} F1 = {m['f1']:.3f}"
    )
    b = out["best_f1"]
    print(f"best F1 = {b['f1']:.3f} at k = {b['k']}")
    print(out["top10"].to_string(index=False))
    return out


# -------------------------------------------- §5.4: scalability (Figs 8–9)
def scalability_samples(
    spark: SparkSession, *, sf: float = 1.0,
    sample_sizes: tuple = (250, 500, 1000, 2000, 4000, None),
) -> pd.DataFrame:
    """Precision@#homographs and wall-clock vs BC sample count (Fig. 8);
    a sample size of ``None`` is exact BC, over every node."""
    print("== Fig 8 analogue: precision/time vs sample size (TUS-lite) ==")
    graph, homs = _tus_graph(spark, sf)
    n_hom = len(homs)
    rows = []
    for s in sample_sizes:
        s = None if s is None else min(s, graph.n_nodes)
        t0 = time.perf_counter()
        ranked = rank_graph(spark, graph, measure="bc", n_samples=s, seed=SEED)
        prec = metrics_at_k(_curve(ranked, homs, "bc"), n_hom)["precision"]
        dt = time.perf_counter() - t0
        rows.append((graph.n_nodes if s is None else s, prec, dt))
        label = "exact" if s is None else s
        print(f"samples={label}: P@{n_hom}={prec:.3f} time={dt:.1f}s")
    return pd.DataFrame(rows, columns=["samples", "precision", "seconds"])


def scalability_subgraphs(
    spark: SparkSession, *, sf: float = 0.3,
    edge_targets: tuple = (20_000, 50_000, 100_000, 200_000),
) -> pd.DataFrame:
    """Approx-BC runtime vs subgraph size on the NYC-scale lake (Fig. 9);
    also reports the Spark graph-construction time (§5.4)."""
    print("== Fig 9 analogue: approx-BC runtime vs subgraph size (NYC) ==")
    lake = nyc_lake(spark, sf=sf, seed=SEED)
    t0 = time.perf_counter()
    graph = build_graph(lake.cells)
    build_s = time.perf_counter() - t0
    edges = graph.edge_frame()
    print(
        f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges, "
        f"constructed in {build_s:.1f}s"
    )
    rows = []
    for target in edge_targets:
        if target > len(edges):
            continue
        csr = attribute_induced_subgraph(edges, target, seed=SEED)
        # Time the Brandes kernel itself over a fixed number of sources
        # (capped at the subgraph's nodes), so runtime is O(s·m): linear
        # in edges, the claim of Fig. 9. The distributed path adds a
        # fixed per-job Spark overhead that would swamp the signal at
        # benchmark scale; it is measured separately in Fig. 8's sweep.
        srcs = sample_sources(csr, FIG9_SOURCES, seed=SEED)
        t0 = time.perf_counter()
        dependency_sum(csr.indptr, csr.indices, srcs)
        dt = time.perf_counter() - t0
        rows.append((csr.n, csr.n_undirected_edges, len(srcs), dt))
        print(f"subgraph edges={csr.n_undirected_edges}: approx-BC {dt:.2f}s")
    out = pd.DataFrame(rows, columns=["nodes", "edges", "samples", "seconds"])
    out.attrs["build_seconds"] = build_s
    return out


# ----------------------------------------------- §5.5: impact on D4
def d4_impact(
    spark: SparkSession, *, sf: float = 0.5,
    injections: tuple = (0, 50, 100, 150, 200),
    meanings: tuple = (2, 4, 6),
) -> pd.DataFrame:
    """Number of D4 domains (and per-column stats) as injected homographs
    increase (Fig. 10)."""
    lake, clean, cd = _clean_tus(spark, sf)
    n_true = lake.columns["domain"].nunique()
    rows = []
    base = None  # the 0-injection run is shared across meaning settings
    for m in meanings:
        for n_inj in injections:
            if n_inj == 0:
                if base is None:
                    base = discover_domains(incidences(clean))
                res = base
            else:
                cells = inject_homographs(
                    spark, clean, cd, n=n_inj, meanings=m,
                    min_cardinality=0, seed=n_inj + m,
                ).cells
                res = discover_domains(incidences(cells))
            mx, avg = res.domains_per_column()
            rows.append((m, n_inj, res.n_domains, mx, avg))
            print(
                f"meanings={m} injected={n_inj}: domains={res.n_domains} "
                f"(true {n_true}) per-col max={mx} avg={avg:.3f}"
            )
    out = pd.DataFrame(
        rows, columns=["meanings", "n_injected", "n_domains", "max_per_col", "avg_per_col"]
    )
    out.attrs["true_domains"] = n_true
    return out


# ------------------------------------------------------ the entry point
#: The recorded outputs, one ``<name>.txt`` per experiment.
RESULTS = Path(__file__).resolve().parents[3] / "results"
#: ``results/<name>.txt`` stem → the harnesses that print it, in order.
EXPERIMENTS = {
    "table1": (table1_stats,),
    "sb_top55": (sb_top55,),
    "tus_topk": (tus_topk,),
    "table2": (table2_cardinality,),
    "table3": (table3_meanings,),
    "scalability": (scalability_samples, scalability_subgraphs),
    "d4_impact": (d4_impact,),
}


def run_experiment(spark: SparkSession, name: str) -> str:
    """What ``EXPERIMENTS[name]``'s harnesses print, run in order."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for harness in EXPERIMENTS[name]:
            harness(spark)
    return out.getvalue()


def spark_session() -> SparkSession:
    """The Spark session of the experiments and of the test suite.

    ``PYSPARK_SUBMIT_ARGS`` picks the master and driver memory, which the
    JVM reads at launch; these are the settings honoured after it.
    """
    return (
        SparkSession.builder.appName("repro")
        # Read only by lake_stats (Table 1): 64 beat the default 200 in 9 of
        # 10 paired fresh sessions, 6.3 vs 7.2 s (DESIGN.md §5).
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.eval.experiments",
        description="Run §5 experiments at their recorded settings.",
    )
    ap.add_argument(
        "names", nargs="*", metavar="name",
        help=f"one of {', '.join(EXPERIMENTS)} (default: all, in that order)",
    )
    names = ap.parse_args(argv).names or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        ap.error(f"unknown experiment(s): {', '.join(unknown)}")
    spark = spark_session()
    try:
        for name in names:
            text = run_experiment(spark, name)
            (RESULTS / f"{name}.txt").write_text(text, encoding="utf-8")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
