"""Experiment harnesses — one function per paper table/figure (§5).

Each harness returns plain pandas/dict results and prints the same rows
the paper reports. Its defaults are the settings behind ``results/``;
``benchmarks/*`` and the tests call it at smaller scale. Thresholds that
the paper states in absolute value terms (column cardinalities) scale
linearly with the TUS-lite scale factor.

Regenerate the captured outputs, one ``results/<name>.txt`` each::

    python -m repro.eval.experiments [name ...]

runs the named experiments of :data:`EXPERIMENTS` (all of them, in
order, when none is named). ``PYSPARK_SUBMIT_ARGS`` picks the master
and driver memory, as for any pyspark program.
"""
from __future__ import annotations

import argparse
import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.d4 import discover_domains
from repro.core.betweenness import dependency_sum, sample_sources
from repro.core.graph import build_graph
from repro.core.pipeline import rank_graph
from repro.eval.metrics import best_f1, hits_in_topk, metrics_at_k, topk_curve
from repro.lakes.datalake import lake_stats
from repro.lakes.nyc import attribute_induced_subgraph, nyc_lake
from repro.lakes.sb import sb_lake
from repro.lakes.tus import definition2_truth, tus_lake
from repro.lakes.tus_inject import inject_homographs, remove_homographs


# --------------------------------------------------------------- Table 1
def table1_stats(
    spark: SparkSession, *, sb_scale: float = 1.0, tus_sf: float = 1.0,
    nyc_sf: float = 0.3, seed: int = 0,
) -> pd.DataFrame:
    """Dataset statistics: #tables, #attrs, #values, #homographs."""
    rows = []
    sb = sb_lake(spark, scale=sb_scale, seed=seed)
    s = lake_stats(sb.cells)
    rows.append(("SB", s["n_tables"], s["n_attrs"], s["n_values"], len(sb.homographs)))

    tus = tus_lake(spark, sf=tus_sf, seed=seed)
    s = lake_stats(tus.cells)
    truth = definition2_truth(tus.cells, tus.column_domains(spark))
    n_hom = int(truth["is_homograph"].sum())
    rows.append(("TUS-lite", s["n_tables"], s["n_attrs"], s["n_values"], n_hom))

    clean, _ = remove_homographs(spark, tus)
    s = lake_stats(clean)
    rows.append(("TUS-I (clean)", s["n_tables"], s["n_attrs"], s["n_values"], 0))

    nyc = nyc_lake(spark, sf=nyc_sf, seed=seed)
    s = lake_stats(nyc.cells)
    rows.append(("NYC-lite", s["n_tables"], s["n_attrs"], s["n_values"], None))
    out = pd.DataFrame(
        rows, columns=["dataset", "n_tables", "n_attrs", "n_values", "n_homographs"]
    )
    print(out.to_string(index=False))
    return out


# ------------------------------------------------- §5.1: SB top-55 study
def sb_top55(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 0,
    n_samples: int | None = None,
) -> dict:
    """Top-55 precision of BC, LCC and the D4 baseline on SB."""
    sb = sb_lake(spark, scale=scale, seed=seed)
    homs = set(sb.homographs)
    k = len(homs)
    out: dict = {"k": k}

    graph = build_graph(sb.cells)
    for measure in ("bc", "lcc"):
        ranked = rank_graph(
            spark, graph, measure=measure,
            n_samples=n_samples if measure == "bc" else None, seed=seed,
        )
        curve = topk_curve(
            ranked.assign(is_homograph=ranked.label.isin(homs)), score_col=measure
        )
        out[measure] = metrics_at_k(curve, k)

    res = discover_domains(sb.cells)
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
def _clean_tus(spark, sf, seed):
    """TUS-lite, its homograph-free TUS-I cells and its column domains,
    the last two cached for repeated injection."""
    lake = tus_lake(spark, sf=sf, seed=seed)
    clean, _ = remove_homographs(spark, lake)
    clean = clean.cache()
    clean.count()
    return lake, clean, lake.column_domains(spark).cache()


def _injection_sweep(spark, *, sf, n, runs, n_samples, seed, settings):
    """For each ``(meanings, min_cardinality, run_seed)`` of ``settings``,
    yield the % of ``n`` homographs injected into TUS-I that rank in the
    BC top-``n``, averaged over ``runs`` injections seeded
    ``run_seed + r``."""
    _, clean, cd = _clean_tus(spark, sf, seed)
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
            curve = topk_curve(
                ranked.assign(is_homograph=ranked.label.isin(inj.injected)),
                score_col="bc",
            )
            hits.append(hits_in_topk(curve, n, inj.injected) / n)
        yield 100 * float(np.mean(hits))


def table2_cardinality(
    spark: SparkSession, *, sf: float = 1.0, n: int = 50, runs: int = 4,
    thresholds: tuple = (0, 100, 200, 300, 400, 500),
    n_samples: int = 1500, seed: int = 0,
) -> pd.DataFrame:
    """% of ``n`` injected homographs (2 meanings) in the top-``n`` by BC
    vs the attribute-cardinality threshold of the replaced values.
    Thresholds are scaled by ``sf`` (column sizes scale with sf)."""
    scaled = [int(round(thr * sf)) for thr in thresholds]
    pcts = _injection_sweep(
        spark, sf=sf, n=n, runs=runs, n_samples=n_samples, seed=seed,
        settings=[(2, c, seed * 1000 + thr) for thr, c in zip(thresholds, scaled)],
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
    meanings: tuple = (2, 3, 4, 5, 6, 7, 8), min_cardinality: int = 500,
    n_samples: int = 1500, seed: int = 0,
) -> pd.DataFrame:
    """% of injected homographs in the top-``n`` vs number of meanings,
    with replaced values from attributes of cardinality ≥ 500·sf."""
    scaled = int(round(min_cardinality * sf))
    pcts = _injection_sweep(
        spark, sf=sf, n=n, runs=runs, n_samples=n_samples, seed=seed,
        settings=[(m, scaled, seed * 1000 + 37 * m) for m in meanings],
    )
    rows = []
    for m, pct in zip(meanings, pcts):
        rows.append((m, pct, runs))
        print(f"meanings = {m}: {pct:.1f}% in top-{n}")
    return pd.DataFrame(rows, columns=["meanings", "pct_in_topn", "runs"])


# --------------------------------------------- §5.3: TUS top-k (Fig. 7)
def tus_topk(
    spark: SparkSession, *, sf: float = 1.0, n_samples: int = 3000,
    seed: int = 0, ks: tuple = (100, 200, 500, 1000, 2000),
) -> dict:
    """Top-k precision/recall/F1 on TUS-lite with its natural homographs."""
    lake = tus_lake(spark, sf=sf, seed=seed)
    truth = definition2_truth(lake.cells, lake.column_domains(spark))
    homs = set(truth.label[truth.is_homograph])
    ranked = rank_graph(
        spark, build_graph(lake.cells), measure="bc", n_samples=n_samples, seed=seed
    )
    curve = topk_curve(
        ranked.assign(is_homograph=ranked.label.isin(homs)), score_col="bc"
    )
    n_hom = len(homs)
    out = {
        "n_homographs": n_hom,
        "at_k": {k: metrics_at_k(curve, k) for k in ks if k < n_hom},
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
    spark: SparkSession, *, sf: float = 1.0, seed: int = 0,
    sample_sizes: tuple = (250, 500, 1000, 2000, 4000, None),
) -> pd.DataFrame:
    """Precision@#homographs and wall-clock vs BC sample count (Fig. 8);
    a sample size of ``None`` is exact BC, over every node."""
    print("== Fig 8 analogue: precision/time vs sample size (TUS-lite) ==")
    lake = tus_lake(spark, sf=sf, seed=seed)
    truth = definition2_truth(lake.cells, lake.column_domains(spark))
    homs = set(truth.label[truth.is_homograph])
    n_hom = len(homs)
    graph = build_graph(lake.cells, prune_unique=True)
    rows = []
    for s in sample_sizes:
        s = None if s is None else min(s, graph.n_nodes)
        t0 = time.perf_counter()
        ranked = rank_graph(spark, graph, measure="bc", n_samples=s, seed=seed)
        curve = topk_curve(
            ranked.assign(is_homograph=ranked.label.isin(homs)), score_col="bc"
        )
        prec = metrics_at_k(curve, n_hom)["precision"]
        dt = time.perf_counter() - t0
        rows.append((graph.n_nodes if s is None else s, prec, dt))
        label = "exact" if s is None else s
        print(f"samples={label}: P@{n_hom}={prec:.3f} time={dt:.1f}s")
    return pd.DataFrame(rows, columns=["samples", "precision", "seconds"])


def scalability_subgraphs(
    spark: SparkSession, *, sf: float = 0.3, seed: int = 0,
    edge_targets: tuple = (20_000, 50_000, 100_000, 200_000),
    sample_frac: float | None = None, n_sources: int = 100,
) -> pd.DataFrame:
    """Approx-BC runtime vs subgraph size on the NYC-scale lake (Fig. 9);
    also reports the Spark graph-construction time (§5.4)."""
    print("== Fig 9 analogue: approx-BC runtime vs subgraph size (NYC) ==")
    lake = nyc_lake(spark, sf=sf, seed=seed)
    t0 = time.perf_counter()
    graph = build_graph(lake.cells, prune_unique=True)
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
        csr = attribute_induced_subgraph(edges, target, seed=seed)
        # Fixed source count by default → runtime is linear in edges
        # (O(s·m)); a sample fraction reproduces the paper's 1% setting.
        s = n_sources if sample_frac is None else max(16, int(csr.n * sample_frac))
        s = min(s, csr.n)
        # Time the Brandes kernel itself (one task's work per source):
        # the O(s·m) claim of Fig. 9. The distributed path adds a fixed
        # per-job Spark overhead that would swamp the signal at
        # benchmark scale; it is measured separately in Fig. 8's sweep.
        srcs = sample_sources(csr, s, seed=seed)
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
    spark: SparkSession, *, sf: float = 0.5, seed: int = 0,
    injections: tuple = (0, 50, 100, 150, 200),
    meanings: tuple = (2, 4, 6),
) -> pd.DataFrame:
    """Number of D4 domains (and per-column stats) as injected homographs
    increase (Fig. 10)."""
    lake, clean, cd = _clean_tus(spark, sf, seed)
    n_true = lake.columns["domain"].nunique()
    rows = []
    base = None  # the 0-injection run is shared across meaning settings
    for m in meanings:
        for n_inj in injections:
            if n_inj == 0:
                if base is None:
                    base = discover_domains(clean)
                res = base
            else:
                cells = inject_homographs(
                    spark, clean, cd, n=n_inj, meanings=m,
                    min_cardinality=0, seed=seed + n_inj + m,
                ).cells
                res = discover_domains(cells)
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


def spark_session() -> SparkSession:
    """The Spark session of the experiments and of the test suite.

    ``PYSPARK_SUBMIT_ARGS`` picks the master and driver memory, which the
    JVM reads at launch; these are the settings honoured after it. Broadcast
    joins happen only where a query asks for one (the TUS-I rewrites).
    """
    return (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
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
            for harness in EXPERIMENTS[name]:
                harness(spark)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
