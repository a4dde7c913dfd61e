"""Integration tests for the per-table experiment harnesses
(repro.eval.experiments) at tiny scale — every paper table's code path
runs end-to-end in the suite — and for its ``main`` entry point."""
import inspect
from pathlib import Path

import pytest

from repro.eval import experiments
from repro.eval.experiments import (
    EXPERIMENTS,
    d4_impact,
    main,
    sb_top55,
    scalability_samples,
    scalability_subgraphs,
    table1_stats,
    table2_cardinality,
    table3_meanings,
    tus_topk,
)


def test_table1_harness(spark):
    out = table1_stats(spark, sb_scale=0.1, tus_sf=0.05, nyc_sf=0.01)
    assert list(out.dataset) == ["SB", "TUS-lite", "TUS-I (clean)", "NYC-lite"]
    assert (out.loc[out.dataset != "NYC-lite", "n_values"] > 0).all()
    # the clean TUS-I lake has no homographs by construction
    assert out.loc[out.dataset == "TUS-I (clean)", "n_homographs"].iloc[0] == 0


def test_sb_top55_harness(spark):
    out = sb_top55(spark, scale=0.12, n_samples=1500)
    assert out["k"] == 55
    for measure in ("bc", "lcc", "d4"):
        assert 0.0 <= out[measure]["precision"] <= 1.0
    assert out["bc"]["precision"] >= out["d4"]["precision"]
    assert 0 < out["d4"]["covered_attrs"] <= out["d4"]["n_attrs"]


def test_table2_harness(spark):
    out = table2_cardinality(
        spark, sf=0.15, n=10, runs=1, thresholds=(0, 300), n_samples=400
    )
    assert list(out.threshold) == [0, 300]
    assert (out.pct_in_topn >= 0).all() and (out.pct_in_topn <= 100).all()
    assert (out.scaled_threshold == [0, 45]).all()


def test_table3_harness(spark):
    out = table3_meanings(
        spark, sf=0.15, n=10, runs=1, meanings=(2, 4), n_samples=400
    )
    assert list(out.meanings) == [2, 4]
    assert (out.pct_in_topn >= 0).all()


def test_tus_topk_harness(spark):
    out = tus_topk(spark, sf=0.1, n_samples=400, ks=(20, 50))
    assert out["n_homographs"] > 0
    assert len(out["top10"]) == 10
    assert out["at_n_hom"]["precision"] > 0.3
    assert out["best_f1"]["f1"] >= out["at_n_hom"]["f1"] - 1e-9


def test_scalability_samples_harness(spark):
    out = scalability_samples(spark, sf=0.1, sample_sizes=(100, 300, None))
    assert list(out.samples[:2]) == [100, 300]
    assert out.samples.iloc[2] > 300  # exact BC runs every node
    assert (out.seconds > 0).all()


def test_scalability_subgraphs_harness(spark):
    out = scalability_subgraphs(
        spark, sf=0.01, edge_targets=(500, 2000), n_sources=50
    )
    assert len(out) == 2
    assert out.edges.iloc[1] > out.edges.iloc[0]
    assert "build_seconds" in out.attrs


def test_d4_impact_harness(spark):
    out = d4_impact(spark, sf=0.12, injections=(0, 20), meanings=(2,))
    assert len(out) == 2
    base = out[out.n_injected == 0].n_domains.iloc[0]
    inj = out[out.n_injected == 20].n_domains.iloc[0]
    assert inj >= base  # §5.5: homographs inflate discovered domains


def test_experiments_cover_every_harness_once():
    harnesses = [
        f for name, f in inspect.getmembers(experiments, inspect.isfunction)
        if f.__module__ == experiments.__name__ and not name.startswith("_")
        and next(iter(inspect.signature(f).parameters), None) == "spark"
    ]
    listed = [f for fs in EXPERIMENTS.values() for f in fs]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(harnesses)


def test_experiment_names_are_results_stems():
    results = Path(__file__).resolve().parents[1] / "results"
    assert set(EXPERIMENTS) == {p.stem for p in results.glob("*.txt")}


def test_unknown_experiment_rejected_before_spark(monkeypatch):
    monkeypatch.setattr(experiments, "SparkSession", None)  # no session
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code != 0
