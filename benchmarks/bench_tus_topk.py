"""Benchmark: §5.3 / Fig. 7 — TUS top-k evaluation with sampled BC
(paper: P@200 = 0.89; P = R = F1 = 0.622 at k = #homographs)."""


def test_bench_tus_topk(spark, benchmark):
    from repro.eval.experiments import tus_topk

    out = benchmark.pedantic(
        lambda: tus_topk(spark, sf=0.3, n_samples=800),
        rounds=1,
        iterations=1,
    )
    assert out["at_k"][200]["precision"] >= 0.85  # paper: 0.89
    assert out["at_n_hom"]["precision"] >= 0.55  # paper: 0.622
    assert out["best_f1"]["f1"] >= out["at_n_hom"]["f1"] - 1e-9
