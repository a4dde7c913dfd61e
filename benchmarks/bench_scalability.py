"""Benchmark: §5.4 / Figs 8–9 — sample-size sweep and runtime-vs-edges
linearity on the NYC-scale lake."""


def test_bench_fig8_sample_sweep(spark, benchmark):
    from repro.eval.experiments import scalability_samples

    out = benchmark.pedantic(
        lambda: scalability_samples(
            spark, sf=0.3, sample_sizes=(250, 1000)
        ),
        rounds=1,
        iterations=1,
    )
    # precision stabilizes at small samples (paper Fig. 8)
    assert out.precision.iloc[-1] >= 0.5
    assert abs(out.precision.iloc[-1] - out.precision.iloc[0]) < 0.2


def test_bench_fig9_runtime_vs_edges(spark, benchmark):
    from repro.eval.experiments import scalability_subgraphs

    out = benchmark.pedantic(
        lambda: scalability_subgraphs(
            spark, sf=0.04, edge_targets=(5_000, 10_000, 20_000)
        ),
        rounds=1,
        iterations=1,
    )
    assert len(out) >= 2
    # runtime grows with edge count (O(s·m)): bigger graphs aren't faster
    assert out.seconds.iloc[-1] >= out.seconds.iloc[0] * 0.8
