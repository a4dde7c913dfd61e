"""DomainNet benchmark: run one workload for a fixed time and print its metrics.

    python3 lakebench/run.py --workload tus-sampled --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It starts one Spark driver
(``local[k]``, k = min(nproc, 4)), generates the workload's lake from the
seed, warms up with one untimed op, then runs ops back to back (a closed
loop, one client) until ``--seconds`` have passed. Before every op it
clears Spark's cache and re-persists only the lake. Every op's output is
checked; a check that fails counts the op as failed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace
1`` alternates an untraced op with a traced one (one span and one Spark
job group per layer call) and prints the per-layer metrics. Human-readable
lines go to stdout first; the last line is one JSON object. A run record
with the environment, every op's sample and every span is written under
``.lakebench/runs/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import pandas
from pyspark import SparkContext
from pyspark.sql import SparkSession

from spans import Tracer, cached_mb, jvm_peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".lakebench"
#: Heap of the one driver JVM (local mode: it also runs the executors).
DRIVER_MEMORY = "3g"
#: Lake set-ups per run; ``setup_s`` uses their median.
SETUP_REPEATS = 2
#: Layers in pipeline order; each is one span name in the traced op.
LAYERS = ("inject", "graph", "csr", "bc", "lcc", "rank", "eval")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cores() -> int:
    return min(len(os.sched_getaffinity(0)), 4)


def configure_environment() -> None:
    """Point the driver and the Python workers at ``src`` and keep every
    file Spark and the JVM write inside the checkout. Must run before
    pyspark starts the JVM."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"lakebench: {src / 'repro'} not found; run from a checkout")
    tmp = SCRATCH / "tmp"
    local = SCRATCH / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    # mapInPandas workers import repro from PYTHONPATH, not sys.path.
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores()}]",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        f"--conf spark.local.dir={shlex.quote(str(local))}",
        "pyspark-shell",
    ])
    sys.path.insert(0, str(src))


def start_spark() -> SparkSession:
    # The same session settings as jobs/_common.get_spark, plus room in the
    # status store for every job of a run.
    spark = (
        SparkSession.builder.appName("lakebench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .config("spark.sql.ui.retainedExecutions", 100000)
        .config("spark.sql.warehouse.dir", str(SCRATCH / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait until it has exited."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits at end of its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 20:
        return f"n={n}, too few for a tail percentile"
    p = 100 * (n - 10) // n
    q = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return f"p{p}={q:.4f}, n={n}"


class Run:
    """State of one benchmark run: the session, the workload, op samples
    and failures."""

    def __init__(self, spark, workload):
        self.sc = spark.sparkContext
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.samples: list[dict] = []

    def attempt(self, i: int, tracer=None, phase: str = "timed"):
        """Reset Spark state, run op ``i`` (traced if a tracer is given),
        check it. Returns ``(seconds, result)``; result is None on failure."""
        self.wl.reset()
        base_mb = cached_mb(self.sc)
        self.attempted += 1
        t = time.perf_counter()
        try:
            if tracer is None:
                res = self.wl.op(i, None)
            else:
                with tracer.op(i):
                    res = self.wl.op(i, tracer)
            seconds = time.perf_counter() - t
            errs = self.wl.check(res)
        except Exception:
            traceback.print_exc()
            errs = ["raised"]
            res, seconds = None, time.perf_counter() - t
        if tracer is not None:
            phase = "traced"
        sample = {"op": i, "phase": phase, "seconds": seconds,
                  "cached_mb_after_op": cached_mb(self.sc) - base_mb,
                  "errors": errs}
        self.samples.append(sample)
        if errs:
            print(f"op {i} failed: {errs}", file=sys.stderr)
            self.failed += 1
            return seconds, None
        sample.update(res.parts, **res.values)
        return seconds, res

    def same_output(self, i: int, res, traced_res) -> bool:
        """A traced op whose ranking differs from the untraced op of the
        same seed counts as failed."""
        errs = self.wl.check_traced(res, traced_res)
        if errs:
            print(f"op {i} traced: {errs}", file=sys.stderr)
            self.failed += 1
        return not errs


def layer_metrics(run: Run, tracer: Tracer, traced: dict, timed: list,
                  probes: dict) -> dict:
    """Per-layer metrics: per traced op from its spans, then the median
    over traced ops. ``traced`` maps op index to the traced op's seconds."""
    per_op = []
    par = run.sc.defaultParallelism
    for i, seconds in traced.items():
        spans = tracer.op_spans(i)
        op_index = tracer.spans.index(next(s for s in spans if s.name == "op"))
        m = {}
        for layer in LAYERS:
            ss = [s for s in spans if s.name == layer]
            m[f"{layer}.s"] = sum(s.seconds for s in ss)
            for c in ("spark_jobs", "spark_stages", "spark_tasks"):
                m[f"{layer}.{c}"] = sum(s.counts[c] for s in ss)
        graph = [s for s in spans if s.name == "graph"]
        for c in ("n_values", "n_attrs", "n_edges"):
            m[f"graph.{c}"] = graph[-1].counts[c]
        m["graph.edges_per_s"] = (
            sum(s.counts["n_edges"] for s in graph) / m["graph.s"])
        m["csr.bytes"] = sum(s.counts.get("bytes", 0) for s in spans if s.name == "csr")
        m["bc.sources"] = sum(s.counts.get("sources", 0) for s in spans if s.name == "bc")
        m["rank.rows"] = sum(s.counts.get("rows", 0) for s in spans if s.name == "rank")
        p = probes[i]
        m["bc.kernel_ms_per_source"] = p.get("kernel_ms_per_source", 0.0)
        m["bc.kernel_edges_per_s"] = p.get("kernel_edges_per_s", 0.0)
        m["bc.kernel_share"] = (
            m["bc.sources"] * m["bc.kernel_ms_per_source"] / 1e3 / par / m["bc.s"]
            if m["bc.s"] else 0.0)
        m["lcc.pairs"] = p.get("lcc_pairs", 0)
        m["lcc.pairs_per_s"] = m["lcc.pairs"] / m["lcc.s"] if m["lcc.s"] else 0.0
        m["pipeline.self_s"] = tracer.self_seconds(op_index)
        m["spark.failed_tasks"] = sum(s.counts.get("failed_tasks", 0) for s in spans)
        m["spark.cached_mb_after_op"] = p["cached_mb_after_op"]
        m["op.s"] = seconds
        per_op.append(m)
    out = {k: median([m[k] for m in per_op]) for k in per_op[0]}
    out["trace.overhead_s"] = out.pop("op.s") - median([x["seconds"] for x in timed])
    out["spark.jvm_peak_rss_mb"] = jvm_peak_rss_mb(run.sc)
    return out


def run_all(args, spec) -> int:
    """Every workload, each in its own process; one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True).stdout
        print(out, end="", flush=True)
        lines = out.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{w['name']}.{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    configure_environment()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"lakebench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")

    t0 = time.perf_counter()
    spark = start_spark()
    session_s = time.perf_counter() - t0
    try:
        run = Run(spark, WORKLOADS[args.workload](spark, args.seed))
        lake_s = [run.wl.setup() for _ in range(SETUP_REPEATS)]
        # Untimed warm-up: the first op on a fresh session is much slower.
        warm_s, _ = run.attempt(0, phase="warm-up")
        setup_s = session_s + median(lake_s) + warm_s

        tracer = Tracer(run.sc) if args.trace else None
        traced, probes = {}, {}
        start, i = time.perf_counter(), 1
        while i == 1 or time.perf_counter() - start < args.seconds:
            _, res = run.attempt(i)
            if tracer is not None and res is not None:
                ts, tres = run.attempt(i, tracer)
                if tres is not None:
                    probes[i] = {**run.wl.probes(tres), "cached_mb_after_op":
                                 run.samples[-1]["cached_mb_after_op"]}
                    if run.same_output(i, res, tres):
                        traced[i] = ts
            i += 1

        env = environment(run, args, n_ops=i)
        timed = [x for x in run.samples if x["phase"] == "timed" and not x["errors"]]
        e2e = {
            "op_s": median([x["seconds"] for x in timed]),
            "setup_s": setup_s,
            "driver_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        layers = (layer_metrics(run, tracer, traced, timed, probes)
                  if tracer is not None and traced else {})
    finally:
        stop_spark(spark)

    report_lines(args, run, env, e2e, timed, session_s, lake_s, warm_s)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = run.failed == 0 and len(metrics) == len(wanted)
    record = {"env": env, "setup": {"session_s": session_s, "lake_s": lake_s,
                                    "warmup_s": warm_s},
              "samples": run.samples, "metrics": metrics,
              "spans": tracer.records() if tracer is not None else []}
    runs = SCRATCH / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    shutil.rmtree(SCRATCH / "tmp", ignore_errors=True)
    shutil.rmtree(SCRATCH / "spark-local", ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def environment(run: Run, args, n_ops: int) -> dict:
    sc = run.sc
    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "cores": cores(),
        "master": sc.master, "parallelism": sc.defaultParallelism,
        "python": platform.python_version(), "spark": sc.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "numpy": numpy.__version__, "pandas": pandas.__version__,
        "workload": args.workload, "seed": args.seed,
        "op_seeds": [run.wl.op_seed(j) for j in range(n_ops)],
        "seconds": args.seconds, "trace": args.trace,
    }


def report_lines(args, run, env, e2e, timed, session_s, lake_s, warm_s) -> None:
    """Every end-to-end number by name, with unit and sample count."""
    print(f"lakebench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{run.attempted} ops attempted, {run.failed} failed")
    print("  " + " ".join(f"{k}={env[k]}" for k in (
        "git_sha", "nproc", "master", "python", "spark", "java", "numpy", "pandas")))

    def line(name, xs, unit, fmt=".4f"):
        print(f"  {name:<20} median {median(xs):{fmt}} {unit:<6} ({tail(xs)})")

    line("op_s", [x["seconds"] for x in timed], "s")
    for key in ("rank_bc_s", "rank_lcc_s", "precision_bc", "precision_lcc",
                "recovered_frac"):
        xs = [x[key] for x in timed if key in x]
        if xs:
            line(key, xs, "s" if key.endswith("_s") else "frac")
    line("setup_s", [e2e["setup_s"]], "s")
    print(f"    = session {session_s:.3f} s + median lake set-up "
          f"{median(lake_s):.3f} s (n={len(lake_s)}) + warm-up op {warm_s:.3f} s")
    line("driver_peak_rss_mb", [e2e["driver_peak_rss_mb"]], "MB", ".1f")
    print(f"  {'error_rate':<20} {run.failed / max(run.attempted, 1):.4f}       "
          f"(n={run.attempted})")


if __name__ == "__main__":
    sys.exit(main())
