"""Structure tests: a lake's incidences are collected once and shared.

``incidences(cells)`` is the one collect of a lake. Graph construction
and TUS-I injection run no more Spark jobs than that collect (injection
one more, to collect the column → domain table it is given), and D4 on
a lake needs nothing beyond it. The Definition-2 truth and D4 run no
Spark job on a collected frame, and the driver-side steps leave the
frame they share as they found it. The collect's one shuffle has one
reduce task per core, whatever the session's shuffle partitions.
"""
import pandas as pd
import pytest

from repro.baselines.d4 import discover_domains
from repro.core.graph import build_graph, graph_from_incidences, incidences
from repro.lakes.tus import definition2_truth, tus_lake
from repro.lakes.tus_inject import inject_homographs
from tests.fixtures import spark_jobs, spark_stage_tasks


@pytest.fixture(scope="module")
def lake(spark):
    return tus_lake(spark, sf=0.03, seed=3, n_planted=0, null_marker=False)


@pytest.fixture(scope="module")
def inc(lake):
    return incidences(lake.cells)


@pytest.mark.parametrize(
    "step, extra",
    [("build_graph", 0), ("inject_homographs", 1), ("discover_domains", 0)],
)
def test_no_more_jobs_than_one_incidences_collect(spark, lake, step, extra):
    domains = lake.column_domains(spark)
    run = {
        "build_graph": lambda: build_graph(lake.cells),
        "inject_homographs": lambda: inject_homographs(
            spark, lake.cells, domains, n=3, seed=1
        ),
        "discover_domains": lambda: discover_domains(incidences(lake.cells)),
    }[step]
    collect = spark_jobs(spark, f"{step}:collect", lambda: incidences(lake.cells))
    assert spark_jobs(spark, step, run) <= collect + extra


@pytest.mark.parametrize("step", ["definition2_truth", "discover_domains"])
def test_no_spark_job_on_collected_frame(spark, lake, inc, step):
    run = {
        "definition2_truth": lambda: definition2_truth(inc, lake.columns),
        "discover_domains": lambda: discover_domains(inc),
    }[step]
    assert spark_jobs(spark, f"{step}:driver", run) == 0


def test_shared_frame_unchanged(lake):
    # A fresh collect: the module's shared frame may have passed through
    # these steps already.
    inc = incidences(lake.cells)
    before = inc.copy()
    graph_from_incidences(inc)
    graph_from_incidences(inc, prune_unique=False)
    definition2_truth(inc, lake.columns)
    discover_domains(inc)
    pd.testing.assert_frame_equal(inc, before)


@pytest.mark.parametrize("partitions", [64, 200])
def test_one_reduce_task_per_core(spark, lake, partitions):
    """``incidences`` runs one shuffle, a map stage then a reduce stage
    of ``defaultParallelism`` tasks, and returns the distinct rows."""
    conf = spark.conf
    before = conf.get("spark.sql.shuffle.partitions")
    conf.set("spark.sql.shuffle.partitions", partitions)
    try:
        got = []
        tasks = spark_stage_tasks(
            spark, f"reduce_tasks:{partitions}",
            lambda: got.append(incidences(lake.cells)),
        )
    finally:
        conf.set("spark.sql.shuffle.partitions", before)
    assert len(tasks) == 2
    assert tasks[-1] == spark.sparkContext.defaultParallelism
    assert not got[0].duplicated().any()
