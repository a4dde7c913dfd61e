"""Structure test: each lake-side step collects the incidences once.

Graph construction, TUS-I injection and D4 run no more Spark jobs than
one ``incidences(cells).toPandas()`` of the same lake; injection may run
one more, to collect the column → domain table.
"""
import pytest

from repro.baselines.d4 import discover_domains
from repro.core.graph import build_graph, incidences
from repro.lakes.tus import tus_lake
from repro.lakes.tus_inject import inject_homographs


def _jobs(spark, group, fn) -> int:
    """Spark jobs that ``fn()`` runs, counted through a job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture(scope="module")
def lake(spark):
    return tus_lake(spark, sf=0.03, seed=3, n_planted=0, null_marker=False)


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
        "discover_domains": lambda: discover_domains(lake.cells),
    }[step]
    collect = _jobs(spark, f"{step}:collect", lambda: incidences(lake.cells).toPandas())
    assert _jobs(spark, step, run) <= collect + extra
