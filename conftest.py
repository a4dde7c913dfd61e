import os
import sys

os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

from repro.core.graph import build_graph  # noqa: E402
from repro.eval.experiments import spark_session  # noqa: E402
from repro.lakes.datalake import lake_from_tables  # noqa: E402
from tests.fixtures import EXAMPLE31_TABLES, FIGURE1_TABLES  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One SparkSession for the whole test session, with the experiments'
    settings; master and driver memory come from ``PYSPARK_SUBMIT_ARGS``
    (set above, before the JVM launches)."""
    s = spark_session()
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()


@pytest.fixture(scope="session")
def fig1(spark):
    """The paper's Figure 1 lake."""
    return lake_from_tables(spark, FIGURE1_TABLES)


@pytest.fixture(scope="session")
def g31(spark):
    """The unpruned graph of the Example 3.1 sub-lake."""
    return build_graph(lake_from_tables(spark, EXAMPLE31_TABLES), prune_unique=False)
