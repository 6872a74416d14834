import sys

import pytest
from hypothesis import settings
from pyspark.sql import SparkSession

from repro.spark_util import get_session

# Property tests draw the same examples on every run (no flaky tier-1),
# a bounded number of them, with no per-example time limit on a slow box.
settings.register_profile("repro", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, configured
    exactly as the jobs' sessions are (``repro.spark_util.get_session``)."""
    s = get_session("repro")
    sc = s.sparkContext
    # One line in the test log with what the session runs on.
    print(
        f"[conftest] master={sc.master} "
        f"defaultParallelism={sc.defaultParallelism} "
        f"spark.driver.memory={sc.getConf().get('spark.driver.memory')}",
        file=sys.stderr,
    )
    yield s
    s.stop()
