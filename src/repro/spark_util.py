"""The one SparkSession configuration, shared by jobs and tests.

Jobs call :func:`get_session` directly; tests get the session from the
``spark`` fixture in conftest.py, which calls it once per test session.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app_name: str = "repro-job") -> SparkSession:
    """Local session; returns the running one if it already exists.

    spark.driver.memory only takes effect when the driver JVM launches.
    PySpark launches it on the first session in the process and passes
    these builder configs to spark-submit as ``--conf``, so the value set
    here is honoured then; a ``--driver-memory`` in PYSPARK_SUBMIT_ARGS
    overrides it, and once a JVM is running it is ignored.

    Broadcast joins are disabled so the exact-count joins exercise the
    shuffle path.
    """
    return (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.memory", os.environ.get("SPARK_DRIVER_MEM", "8g"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
