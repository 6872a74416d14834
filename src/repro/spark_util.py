"""The one SparkSession configuration, shared by jobs and tests.

Spark runs only PARABACUS's ``RDDExecutor``: one RDD job per mini-batch,
with no SQL, no shuffle and no pandas conversion, so the session sets
nothing beyond master, driver memory, host and UI.

Jobs call :func:`get_session` directly; tests get the session from the
``spark`` fixture in conftest.py, which calls it once per test session.
This is the only module under ``repro`` that imports pyspark.
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
    """
    return (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.memory", os.environ.get("SPARK_DRIVER_MEM", "8g"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
