"""The Spark session of a benchmark run, and Spark job/task counting.

The session uses the settings of ``jobs/_common.get_spark`` (64 shuffle
partitions, Arrow on, auto-broadcast off) on ``local[nproc]`` with the UI
and the console progress bar off. Scratch files, the warehouse and the
JVM's temporary directory all live in the run's work directory.
"""
from __future__ import annotations

import os
import subprocess
import time

SHUFFLE_PARTITIONS = "64"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def start(work: str, src: str):
    """Start the session; returns ``(spark, conf)`` where ``conf`` is the
    dict of settings to record in the output."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # python workers import repro from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp  # it would override spark.local.dir
    from pyspark.sql import SparkSession

    conf = {
        "spark.master": f"local[{nproc()}]",
        "spark.driver.memory": "2g",
        "spark.driver.host": "127.0.0.1",
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={tmp}",
        "spark.local.dir": tmp,
        "spark.sql.warehouse.dir": os.path.join(work, "warehouse"),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.shuffle.partitions": SHUFFLE_PARTITIONS,
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }
    builder = SparkSession.builder.appName("monilog-perfbench")
    for k, v in conf.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark, conf


def stop(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class JobCounter:
    """Counts the Spark jobs, tasks and failed tasks of each phase.

    A phase runs under its own job group; the counts are read from
    ``SparkContext.statusTracker()`` once the listener bus has caught up.
    """

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self._n = 0

    def group(self, name: str) -> str:
        self._n += 1
        group = f"{name}#{self._n}"
        self.sc.setJobGroup(group, name)
        return group

    def counts(self, group: str, timeout_s: float = 10.0) -> dict[str, int]:
        st = self.sc.statusTracker()
        deadline = time.monotonic() + timeout_s
        while True:
            jobs = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
            if (all(j is not None and j.status in ("SUCCEEDED", "FAILED") for j in jobs)
                    or time.monotonic() > deadline):
                break
            time.sleep(0.05)
        tasks = failed = 0
        for j in jobs:
            for sid in list(j.stageIds) if j is not None else ():
                s = st.getStageInfo(sid)
                if s is not None:
                    tasks += s.numCompletedTasks + s.numFailedTasks
                    failed += s.numFailedTasks
        return {"jobs": len(jobs), "tasks": tasks, "tasks_failed": failed}
