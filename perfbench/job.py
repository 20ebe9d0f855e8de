"""Job pass: the Spark batch the table runners use, on a local session.

``detect_periods`` → ``score`` → ``toPandas()``, exactly as
``repro.experiments.tables`` composes them (detections cached between the
two).  The traced variant splits the same job into ingest, detect and
score by materialising each with an action, and reads per-task kernel
time from the job's own ``elapsed_s`` column.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

DRIVER_MEMORY = "2g"
# The session confs the test fixture sets (conftest.py), plus what a
# benchmark needs to run unattended: no UI, no console progress bar.
SESSION_CONF = {
    "spark.driver.memory": DRIVER_MEMORY,
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


def prepare_env(src: Path, tmp: Path) -> None:
    """Point the JVM and its Python workers at ``src`` and keep every
    temporary file under ``tmp``.  Must run before the first session."""
    tmp.mkdir(parents=True, exist_ok=True)
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in paths if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ.pop("PYSPARK_GATEWAY_PORT", None)
    os.environ["TMPDIR"] = str(tmp)
    # Both JVMs (spark-submit's launcher and the driver) keep temporary
    # files, including HotSpot's perf-data file, out of /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)


def start_session(cores: int, tmp: Path):
    """A ``local[cores]`` session; ``prepare_env`` must have run."""
    from pyspark.sql import SparkSession
    b = SparkSession.builder.master(f"local[{cores}]").appName("perfbench")
    conf = dict(SESSION_CONF)
    conf["spark.executorEnv.PYTHONPATH"] = os.environ["PYTHONPATH"]
    conf["spark.local.dir"] = str(tmp)
    for k, v in conf.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the gateway JVM this process launched and wait for it."""
    from pyspark import SparkContext
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()   # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_job(spark, wl):
    """One job as the table runners compose it: (seconds, detections, score)."""
    from repro.sparkrun.detect import detect_periods
    from repro.sparkrun.metrics import score
    t0 = time.perf_counter()
    det = detect_periods(spark, wl.data, wl.algos)
    det.cache()
    s = score(spark, det, wl.truth).toPandas()
    dt = time.perf_counter() - t0
    rows = det.toPandas()
    det.unpersist()
    return dt, rows, s


def run_traced_job(spark, wl, cores: int):
    """The same job split into ingest / detect / score with an action at
    each boundary.  Returns (timings, detections, score)."""
    from pyspark.sql import functions as F
    from repro.sparkrun import detect as sd
    from repro.sparkrun.metrics import score
    mark = {}
    orig = sd.series_df
    cached = []

    def ingest(spark_, data, partitions=None):
        sdf = orig(spark_, data, partitions).cache()
        sdf.count()
        cached.append(sdf)
        mark["ingest"] = time.perf_counter()
        return sdf

    sd.series_df = ingest
    try:
        t0 = time.perf_counter()
        det = (sd.detect_periods(spark, wl.data, wl.algos)
               .withColumn("task", F.spark_partition_id()).cache())
        det.count()
        t_det = time.perf_counter()
        s = score(spark, det, wl.truth).toPandas()
        t_end = time.perf_counter()
    finally:
        sd.series_df = orig
    rows = det.toPandas()
    det.unpersist()
    for c in cached:
        c.unpersist()
    per_task = rows.groupby("task")["elapsed_s"].sum().to_numpy()
    detect_s = t_det - mark["ingest"]
    kernel_s = float(rows["elapsed_s"].sum())
    t = {
        "job_s": t_end - t0,
        "ingest_s": mark["ingest"] - t0,
        "detect_s": detect_s,
        "score_s": t_end - t_det,
        "detect.tasks": float(per_task.size),
        "detect.kernel_s": kernel_s,
        "detect.busy_frac": kernel_s / (detect_s * cores),
        "detect.task_skew": float(per_task.max() / np.median(per_task)),
        "score.rows": float(len(s)),
    }
    return t, rows.drop(columns=["task"]), s


def first_job(spark, wl, cores: int) -> None:
    """The job that ends set-up: the workload's algorithms on its first
    ``2 * cores`` series, enough groups to start a Python worker on every
    core, so workers, imports and filter construction are warm."""
    from repro.sparkrun.detect import detect_periods
    from repro.sparkrun.metrics import score
    truth = wl.truth.iloc[:2 * cores]
    keys = truth[["dataset", "series_id"]]
    data = wl.data.merge(keys, on=["dataset", "series_id"])
    det = detect_periods(spark, data, wl.algos)
    det.cache()
    score(spark, det, truth).toPandas()
    det.unpersist()
