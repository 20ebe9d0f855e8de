"""Spark layer: per-series detection (``detect``) and scoring (``metrics``)."""

#: Session confs shared by ``jobs/_common.get_spark`` and the test fixture:
#: Arrow transfers for pandas UDFs and ``toPandas``, no broadcast joins, and
#: the shuffle partition count of ``detect.timing_summary``'s groupBy (the
#: scoring aggregate runs on one partition and does not shuffle).
SESSION_CONF = {
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.shuffle.partitions": "64",
}
