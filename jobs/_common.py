"""Shared session bootstrap for spark-submit entrypoints.

Each ``jobs/tableN.py`` is a thin wrapper over a function in
``repro.experiments.tables`` that takes a SparkSession and returns a
DataFrame — run as ``spark-submit jobs/tableN.py [n_series]``.
"""
from __future__ import annotations

import sys

from pyspark.sql import SparkSession

from repro.sparkrun import SESSION_CONF


def get_spark(app: str) -> SparkSession:
    return (SparkSession.builder.appName(app).config(map=SESSION_CONF)
            .getOrCreate())


def arg_n_series(default: int) -> int:
    return int(sys.argv[1]) if len(sys.argv) > 1 else default


def show(title: str, df) -> None:
    print(f"\n=== {title} ===")
    print(df.to_string())
