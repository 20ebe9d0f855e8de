"""Workload generators for the benchmark.

Each workload is a pure function of the seed that returns a ``Workload``:
the long-format series frame and truth frame the Spark job takes (same
shape as ``repro.datasets``), plus the algorithms the job runs.  Input
generation is never timed.

* ``table7``: the paper's Table 7/8 suite (3-period sine, periods 20/50/100
  scaled to N, sigma^2=0.1, eta=0.01, trend) at N = 500/1000/2000, run with
  the four multi-period algorithms.  Kernel calls are cheap, so Spark
  overhead dominates the job.
* ``null-mix``: aperiodic controls with truth ``[]`` (white noise, AR(1)
  phi=0.9, random walk, level shift + noise) at N = 500/1000/2000.  Low
  wavelet levels get selected, so the Huber-periodogram solve covers
  ~N/2 bins and dominates the kernel.
* ``cloud-long``: ``repro.datasets.cloud_like`` over several seeds
  (N = 1008..7200, periods 24..1440).  High levels get selected, so the
  Huber bands are narrow and preprocessing / MODWT carry the kernel.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro import datasets

LENGTHS = (500, 1000, 2000)
NULL_KINDS = ("white_noise", "ar1", "random_walk", "level_shift")
MULTI_ALGOS = ("siegel", "autoperiod", "wavelet_fisher", "robust_period")

# Series per workload; ``tiny`` is the self-test size.  Sizes keep a run
# short (set-up alone is ~30 s on 4 cores) while each statistic falls
# inside a cost cluster instead of in the gap between two, where it would
# jump from seed to seed.  table7 counts are per length: N=500 costs are
# bimodal (15-20 or 40-55 ms) and overlap the N=1000 cluster, so with equal
# counts the median moved 30% between seeds; with most series at N=2000
# the median and the tail (11th slowest) both lie inside that cluster.
# null-mix counts are per kind and length: the tail lies inside the ten
# N=1000 white-noise / level-shift series (the quadratic Huber solve; the
# four N=2000 series sit above it), the median inside the N=500 cluster.
SIZES = {
    "table7": {"full": {500: 6, 1000: 6, 2000: 24},
               "tiny": {500: 1, 1000: 1, 2000: 1}},
    "null-mix": {"full": {500: 6, 1000: 5, 2000: 1},
                 "tiny": {500: 1, 1000: 1, 2000: 1}},
    "cloud-long": {"full": 8, "tiny": 1},              # cloud_like seeds
}


@dataclass
class Workload:
    name: str
    data: pd.DataFrame        # dataset, series_id, t, y
    truth: pd.DataFrame       # dataset, series_id, periods (JSON list)
    algos: tuple[str, ...]

    def series(self) -> list[tuple[tuple[str, int], np.ndarray]]:
        """((dataset, series_id), y) per series, in truth order."""
        groups = {k: g.sort_values("t")["y"].to_numpy(dtype=float)
                  for k, g in self.data.groupby(["dataset", "series_id"])}
        return [((d, int(s)), groups[(d, s)])
                for d, s in zip(self.truth.dataset, self.truth.series_id)]


def _frames(rows: list[tuple[str, int, np.ndarray, list[int]]]):
    data = pd.DataFrame({
        "dataset": np.concatenate([[d] * y.size for d, _, y, _ in rows]),
        "series_id": np.concatenate(
            [np.full(y.size, s, dtype=np.int64) for _, s, y, _ in rows]),
        "t": np.concatenate([np.arange(y.size, dtype=np.int64)
                             for _, _, y, _ in rows]),
        "y": np.concatenate([y for _, _, y, _ in rows]),
    })
    truth = pd.DataFrame([(d, s, json.dumps(p)) for d, s, _, p in rows],
                         columns=["dataset", "series_id", "periods"])
    return data, truth


def null_series(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One aperiodic series of length ``n`` (truth: no period)."""
    e = rng.normal(0.0, 1.0, n)
    if kind == "white_noise":
        return e
    if kind == "ar1":
        y = np.empty(n)
        y[0] = e[0] / np.sqrt(1.0 - 0.9 ** 2)   # stationary start
        for i in range(1, n):
            y[i] = 0.9 * y[i - 1] + e[i]
        return y
    if kind == "random_walk":
        return np.cumsum(e)
    if kind == "level_shift":
        cp = int(rng.integers(n // 4, 3 * n // 4))
        e[cp:] += rng.uniform(2.0, 5.0) * rng.choice([-1.0, 1.0])
        return e
    raise ValueError(f"unknown null kind {kind!r}")


def table7(seed: int, per_length: dict[int, int]) -> Workload:
    frames, truths = [], []
    for n in LENGTHS:
        periods = tuple(max(4, int(round(p * n / 1000.0))) for p in (20, 50, 100))
        d, t = datasets.synthetic_suite(kind="sin", periods=periods, n=n,
                                        noise_var=0.1, outlier_ratio=0.01,
                                        n_series=per_length[n], seed=seed,
                                        name=f"len{n}")
        frames.append(d)
        truths.append(t)
    return Workload("table7", pd.concat(frames, ignore_index=True),
                    pd.concat(truths, ignore_index=True), MULTI_ALGOS)


def null_mix(seed: int, per_length: dict[int, int]) -> Workload:
    rows = []
    for k, kind in enumerate(NULL_KINDS):
        for n in LENGTHS:
            for i in range(per_length[n]):
                rng = np.random.default_rng([seed, k, n, i])
                rows.append((f"{kind}_{n}", i, null_series(kind, n, rng), []))
    data, truth = _frames(rows)
    return Workload("null-mix", data, truth, ("robust_period",))


def cloud_long(seed: int, n_seeds: int) -> Workload:
    frames, truths = [], []
    for j in range(n_seeds):
        d, t = datasets.cloud_like(seed=seed * 1000 + j)
        # cloud_like numbers its six series 1..6; keep (dataset, series_id)
        # unique across the seeds.
        for f in (d, t):
            f["series_id"] = f["series_id"] + 10 * j
        frames.append(d)
        truths.append(t)
    return Workload("cloud-long", pd.concat(frames, ignore_index=True),
                    pd.concat(truths, ignore_index=True), ("robust_period",))


GENERATORS = {"table7": table7, "null-mix": null_mix, "cloud-long": cloud_long}

# (kernel rounds, Spark jobs) per run at NOMINAL_SECONDS; a run of other
# length scales both, at least one each.  Every commit then does the same
# work in a run, so latency statistics cover the same samples.  On 4 cores
# a table7 round takes ~3 s and a job ~4 s; a null-mix round ~11 s and a
# job ~7 s; set-up adds ~30 s to every run.
NOMINAL_SECONDS = 15.0
PLAN = {"table7": (1, 3), "null-mix": (1, 1), "cloud-long": (1, 1)}

def plan(name: str, seconds: float) -> tuple[int, int]:
    return tuple(max(1, round(n * seconds / NOMINAL_SECONDS)) for n in PLAN[name])


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return GENERATORS[name](seed, SIZES[name]["tiny" if tiny else "full"])
