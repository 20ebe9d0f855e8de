"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

A tiny run of each workload (one series per cell) must print every metric
BENCHMARK.json names, with its unit, and pass its correctness check; a
mismatch planted between the job pass and the kernel pass must fail its
series.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import kernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_matches_the_program():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.GENERATORS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.LAYERS)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == {
            name: row[:2] for name, row in table.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_tiny_run_prints_every_metric(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def _job_rows(kres) -> pd.DataFrame:
    """Detection rows exactly as a correct job pass would return them."""
    return pd.DataFrame(
        [(d, s, algo, json.dumps(p), len(p), 0.0)
         for ((d, s), algo), p in kres.periods.items()],
        columns=["dataset", "series_id", "algo", "periods", "n_periods",
                 "elapsed_s"])


def test_planted_mismatch_fails_its_series():
    wl = workloads.make("table7", seed=5, tiny=True)
    kres = kernel.run(wl.series(), wl.algos, rounds=1)
    rows = _job_rows(kres)
    score = check.expected_score(kres.periods, wl.truth)
    assert check.failures(kres, wl, [(rows, score)]) == {}

    planted = rows.copy()
    planted.loc[0, "periods"] = json.dumps([7])           # wrong periods
    dropped = rows.drop(index=1)                           # missing row
    doubled = pd.concat([rows, rows.iloc[[2]]])            # duplicated row
    for bad in (planted, dropped, doubled):
        failed = check.failures(kres, wl, [(rows, score), (bad, score)])
        assert len(failed) == 1, failed

    off = score.copy()
    off.loc[off.index[0], "f1"] += 0.01                   # wrong score row
    failed = check.failures(kres, wl, [(rows, off)])
    ds = off.loc[off.index[0], "dataset"]
    assert set(failed) == {k for k, _ in wl.series() if k[0] == ds}


def test_workloads_are_deterministic_in_the_seed():
    for name in workloads.GENERATORS:
        a = workloads.make(name, seed=3, tiny=True)
        b = workloads.make(name, seed=3, tiny=True)
        c = workloads.make(name, seed=4, tiny=True)
        assert a.data.equals(b.data) and a.truth.equals(b.truth)
        assert not a.data["y"].equals(c.data["y"])
        assert not a.truth.duplicated(["dataset", "series_id"]).any()
    null = workloads.make("null-mix", seed=3, tiny=True)
    assert set(null.truth.periods) == {"[]"}
