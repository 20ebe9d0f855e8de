"""Repository benchmark: RobustPeriod's kernel and its Spark job, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload table7 --seed 1 --seconds 20 --trace 0

Each run is a closed loop from this one driver process (one call or job at
a time; the next starts when the previous one ends) over one generated
workload (``workloads.py``; BENCHMARK.json lists table7 and null-mix,
cloud-long runs on request).  ``--seconds`` scales the work a run does
(``workloads.plan``), so every commit measures the same calls:

1. kernel pass: every per-series call in this process, single-threaded,
   in whole rounds over the workload;
2. set-up, three times: start a ``local[nproc]`` session (the first start
   launches the JVM) and run a first job on ``2 * nproc`` series, so a
   Python worker starts on every core; ``setup_s`` is the median;
3. job pass: the table runners' Spark batch, ``detect_periods`` →
   ``score`` → ``toPandas()`` over the whole workload.

The kernel pass is the reference: every (series, algorithm) the job
returns must equal it, and the score frame must equal a pandas
recomputation from it.  Every mismatch fails its series and is listed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the kernel pass records a span per stage call, the
untraced jobs are followed by one split at ingest / detect / score, and the
last line carries the per-layer metrics (``LAYERS`` below says which
end-to-end metric each should move, and on which workload).  The spans
are written once, at the end, to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# One BLAS / OpenMP thread per process, set before numpy loads: the kernel
# pass is single-threaded, and the job's nproc Python workers inherit it,
# so they run nproc threads in all.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUPS = 3

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "job_s": ("s", "lower"),
    "series_ms_p50": ("ms", "lower"),
    "series_ms_tail": ("ms", "lower"),
    "ok_frac": ("ratio", "higher"),
}

# name -> (unit, better, end-to-end metric it should move, workloads)
LAYERS = {
    "preprocess.ms": ("ms", "lower", "series_ms_p50, job_s", "cloud-long, table7"),
    "preprocess.share": ("ratio", "lower", "series_ms_p50, job_s", "cloud-long, table7"),
    "wavelets.ms": ("ms", "lower", "series_ms_p50, job_s", "cloud-long, table7"),
    "wavelets.share": ("ratio", "lower", "series_ms_p50, job_s", "cloud-long, table7"),
    "wavelets.levels_selected": ("count", "lower", "series_ms_p50, job_s", "cloud-long, table7"),
    "huber.ms": ("ms", "lower", "series_ms_tail, job_s; series_ms_p50", "null-mix; table7"),
    "huber.share": ("ratio", "lower", "series_ms_tail, job_s; series_ms_p50", "null-mix; table7"),
    "huber.calls": ("count", "lower", "series_ms_tail, job_s; series_ms_p50", "null-mix; table7"),
    "huber.band_bins": ("count", "lower", "series_ms_tail, job_s; series_ms_p50", "null-mix; table7"),
    "huber.us_per_bin": ("us", "lower", "series_ms_tail, job_s; series_ms_p50", "null-mix; table7"),
    "fisher.ms": ("ms", "lower", "spurious_frac", "null-mix"),
    "fisher.sig_frac": ("ratio", "lower", "spurious_frac", "null-mix"),
    "acf.ms": ("ms", "lower", "spurious_frac", "null-mix"),
    "acf.accept_frac": ("ratio", "lower", "spurious_frac", "null-mix"),
    "robust_period.self_ms": ("ms", "lower", "series_ms_p50", "all"),
    "robust_period.f1": ("ratio", "higher", "(none: table numbers)", "table7, cloud-long"),
    "robust_period.spurious_frac": ("ratio", "lower", "(none: table numbers)", "null-mix"),
    "ingest_s": ("s", "lower", "job_s", "table7, cloud-long"),
    "detect_s": ("s", "lower", "job_s", "table7, cloud-long"),
    "detect.tasks": ("count", "higher", "job_s", "table7, cloud-long"),
    "detect.busy_frac": ("ratio", "higher", "job_s", "table7, cloud-long"),
    "detect.task_skew": ("ratio", "lower", "job_s", "all"),
    "detect.kernel_s": ("s", "lower", "job_s", "all"),
    "job.overhead_frac": ("ratio", "lower", "job_s", "table7"),
    "score_s": ("s", "lower", "job_s", "table7"),
    "score.rows": ("count", "lower", "job_s", "table7"),
    "setup.session_s": ("s", "lower", "setup_s", "all"),
    "setup.first_job_s": ("s", "lower", "setup_s", "all"),
    "setup.cold_s": ("s", "lower", "setup_s", "all"),
    "trace.overhead_s": ("s", "lower", "(none: cost of tracing)", "all"),
}


def env_stamp(args, driver_memory: str) -> dict:
    import numpy as np
    import pandas as pd
    import pyarrow
    import pyspark
    mem = "unknown"
    try:
        with open("/proc/meminfo") as f:
            mem = next(l.split(":", 1)[1].strip() for l in f
                       if l.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "mem_total": mem,
        "driver_memory": driver_memory, "python": platform.python_version(),
        "pyspark": pyspark.__version__, "numpy": np.__version__,
        "pandas": pd.__version__, "pyarrow": pyarrow.__version__,
        "openblas": openblas_info(), "commit": git_commit(),
    }


def openblas_info() -> str:
    """OpenBLAS build config (holds MAX_THREADS) and its thread count."""
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libopenblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            try:
                cfg = getattr(lib, f"openblas_get_config{suffix}")
                nth = getattr(lib, f"openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            cfg.restype = ctypes.c_char_p
            return f"{cfg().decode()}; num_threads={nth()}"
    return "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs since boot, from /proc/stat.
    Steal is time the hypervisor ran other guests on this VM's CPUs."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (v[7] if len(v) > 7 else 0), sum(v)


def median(xs) -> float:
    return float(statistics.median(xs))


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("table7", "null-mix", "cloud-long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one series per cell (self-test size)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    marks = []

    def mark(name):
        marks.append((name, time.perf_counter(), cpu_ticks()))

    mark("start")
    args = parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import job
    import kernel
    import workloads

    tmp = OUT / "tmp"
    job.prepare_env(SRC, tmp)
    cores = os.cpu_count() or 1
    stamp = env_stamp(args, job.DRIVER_MEMORY)
    wl = workloads.make(args.workload, args.seed, args.tiny)
    series = wl.series()
    traced = bool(args.trace)

    rounds, n_jobs = workloads.plan(args.workload, args.seconds)
    mark("kernel_pass")
    kres = kernel.run(series, wl.algos, rounds, traced)

    setups, jobs, job_runs = [], [], []
    spark = None
    try:
        mark("setups")
        for _ in range(SETUPS):
            if spark is not None:
                spark.stop()
            t0 = time.perf_counter()
            spark = job.start_session(cores, tmp)
            t1 = time.perf_counter()
            job.first_job(spark, wl, cores)
            setups.append((t1 - t0, time.perf_counter() - t1))
        mark("job_pass")
        for _ in range(n_jobs):
            dt, rows, s = job.run_job(spark, wl)
            jobs.append(dt)
            job_runs.append((rows, s))
        if traced:
            split, rows, s = job.run_traced_job(spark, wl, cores)
            job_runs.append((rows, s))
    finally:
        mark("stop")
        if spark is not None:
            spark.stop()
        job.stop_jvm()
        mark("end")
    phases = {f"{name}_s": round(b - a, 3)
              for (name, a, _), (_, b, _) in zip(marks, marks[1:])}
    steal = {name: round((b[0] - a[0]) / max(b[1] - a[1], 1), 3)
             for (name, _, a), (_, _, b) in zip(marks, marks[1:])}

    failed = check.failures(kres, wl, job_runs)
    for (ds, sid), msg in sorted(failed.items()):
        print(f"FAILED {ds}/{sid}: {msg}")

    lat = kernel.latency(kres)
    q = check.quality(kres.periods, wl.truth)
    details = {
        "env": stamp, "series": len(series), "algos": list(wl.algos),
        "kernel_rounds": kres.rounds, "jobs": len(jobs), "phases": phases,
        "steal_frac": steal,
        "latency": lat,
        "algo_ms_mean": {a: sum(v) / len(v) for a, v in kres.algo_ms.items()},
        "setups_s": setups, "jobs_s": jobs, **q,
        "failed_frac": len(failed) / len(series),
        "failed_series": [f"{d}/{s}" for d, s in sorted(failed)],
    }
    setup_total = [a + b for a, b in setups]
    if not traced:
        values = {
            "setup_s": median(setup_total),
            "job_s": median(jobs),
            "series_ms_p50": lat["p50_ms"],
            "series_ms_tail": lat["tail_ms"],
            "ok_frac": 1.0 - len(failed) / len(series),
        }
        table = END_TO_END
    else:
        values = kernel.layer_metrics(kres)
        values["robust_period.f1"] = q["f1"]
        values["robust_period.spurious_frac"] = q["spurious_frac"]
        values.update((k, v) for k, v in split.items() if k != "job_s")
        job_s = median(jobs)
        values["job.overhead_frac"] = (
            (job_s - values["detect.kernel_s"] / cores) / job_s)
        values["setup.session_s"] = median(a for a, _ in setups)
        values["setup.first_job_s"] = median(b for _, b in setups)
        values["setup.cold_s"] = setup_total[0]
        values["trace.overhead_s"] = split["job_s"] - job_s
        table = LAYERS
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({
            "env": stamp,
            "span_clock": "process CPU seconds",
            "span_fields": ["name", "start", "end", "parent", "call", "info"],
            "spans": kres.tracer.spans, "job": split}))
        details["spans_file"] = str(path.relative_to(ROOT))
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(series),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
