"""Digest of every detector's output on a fixed series set, to check that a
change keeps outputs (or to show which ones it moves).

Run from the repository root:

    python3 tools/output_digest.py digest.json          # this checkout
    python3 tools/output_digest.py --compare A.json B.json

Writing a digest takes about 9 minutes on one core of a 4-core cloud VM.

The set is 1466 distinct series: the T1-T8 runner defaults of
``repro.experiments.tables`` (T4 on its cloud set), perfbench ``table7``
and ``null-mix`` at seeds 401-410, and perfbench ``cloud-long`` at seed 7.
A series that recurs (T6's and T8's series are also in T2) is kept once,
under its first name.  Per series the digest holds the sorted period list
of every ``repro.sparkrun.detect.ALGOS`` entry (or the exception it
raised) and every ``detect_full`` ``LevelResult``, robust and NR, with
floats as ``repr``.

``--compare`` prints every differing period list and every differing
``LevelResult`` field except ``variance`` and ``pvalue``, whose largest
relative drift it prints instead.  It exits with 1 when a period list, a
level's ``selected``, ``candidate``, ``k_star`` or ``period`` differs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from repro import datasets  # noqa: E402
from repro.core.robust_period import LevelResult, detect_full  # noqa: E402
from repro.experiments.tables import length_suite  # noqa: E402
from repro.sparkrun.detect import ALGOS  # noqa: E402

FIELDS = list(LevelResult.__dataclass_fields__)
FLOATS = ("variance", "pvalue")


def table_sets():
    """(name, (data, truth)) of the table runners' inputs, default args."""
    def suite(kind, periods, nv, eta, n_series, seed, name):
        return datasets.synthetic_suite(kind=kind, periods=periods,
                                        noise_var=nv, outlier_ratio=eta,
                                        n_series=n_series, seed=seed,
                                        name=name)
    p3 = (20, 50, 100)
    return [
        ("T1", suite("sin", (100,), 0.1, 0.01, 50, 0, "sin_mild")),
        ("T1", suite("sin", (100,), 2.0, 0.2, 50, 1, "sin_severe")),
        ("T1", datasets.cran_like(n_series=82, seed=7)),
        ("T2", suite("sin", p3, 0.1, 0.01, 50, 0, "sin_mild")),
        ("T2", suite("sin", p3, 1.0, 0.1, 50, 1, "sin_severe")),
        ("T2", datasets.yahoo_like("A3", n_series=40, seed=11)),
        ("T2", datasets.yahoo_like("A4", n_series=40, seed=11)),
        ("T3", suite("square", p3, 0.1, 0.01, 50, 0, "square")),
        ("T3", suite("triangle", p3, 0.1, 0.01, 50, 0, "triangle")),
        ("T4", datasets.cloud_like(seed=23)),
        ("T5", suite("sin", p3, 2.0, 0.2, 50, 0, "sin_ablation")),
        ("T6", datasets.yahoo_like("A4", n_series=20, seed=11)),
        ("T78", length_suite(n_series=30, seed=0, lengths=(500, 1000, 2000))),
    ]


def series_set() -> list[tuple[str, np.ndarray]]:
    import workloads
    out, seen = [], set()

    def add(source, data, truth):
        groups = {k: g.sort_values("t")["y"].to_numpy(dtype=float)
                  for k, g in data.groupby(["dataset", "series_id"])}
        for d, s in zip(truth.dataset, truth.series_id):
            y = groups[(d, s)]
            if y.tobytes() not in seen:
                seen.add(y.tobytes())
                out.append((f"{source}/{d}/{int(s)}", y))

    for source, (data, truth) in table_sets():
        add(source, data, truth)
    for name in ("table7", "null-mix"):
        for seed in range(401, 411):
            wl = workloads.make(name, seed)
            add(f"{name}@{seed}", wl.data, wl.truth)
    wl = workloads.make("cloud-long", 7)
    add("cloud-long@7", wl.data, wl.truth)
    return out


def digest_one(y: np.ndarray) -> dict:
    algos = {}
    for name, fn in ALGOS.items():
        try:
            algos[name] = sorted(int(p) for p in fn(y))
        except Exception as e:      # recorded: a change may raise or stop
            algos[name] = f"{type(e).__name__}: {e}"
    levels = {}
    for key, robust in (("robust", True), ("nr", False)):
        levels[key] = [[repr(v) if isinstance(v, float) else v
                        for v in astuple(lv)]
                       for lv in detect_full(y, robust=robust).levels]
    return {"algos": algos, **levels}


def compare(a: dict, b: dict) -> int:
    bad = 0
    drift = {f: 0.0 for f in FLOATS}
    rows = 0
    if a.keys() != b.keys():
        print(f"series sets differ: {len(a.keys() ^ b.keys())} keys")
        bad += 1
    for key in sorted(a.keys() & b.keys()):
        da, db = a[key], b[key]
        for algo in sorted(da["algos"].keys() | db["algos"].keys()):
            pa, pb = da["algos"].get(algo), db["algos"].get(algo)
            if pa != pb:
                print(f"{key} {algo}: {pa} -> {pb}")
                bad += 1
        for kind in ("robust", "nr"):
            la, lb = da[kind], db[kind]
            if len(la) != len(lb):
                print(f"{key} {kind}: {len(la)} -> {len(lb)} levels")
                bad += 1
                continue
            for ra, rb in zip(la, lb):
                rows += 1
                for f, va, vb in zip(FIELDS, ra, rb):
                    if f in FLOATS:
                        fa, fb = float(va), float(vb)
                        if fa != fb:
                            drift[f] = max(drift[f], abs(fb - fa)
                                           / max(abs(fa), abs(fb)))
                    elif va != vb:
                        print(f"{key} {kind} level {ra[0]} {f}: {va} -> {vb}")
                        bad += 1
    print(f"{len(a)} series, {rows} level rows, {bad} differences; "
          + ", ".join(f"max relative {f} drift {d:.3g}"
                      for f, d in drift.items()))
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", nargs="?", help="write this checkout's digest here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        return compare(a, b)
    if not args.out:
        p.error("give an output file or --compare A B")
    result = {key: digest_one(y) for key, y in series_set()}
    Path(args.out).write_text(json.dumps(result, indent=0, sort_keys=True))
    print(f"{len(result)} series -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
