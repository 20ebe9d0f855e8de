"""Kernel pass: every per-series call, in this process, one at a time.

The untraced pass calls the registry functions the Spark job calls
(``repro.sparkrun.detect.ALGOS``).  The traced pass rebinds, in this
process only, the names ``repro.core.robust_period`` imports, so each
stage call records a span; nothing under ``src/`` is edited.

Every call and span is timed in process CPU time (``CLOCK``).  The pass is
single-threaded and does no I/O, so that is its latency less the time the
hypervisor of a shared VM runs other guests on this CPU (steal), which on
a 4-core cloud VM was 10-25% and doubled some runs' wall-clock latency.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import robust_period as rp
from repro.sparkrun.detect import ALGOS

CLOCK = time.process_time

# Layer of each name robust_period imports, by the core module it lives in.
STAGES = {
    "preprocess": "preprocess",
    "modwt": "wavelets",
    "robust_wavelet_variance": "wavelets",
    "huber_periodogram": "huber",
    "ordinary_periodogram": "huber",
    "fisher_test": "fisher",
    "huber_acf": "acf",
    "acf_med_period": "acf",
}
LAYERS = ("preprocess", "wavelets", "huber", "fisher", "acf")


class Tracer:
    """In-memory spans ``[name, start, end, parent, call, info]``.

    ``call`` numbers the root call a span belongs to; ``parent`` is the
    index of the enclosing span (-1 for a root).  ``info`` holds the count
    the layer metrics need: in-band bins for the Huber-periodogram, the
    significance flag for Fisher, the returned period for ACF-Med.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call = -1

    def span(self, name: str, fn, info=None):
        def timed(*args, **kw):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self.call += 1
            rec = [name, CLOCK(), 0.0, parent, self.call, None]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                out = fn(*args, **kw)
            finally:
                self._stack.pop()
                rec[2] = CLOCK()
            if info is not None:
                rec[5] = info(args, kw, out)
            return out
        return timed


def _band_bins(args, kw, out):
    lo, hi = kw["exact_band"]
    return int(hi - lo)


_INFO = {
    "huber_periodogram": _band_bins,
    "fisher_test": lambda a, kw, out: bool(out[0]),
    "acf_med_period": lambda a, kw, out: int(out),
}


@dataclass
class KernelResult:
    periods: dict = field(default_factory=dict)   # (key, algo) -> list | None
    errors: dict = field(default_factory=dict)    # (key, algo) -> message
    rp_ms: dict = field(default_factory=dict)     # key -> [ms per call]
    algo_ms: dict = field(default_factory=dict)   # algo -> [ms per call]
    levels_selected: list = field(default_factory=list)
    rounds: int = 0
    unstable: set = field(default_factory=set)    # keys whose output changed
    tracer: Tracer | None = None


def run(series, algos, rounds: int, traced: bool = False) -> KernelResult:
    """Closed loop: ``rounds`` whole rounds over ``series``, one call at a
    time.  The first round's outputs are the reference the job pass is
    checked against; later rounds must repeat them."""
    res = KernelResult()
    fns = {a: ALGOS[a] for a in algos}
    for fn in fns.values():     # lazy set-up (filter construction) untimed
        try:
            fn(series[0][1])
        except Exception:       # the timed round records it
            pass
    restore = {}
    if traced:
        tr = res.tracer = Tracer()
        for name, layer in STAGES.items():
            restore[name] = getattr(rp, name)
            setattr(rp, name, tr.span(layer, restore[name], _INFO.get(name)))
        full = tr.span("robust_period", rp.detect_full)

        def traced_detect(y):
            out = full(y)
            res.levels_selected.append(sum(lv.selected for lv in out.levels))
            return out.periods
        fns["robust_period"] = traced_detect
    try:
        while res.rounds < rounds:
            for key, y in series:
                for algo, fn in fns.items():
                    t0 = CLOCK()
                    try:
                        out = sorted(int(p) for p in fn(y))
                    except Exception as e:  # recorded, counted as failed
                        out = None
                        res.errors[(key, algo)] = f"{type(e).__name__}: {e}"
                    ms = 1e3 * (CLOCK() - t0)
                    res.algo_ms.setdefault(algo, []).append(ms)
                    if algo == "robust_period":
                        res.rp_ms.setdefault(key, []).append(ms)
                    if res.rounds == 0:
                        res.periods[(key, algo)] = out
                    elif res.periods[(key, algo)] != out:
                        res.unstable.add(key)
            res.rounds += 1
    finally:
        for name, fn in restore.items():
            setattr(rp, name, fn)
    return res


def latency(res: KernelResult) -> dict:
    """Median and tail of per-series RobustPeriod latency.

    A series' latency is the median over its rounds.  The tail is the
    highest percentile with at least 10 series beyond it (the 11th slowest
    series), or the slowest series when there are 10 or fewer.
    """
    per_series = np.sort([np.median(v) for v in res.rp_ms.values()])
    n = per_series.size
    tail_pct = 100.0 * (n - 10) / n if n > 10 else 100.0
    return {
        "series": n,
        "calls": sum(len(v) for v in res.rp_ms.values()),
        "p50_ms": float(np.median(per_series)),
        "tail_ms": float(per_series[max(n - 11, 0)] if n > 10 else per_series[-1]),
        "tail_pct": round(tail_pct, 2),
    }


def layer_metrics(res: KernelResult) -> dict:
    """Per-layer metrics of the traced pass, per RobustPeriod call."""
    spans = res.tracer.spans
    calls = sum(1 for s in spans if s[3] < 0)
    total = sum(s[2] - s[1] for s in spans if s[3] < 0)
    # Stage spans are direct children of the root (robust_period calls no
    # stage from inside another), so self time = root minus its children.
    ms = {layer: 0.0 for layer in LAYERS}
    n = {layer: 0 for layer in LAYERS}
    info = {layer: [] for layer in LAYERS}
    for name, t0, t1, parent, _, inf in spans:
        if parent < 0:
            continue
        ms[name] += t1 - t0
        n[name] += 1
        if inf is not None:
            info[name].append(inf)
    child = sum(ms.values())
    min_period = rp.detect_full.__kwdefaults__["min_period"]
    band_bins = sum(info["huber"])
    out = {}
    for layer in LAYERS:
        out[f"{layer}.ms"] = 1e3 * ms[layer] / calls
        if layer != "fisher" and layer != "acf":
            out[f"{layer}.share"] = ms[layer] / total
    out["wavelets.levels_selected"] = float(np.mean(res.levels_selected))
    out["huber.calls"] = n["huber"] / calls
    out["huber.band_bins"] = band_bins / calls
    out["huber.us_per_bin"] = 1e6 * ms["huber"] / band_bins if band_bins else 0.0
    sig = info["fisher"]
    out["fisher.sig_frac"] = sum(sig) / len(sig) if sig else 0.0
    acc = info["acf"]
    out["acf.accept_frac"] = (sum(p >= min_period for p in acc) / len(acc)
                              if acc else 0.0)
    out["robust_period.self_ms"] = 1e3 * (total - child) / calls
    return out
