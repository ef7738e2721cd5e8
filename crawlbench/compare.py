"""Compare two result sets written by ``run.py --save``.

For every workload × end-to-end metric: each side's median and
quartiles and a verdict under the BENCHMARK.json bound.  A time
metric's verdict is "unresolved" when the machine differs between the
two sets: the median ``ambient_cal_sec`` of one side is more than the
bound away from the other's, or either side ran on a contended box
(median hypervisor steal above ``BUSY_STEAL_PCT``).  Any verdict is
"unresolved" when either side's spread (quartile distance / median)
exceeds the bound, unless every run of one side beats every run of the
other.  Per-layer medians from the traced runs are printed beside them
with their relative change.
"""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
# median steal % of a set above which the box was contended: quiet sets
# on the 4-core box the bounds were set on read 0.2-0.9 %, while sets
# read at 2-9 % ran the same commit up to 36 % slower
BUSY_STEAL_PCT = 2.0


def load(path: str) -> dict:
    """(workload, trace) → metric → list of values, over correct runs."""
    out: dict = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if not rec["result"].get("correct"):
                continue
            d = out.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["result"]["metrics"].items():
                d.setdefault(name, []).append(m["value"])
            # the machine next to the numbers: bench.py's single-core
            # speed probe and the hypervisor steal during the run
            env = rec["report"]["env"]
            d.setdefault("env.ambient_cal_sec", []).append(env["ambient_cal_sec"])
            d.setdefault("env.steal_pct", []).append(env["steal_pct"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before: list[float], after: list[float], bound: float, better: str,
            machine_drift: float = 0.0) -> str:
    """``machine_drift``: how far the machine differs between the two
    sets (0 for metrics that do not depend on its speed); beyond the
    bound no verdict is about the code."""
    if machine_drift > bound:
        return "unresolved (machine speed)"
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = summary(before)
    a1, am, a3 = summary(after)
    if max((b3 - b1) / abs(bm) if bm else 0, (a3 - a1) / abs(am) if am else 0) > bound:
        # too noisy to call, unless every run of the change beats every run before
        return "better (every run)" if sign * max(after) < sign * min(before) else "unresolved"
    worse = sign * (am - bm) / abs(bm) if bm else 0.0
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "same"


def compare(before_path: str, after_path: str) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    A, B = load(before_path), load(after_path)
    regressions = 0
    for w in spec["workloads"]:
        name = w["name"]
        a, b = A.get((name, 0), {}), B.get((name, 0), {})
        drift = 0.0
        if a and b:
            ca = statistics.median(a["env.ambient_cal_sec"])
            cb = statistics.median(b["env.ambient_cal_sec"])
            sa = statistics.median(a["env.steal_pct"])
            sb = statistics.median(b["env.steal_pct"])
            drift = float("inf") if max(sa, sb) > BUSY_STEAL_PCT else abs(cb - ca) / ca
            print(f"{name:13s} machine: ambient_cal_sec median {ca:.3f} -> {cb:.3f} s "
                  f"({(cb - ca) / ca:+.0%}), steal median {sa:.1f} -> {sb:.1f} %")
        for m in spec["end_to_end"]:
            va, vb = a.get(m["name"]), b.get(m["name"])
            if not va or not vb:
                print(f"{name:13s} {m['name']:14s} missing on one side")
                continue
            (a1, am, a3), (b1, bm, b3) = summary(va), summary(vb)
            v = verdict(va, vb, m["bound"], m["better"], drift if m["unit"] == "s" else 0.0)
            regressions += v.startswith("worse")
            print(f"{name:13s} {m['name']:14s} before {am:.4g} [{a1:.4g}, {a3:.4g}] n={len(va)}  "
                  f"after {bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(vb)}  {m['unit']:6s} "
                  f"bound {m['bound']:.0%}: {v}")
        ta, tb = A.get((name, 1), {}), B.get((name, 1), {})
        for m in spec["per_layer"]:
            va, vb = ta.get(m["name"]), tb.get(m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma == 0 and mb == 0:
                continue
            delta = f"{(mb - ma) / ma:+.1%}" if ma else "new"
            print(f"{name:13s}   {m['name']:32s} {ma:12.4g} -> {mb:12.4g} {m['unit']:6s} {delta}")
    return 1 if regressions else 0
