"""Crawl-and-curate benchmark entry point.

    python3 crawlbench/run.py --workload crawl_bulk --seed 1 --seconds 15 --trace 0
    python3 crawlbench/run.py --workload all --seed 1 --seconds 15 --save runs.jsonl
    python3 crawlbench/run.py --compare parent.jsonl change.jsonl

A measured run happens in a fresh child process under a watchdog; a
hang or crash is a failed run.  The last line of standard output is the
result object; the lines before it name every end-to-end metric with
its unit.  See crawlbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from crawlbench.workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150  # leaves room for the kill and clean-up inside 180 s


def _kill_group(p: subprocess.Popen) -> None:
    """SIGKILL every process of the child's group (the driver and the
    Ray processes it started), reap the child and wait until no member
    of the group is left."""
    pgid = p.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    p.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict | None]:
    """→ (result, report).  A failed child yields a failed result."""
    rundir = os.path.join(ROOT, ".bench_runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    out = os.path.join(rundir, "result.json")
    log = os.path.join(rundir, "child.log")
    env = dict(os.environ, PYTHONPATH=ROOT, TMPDIR=rundir, PYTHONHASHSEED="0",
               RAY_USAGE_STATS_ENABLED="0")
    cmd = [sys.executable, "-m", "crawlbench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--rundir", rundir, "--out", out]
    with open(log, "w") as lf:
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=lf, stderr=subprocess.STDOUT,
                             start_new_session=True)
        try:
            code = p.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        _kill_group(p)
    try:
        if code == 0:
            with open(out) as f:
                rec = json.load(f)
            return rec["result"], rec["report"]
        with open(log) as f:
            tail = f.read()[-4000:]
        why = "timed out" if code is None else f"exited with code {code}"
        print(f"crawlbench: {workload} seed {seed} {why}\n{tail}", file=sys.stderr)
        if code == 3:  # refused: fewer than 2 CPUs
            sys.exit(3)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, None
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, ".bench_ray"), ignore_errors=True)  # session logs


def _fmt(v) -> str:
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def print_report(workload: str, result: dict, report: dict | None) -> None:
    """Human-readable lines: every metric by name and unit, the
    workload-specific rates, the correctness check and the machine."""
    for name, m in result["metrics"].items():
        print(f"{workload:13s} {name:32s} {_fmt(m['value']):>12s} {m['unit']}")
    if report is None:
        return
    units = {"pages_per_s": "1/s", "frontier_ops_per_s": "1/s", "docs_per_s": "1/s",
             "budget_utilization": "ratio", "fail_frac": "ratio", "oracle_s": "s",
             "oracle_pages_per_s": "1/s", "budget_bound_s": "s", "ray_init_s": "s"}
    for k, unit in units.items():
        if k in report:
            print(f"{workload:13s} {k:32s} {_fmt(report[k]):>12s} {unit}")
    print(f"{workload:13s} reps={report['reps']} run_s={[round(x, 3) for x in report['run_s_all']]} "
          f"check={report['check'][0]} env={json.dumps(report['env'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append each run's record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two files written by --save")
    args = ap.parse_args()
    if args.compare:
        from crawlbench.compare import compare

        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    if not os.path.isdir(os.path.join(ROOT, "siteone_crawler_ray")):
        print("crawlbench: the engine package siteone_crawler_ray is not in "
              f"{ROOT}; nothing to measure", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = None
    ok = True
    for name in names:
        result, report = run_one(name, args.seed, args.seconds, args.trace)
        print_report(name, result, report)
        ok &= report is not None
        if args.save:
            with open(args.save, "a") as f:
                f.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                    "result": result, "report": report}) + "\n")
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
