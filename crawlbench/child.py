"""One measured run, in a fresh process (``run.py`` starts it under a
watchdog).  Writes ``{"result": ..., "report": ...}`` to ``--out``.

Timeline: record the environment → generate the input from the seed →
compute the expected output (the crawl oracle is cached) → Ray session
with repeated set-up + run + check until ``--seconds`` have passed →
shutdown.  With ``--trace 1`` the time is split between an untraced
session (the overhead baseline) and a traced one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
from collections import Counter

from . import layers, oracle_gate, trace
from .workloads import (WORKLOADS, CrawlWorkload, CurateWorkload, crawl_config,
                        curate_reference, make_crawl_input, make_curate_input,
                        write_crawl_input, write_curate_input)

MAX_CPUS = 4
MIN_REPS = 2


# -- environment ---------------------------------------------------------------

def cpu_budget() -> int:
    return min(MAX_CPUS, len(os.sched_getaffinity(0)))


def environment() -> dict:
    """Machine state next to the numbers, from bench.py's own probes."""
    import bench

    return {"num_cpus": cpu_budget(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0],
            "ambient_cal_sec": bench._ambient_calibration(),
            "ambient_membw_sec": bench._ambient_membw()}


class RssSampler:
    """Peak over time of Σ VmHWM of this process and its descendants
    (the driver plus the Ray processes of its session), from /proc."""

    def __init__(self, period: float = 0.5):
        self.period = period
        self.peak_kb = 0
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._t.join(timeout=5)
        self.sample()

    @staticmethod
    def _descendants(root: int) -> list[int]:
        kids: dict[int, list[int]] = {}
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            kids.setdefault(ppid, []).append(int(d))
        out, todo = [], [root]
        while todo:
            p = todo.pop()
            out.append(p)
            todo += kids.get(p, [])
        return out

    def sample(self) -> None:
        total = 0
        for pid in self._descendants(os.getpid()):
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                continue
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()


def steal_pct(a: tuple[int, int], b: tuple[int, int]) -> float:
    return 100.0 * (b[1] - a[1]) / max(1, b[0] - a[0])


# -- Ray session -----------------------------------------------------------------

def ray_init(root: str, traced: bool, trace_dir: str, run_id: str) -> float:
    import ray

    kwargs = {}
    if traced:
        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "crawlbench.trace.worker_hook",
            "env_vars": {trace.ENV_DIR: trace_dir, trace.ENV_RUN: run_id},
        }
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=cpu_budget(), include_dashboard=False,
             logging_level="ERROR", object_store_memory=384 << 20,
             _temp_dir=os.path.join(root, ".bench_ray"), **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return time.perf_counter() - t0


class Session:
    """One Ray session of repetitions; collects per-rep numbers."""

    def __init__(self, args, traced: bool, seconds: float):
        self.args, self.rundir, self.traced, self.seconds = args, args.rundir, traced, seconds
        self.trace_dir = os.path.join(args.rundir, "spans")
        self.run_id = f"{os.getpid()}-{int(traced)}"
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.failed = self.attempted = 0
        self.details: list[dict] = []
        self.layer_reps: list[dict] = []
        self.candidates: list[int] = []
        self.init_s = 0.0
        self.rec = None

    def __enter__(self):
        os.makedirs(self.trace_dir, exist_ok=True)
        self.init_s = ray_init(self.args.root, self.traced, self.trace_dir, self.run_id)
        if self.traced:
            self.rec = trace.install(self.trace_dir, self.run_id, flush_on_root=False)
        return self

    def __exit__(self, *exc):
        import ray

        if self.rec is not None:
            trace._REC = None  # stop recording on the driver
        ray.shutdown()

    def spans(self) -> list:
        return list(self.rec.spans) + trace.load_spans(self.trace_dir, self.run_id)

    def loop(self, one_rep) -> None:
        """Repeat until ``seconds`` are used: a rep starts only if, at the
        mean rep length so far, it ends within half a rep of the deadline."""
        t0 = time.perf_counter()
        deadline = t0 + self.seconds
        i = 0
        while i < MIN_REPS or time.perf_counter() + (time.perf_counter() - t0) / i / 2 < deadline:
            one_rep(i)
            i += 1


def crawl_session(s: Session, w: CrawlWorkload, inp: dict, corpus: str,
                  exp: oracle_gate.CrawlExpected) -> None:
    from siteone_crawler_ray.pipelines.crawl import EpochCrawler

    cfg = crawl_config(w)

    def rep(i: int) -> None:
        import ray

        work = os.path.join(s.rundir, f"work-{int(s.traced)}-{i}")
        t0 = time.perf_counter()
        c = EpochCrawler(corpus, inp["seeds"], inp["robots"], work, cfg)
        c.seed()
        tw = time.perf_counter()
        c.warmup()
        t1 = time.perf_counter()
        res = c.run(max_epochs=w.max_epochs or 10_000)
        t2 = time.perf_counter()
        s.setup_s.append(t1 - t0)
        s.run_s.append(t2 - t1)
        failed, attempted, detail = oracle_gate.check_crawl(res, exp)
        s.failed += failed
        s.attempted += attempted
        s.details.append(detail)
        s.candidates.append(res.metrics["candidates"])
        if s.traced:
            sizes = [len(p) for p in ray.get(list(res.seen_parts))]
            s.layer_reps.append(layers.crawl_layers(
                s.spans(), t0, t1, t2, t1 - tw, res.metrics["epochs"], sizes, work,
                w.max_reqs_per_sec))
        shutil.rmtree(work, ignore_errors=True)

    s.loop(rep)


def curate_session(s: Session, paths: tuple[str, str], warm_paths: tuple[str, str],
                   expected: set[int], n_input: int) -> None:
    import ray.data as rd

    from siteone_crawler_ray.pipelines import curation_run as cr

    def run_once(dp: str, bp: str, out: str) -> dict:
        return cr.curation_run(rd.read_parquet(dp), rd.read_parquet(bp), out)

    # set-up: the first call pays worker start-up and imports
    t0 = time.perf_counter()
    run_once(*warm_paths, os.path.join(s.rundir, f"warm-{int(s.traced)}"))
    s.setup_s.append(time.perf_counter() - t0)

    def rep(i: int) -> None:
        out = os.path.join(s.rundir, f"out-{int(s.traced)}-{i}")
        t1 = time.perf_counter()
        manifest = run_once(*paths, out)
        t2 = time.perf_counter()
        s.run_s.append(t2 - t1)
        failed, attempted, detail = oracle_gate.check_curate(out, expected, n_input)
        s.failed += failed
        s.attempted += attempted
        s.details.append(detail)
        if s.traced:
            s.layer_reps.append(layers.curate_layers(s.spans(), t1, t2, manifest, out))
        shutil.rmtree(out, ignore_errors=True)

    s.loop(rep)


# -- one run -----------------------------------------------------------------------

def metric(v: float, unit: str) -> dict:
    return {"value": v, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if cpu_budget() < 2:
        print(f"crawlbench: {cpu_budget()} usable CPU(s); at least 2 are required "
              "(a 1-CPU crawl hangs in warmup())", file=sys.stderr)
        return 3
    import bench

    env = environment()
    w = WORKLOADS[args.workload]
    cache_dir = os.path.join(args.root, ".bench_cache")
    t0 = time.perf_counter()
    report: dict = {"workload": args.workload, "seed": args.seed, "env": env}
    if isinstance(w, CrawlWorkload):
        inp = make_crawl_input(w, args.seed)
        corpus = write_crawl_input(inp, args.rundir)
        report["gen_s"] = time.perf_counter() - t0
        cfg = crawl_config(w)
        key = oracle_gate.cache_key(args.workload, args.seed, inp, cfg, w.max_epochs)
        exp = oracle_gate.oracle_expected(inp, cfg, cache_dir, key, w.max_epochs)
        items = len(exp.visited)
        run = lambda s: crawl_session(s, w, inp, corpus, exp)
    else:
        inp = make_curate_input(w, args.seed)
        paths = write_curate_input(inp, os.path.join(args.rundir, "input"))
        warm = write_curate_input(make_curate_input(CurateWorkload(200, 20), args.seed + 1),
                                  os.path.join(args.rundir, "warm-input"))
        report["gen_s"] = time.perf_counter() - t0
        t1 = time.perf_counter()
        expected = curate_reference(inp)
        report["reference_s"] = time.perf_counter() - t1
        items = inp["docs"].num_rows
        run = lambda s: curate_session(s, paths, warm, expected, items)

    cpu0 = bench._cpu_stat()
    sessions = []
    seconds = args.seconds / 2 if args.trace else args.seconds
    with RssSampler() as rss:
        with Session(args, False, seconds) as s:
            run(s)
        sessions.append(s)
    if args.trace:
        with Session(args, True, seconds) as s:
            run(s)
        sessions.append(s)
    env["steal_pct"] = steal_pct(cpu0, bench._cpu_stat())
    env["loadavg_1m_end"] = os.getloadavg()[0]

    plain = sessions[0]
    run_s = statistics.median(plain.run_s)
    failed = sum(s.failed for s in sessions)
    attempted = sum(s.attempted for s in sessions)
    report.update({
        "reps": len(plain.run_s), "run_s_all": plain.run_s, "setup_s_all": plain.setup_s,
        "ray_init_s": plain.init_s, "fail_frac": failed / attempted,
        "check": [d for s in sessions for d in s.details],
    })
    if isinstance(w, CrawlWorkload):
        cands = statistics.median(plain.candidates)
        report.update({
            "pages_per_s": items / run_s, "frontier_ops_per_s": cands / run_s,
            "oracle_s": exp.oracle_s, "oracle_pages_per_s": items / exp.oracle_s,
        })
        if w.max_reqs_per_sec:
            hot = Counter(row[0].split("/")[2] for row in exp.visited).most_common(1)[0][1]
            report["budget_bound_s"] = hot / w.max_reqs_per_sec
            report["budget_utilization"] = report["budget_bound_s"] / run_s
    else:
        report["docs_per_s"] = items / run_s

    if args.trace:
        traced = sessions[1]
        per = {k: statistics.median(r[k] for r in traced.layer_reps)
               for k in traced.layer_reps[0]}
        per["trace.overhead"] = statistics.median(traced.run_s) / run_s
        metrics = layers.fill(per)
    else:
        metrics = {
            "setup_s": metric(plain.init_s + statistics.median(plain.setup_s), "s"),
            "run_s": metric(run_s, "s"),
            "peak_rss_mb": metric(rss.peak_kb / 1024.0, "MB"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(args.out, "w") as f:
        json.dump({"result": result, "report": report}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
