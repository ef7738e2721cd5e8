"""Benchmark harness — the driver's per-round feedback loop.

Default mode: runs the headline pipelines over ``$GRAFT_SF_DIR``
(default /root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line::

    {"metric": "...", "value": <total sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N}

``--scaling`` mode (north rule evidence, BASELINE.md protocol): runs
the flagship epoch-crawl twice in FRESH subprocesses at num_cpus=8 and
num_cpus=32 over the same corpus, reports pages/s + frontier ops/s at
both levels and scaling efficiency = (T_8 / T_32) / 4, and appends the
result to BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

HEADLINE = [
    # crawl flagship + representative operators from each SURVEY §2 family
    "crawl_visited_set",
    "pricing_summary",
    "segment_join",
    "window_aggregates",
    "p90_by_type",
    "user_type_stats",
    "exact_dedup",
    "minhash_pairs",
    "knn_top10",
    "text_metrics",
    "ngram_topk",
    "html_link_extract",
    "report_content_types",
    "flat_visit_stats",
]


def _consume(obj) -> int:
    """Force execution; return row count without pulling data to driver."""
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pa.Table):
        return obj.num_rows
    if isinstance(obj, pd.DataFrame):
        return len(obj)
    return obj.count()  # ray Dataset


def _init_ray(num_cpus: int) -> None:
    import ray

    # Keep idle task workers alive: while the crawl's actor pools hold
    # every CPU slot, Ray reaps the warmed-up (idle) task workers, and
    # the first post-crawl query then pays ~2 s of worker respawn
    # (measured: pricing_summary 2.3 s → 0.7 s with reaping off).  Set
    # before ray.init; respects an explicit override.
    os.environ.setdefault("RAY_kill_idle_workers_interval_ms", "0")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _ambient_calibration() -> float:
    """Seconds for a FIXED single-core workload (hash 200k short
    strings twice) — a machine-speed probe.  This shared sandbox swings
    ±75% run-to-run (identical code measured 11.9 s and 21 s headline
    within an hour); reporting the probe alongside the totals lets a
    reader normalize across runs.  Quiet-window reference: ~0.16 s."""
    from siteone_crawler_ray.functions.hashing import xxh64_strings

    strs = [f"https://site-{i % 12:03d}.test/p/{i:05d}" for i in range(200_000)]
    xxh64_strings(strs)  # untimed warm pass (first-call kernel setup)
    t0 = time.perf_counter()
    xxh64_strings(strs)
    xxh64_strings(strs)
    return round(time.perf_counter() - t0, 3)


def _ambient_membw() -> float:
    """Seconds to stream a 240 MB array twice — a MEMORY-BANDWIDTH
    probe.  The hash probe above is L3-resident, so a neighbor
    saturating the shared bus slows the 32-way pipelines 4-5× while the
    hash probe reads normal (observed: 83 s headline with cal 0.176 s).
    Quiet-window reference: ~0.055 s."""
    import numpy as np

    arr = np.arange(30_000_000, dtype=np.int64)
    arr.sum()  # warm/fault pages
    t0 = time.perf_counter()
    arr.sum()
    arr.sum()
    return round(time.perf_counter() - t0, 3)


def _alloc_task(n: int) -> float:
    import numpy as np

    a = np.ones(n, np.int64)
    return float(a.copy()[0])


def _ambient_allocbw(k: int = 8, mb: int = 128) -> float:
    """Aggregate GB/s for ``k`` parallel FRESH-allocation copies (each
    task allocates a new ``mb``-MiB buffer and copies into it).  The
    in-place membw probe above misses the post-reboot page-supply
    collapse (BASELINE.md 2026-08-19 A/B: fresh-buffer copy bandwidth
    falls ~4× while in-place streaming stays flat and steal reads 0%).
    Healthy-boot reference at k=8: ~13 GB/s; degraded phases read <6.
    Recorded in the artifact (not a retry trigger: the degradation is
    boot-level and can persist for hours — retrying would burn the
    wall budget without changing the outcome) so BENCH numbers are
    normalizable across boots.  Returns -1.0 if the probe can't run."""
    import concurrent.futures as cf

    n = mb * 131072  # mb MiB of int64
    try:
        with cf.ProcessPoolExecutor(k) as ex:
            list(ex.map(_alloc_task, [n] * k))  # pool spawn cost, untimed
            t0 = time.perf_counter()
            list(ex.map(_alloc_task, [n] * k))
            dt = time.perf_counter() - t0
        # per task: one fresh-write fill + one read + one fresh-write copy
        return round(k * 3 * mb / 1024 / dt, 2)
    except Exception:
        return -1.0


def _cpu_stat() -> tuple[int, int]:
    """(total_ticks, steal_ticks) from /proc/stat — hypervisor steal is
    the missing attribution on this box: cumulative steal here is ~2.7x
    user time, and a noisy-neighbor episode caps 32-way parallel work
    4-5x while SINGLE-core probes run near full speed (they get
    scheduled; the fleet does not)."""
    try:
        with open("/proc/stat") as f:
            vals = list(map(int, f.readline().split()[1:]))
        return sum(vals), (vals[7] if len(vals) > 7 else 0)
    except (OSError, ValueError, IndexError):
        return 0, 0


def wait_for_quiet_window(threshold_pct: float | None = None,
                          probe_sec: float | None = None,
                          timeout_sec: float | None = None) -> dict:
    """Block until a /proc/stat steal probe reads below the threshold
    (default 3% over 15 s), so the BENCH artifact is comparable
    round-over-round (VERDICT r4 #4: identical code measured 11.9 s
    and 83 s in one day purely from hypervisor steal).  Gives up after
    ``timeout_sec`` (default 20 min) and proceeds with the noisy
    window RECORDED rather than hiding it.  Env overrides:
    ``GRAFT_STEAL_GATE=0`` disables, ``GRAFT_STEAL_GATE_PCT``,
    ``GRAFT_STEAL_GATE_PROBE_SEC``, ``GRAFT_STEAL_GATE_TIMEOUT``."""
    if os.environ.get("GRAFT_STEAL_GATE", "1") == "0":
        return {"enabled": False}
    thr = threshold_pct if threshold_pct is not None else float(
        os.environ.get("GRAFT_STEAL_GATE_PCT", "3.0"))
    probe = probe_sec if probe_sec is not None else float(
        os.environ.get("GRAFT_STEAL_GATE_PROBE_SEC", "15"))
    deadline = time.monotonic() + (timeout_sec if timeout_sec is not None else float(
        os.environ.get("GRAFT_STEAL_GATE_TIMEOUT", "1200")))
    waited = 0.0
    last = None
    while True:
        t0, s0 = _cpu_stat()
        time.sleep(probe)
        t1, s1 = _cpu_stat()
        last = round(100.0 * (s1 - s0) / max(t1 - t0, 1), 2)
        waited += probe
        if last < thr:
            return {"enabled": True, "probe_pct": last, "waited_sec": round(waited, 1),
                    "passed": True}
        if time.monotonic() >= deadline:
            print(f"steal gate TIMED OUT at {last}% (threshold {thr}%) — "
                  f"proceeding with a noisy window", file=sys.stderr)
            return {"enabled": True, "probe_pct": last, "waited_sec": round(waited, 1),
                    "passed": False}
        print(f"steal gate: {last}% >= {thr}%, waiting…", file=sys.stderr)


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    gate = wait_for_quiet_window()
    allocbw = _ambient_allocbw()  # before ray.init: probe forks clean procs
    _init_ray(num_cpus)
    import ray.data as rd

    import __ray_entry__ as entrymod

    cal = _ambient_calibration()
    membw = _ambient_membw()
    tot0, steal0 = _cpu_stat()

    # Session warm-up for the TASK-POOL queries: the first map_batches
    # tasks pay worker-process spawn + module imports (~2 s spread over
    # the first query on this box).  Runs AFTER the crawl (HEADLINE[0]):
    # the crawl warms its own actor pools internally, and on the
    # degraded-page-supply boots documented in BASELINE.md (2026-08-19
    # A/B) 2·num_cpus resident warm workers starve the crawl's actor
    # startup of fresh pages — measured 2.2 s lean vs 5.2-12 s with the
    # fan-out resident, same commit, same corpus, <1% steal.
    def _warm(b):
        import numpy  # noqa: F401
        import pyarrow.compute  # noqa: F401

        from siteone_crawler_ray.functions import agg  # noqa: F401

        return b

    def _warm_taskpool():
        rd.range(4096, override_num_blocks=2 * num_cpus).map_batches(
            _warm, batch_format="pyarrow"
        ).count()
        # First read_parquet of a session pays parquet-datasource
        # bring-up (metadata fetch task, size sampling) — observed as
        # ~2 s riding on whichever relational query ran first (VERDICT
        # r3 #8).  Pay it here on the smallest table so query timings
        # measure the pipelines.
        region = os.path.join(sf_dir, "region.parquet")
        if os.path.exists(region):
            rd.read_parquet(region).count()

    qs = entrymod.queries()
    # single-shot per query: several queries share memo caches (corpus
    # seeds/robots, crawl artifacts), so a min-of-reps scheme would time
    # cache hits, not work.  Ambient spikes are documented in
    # BASELINE.md; quote quiet-window numbers.
    timings: dict[str, float] = {}
    for i, name in enumerate(HEADLINE):
        t0 = time.perf_counter()
        _consume(qs[name](sf_dir))
        timings[name] = round(time.perf_counter() - t0, 3)
        if i == 0:
            _warm_taskpool()
    cal_after = _ambient_calibration()
    membw_after = _ambient_membw()
    tot1, steal1 = _cpu_stat()
    steal_pct = round(100.0 * (steal1 - steal0) / max(tot1 - tot0, 1), 2)
    sf = sf_dir.rstrip("/").rsplit("sf", 1)[-1]
    return {
        "metric": "headline_pipelines_total",
        "value": round(sum(timings.values()), 3),
        "unit": "sec",
        "queries": timings,
        "sf": float(sf) if sf.replace(".", "").isdigit() else sf,
        "num_cpus": num_cpus,
        # fixed-workload machine-speed probe (see _ambient_calibration):
        # divide `value` by (ambient_cal_sec / 0.16) to normalize across
        # this sandbox's ±75% ambient swings
        "ambient_cal_sec": cal,
        "ambient_membw_sec": membw,
        "ambient_cal_after_sec": cal_after,
        "ambient_membw_after_sec": membw_after,
        # parallel fresh-allocation bandwidth (GB/s, k=8): detects the
        # page-supply collapse steal/membw are blind to (healthy ~13)
        "ambient_allocbw_gbps": allocbw,
        # % of ALL cpu ticks stolen by the hypervisor during the run —
        # the dominant noise source (single-core probes under-report it)
        "steal_pct": steal_pct,
        # pre-run quiet-window gate (wait_for_quiet_window): the run
        # starts only once a 15 s probe reads < 3% steal (or the gate
        # timed out, recorded as passed=false)
        "steal_gate": gate,
    }


SCALE_PAGES = int(os.environ.get("GRAFT_SCALE_PAGES", "150000"))


def _scaling_corpus() -> tuple[str, list[str], dict[str, str]]:
    """Deterministic large synthetic crawl graph for the two-level scaling
    runs (cached in /tmp; both child processes reuse it)."""
    from siteone_crawler_ray.sources.corpus import (
        GENERATOR_VERSION,
        make_graph_corpus,
        write_corpus,
    )

    path = f"/tmp/graft_scale_corpus_{SCALE_PAGES}_b256_v{GENERATOR_VERSION}"
    tabs = make_graph_corpus(seed=7, hosts=12, total_pages=SCALE_PAGES, out_degree=8)
    if not os.path.exists(os.path.join(path, "_meta.json")):
        write_corpus(tabs["documents"], path, num_buckets=256)
    seeds = tabs["seeds"]["url"].to_pylist()
    robots = dict(zip(tabs["robots"]["host"].to_pylist(), tabs["robots"]["body"].to_pylist()))
    return path, seeds, robots


def run_crawl_child(sf_dir: str, num_cpus: int, scale: bool = False) -> dict:
    """One crawl in this process; emits crawl metrics JSON.

    ``scale=True`` crawls the dedicated large corpus (compute-bound,
    politeness off) instead of the sf-derived one."""
    _init_ray(num_cpus)
    import shutil

    import __ray_entry__ as entrymod

    tot0, steal0 = _cpu_stat()
    t0 = time.perf_counter()
    if scale:
        from siteone_crawler_ray.pipelines.crawl import CrawlConfig, EpochCrawler

        path, seeds, robots = _scaling_corpus()
        workdir = f"/tmp/graft_scale_work_{num_cpus}"
        if os.path.exists(workdir):
            shutil.rmtree(workdir)
        cfg = CrawlConfig(allowed_domains_crawl=("*",),
                          allowed_domains_static=("*",),
                          max_visited_urls=10_000_000, max_queue_length=10_000_000)
        res = EpochCrawler(path, seeds, robots, workdir, cfg).run()
    else:
        res = entrymod._run_crawl(sf_dir)
    wall = time.perf_counter() - t0
    m = res.metrics
    tot1, steal1 = _cpu_stat()
    return {
        "wall_sec": round(wall, 3),
        "ambient_cal_sec": _ambient_calibration(),
        "ambient_membw_sec": _ambient_membw(),
        "steal_pct": round(100.0 * (steal1 - steal0) / max(tot1 - tot0, 1), 2),
        "crawl_sec": m["total_sec"],
        "startup_sec": m.get("startup_sec", 0.0),
        "visited": m["visited"],
        "candidates": m["candidates"],
        "pages_per_sec": m["pages_per_sec"],
        "frontier_ops_per_sec": m["frontier_ops_per_sec"],
        "num_cpus": num_cpus,
    }


def run_frontier_bench(num_owners: int | None = None, total_keys: int = 4_000_000,
                       batch: int = 100_000) -> dict:
    """Frontier micro-benchmark for the 10^10-URL claim: feed
    ``num_owners`` frontier-only actors (default: as many as a crawl's
    owners on this cluster) `total_keys` synthetic url_keys in
    offer/contains rounds (each key routed to the owner of its key
    range, one call per actor) and report ops/s + memory per key, then
    extrapolate per-node capacity."""
    import numpy as np

    _init_ray(int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    from siteone_crawler_ray.functions.hashing import key_bounds, range_index
    from siteone_crawler_ray.stages.frontier import FrontierShardState, shard_actor_count
    import pyarrow as pa
    import ray

    # frontier-only actors, each one key range; their filters grow
    Actor = ray.remote(num_cpus=1, scheduling_strategy="SPREAD")(FrontierShardState)
    b = key_bounds(num_owners or shard_actor_count())
    shards = [Actor.remote(lo, hi) for lo, hi in zip(b, b[1:])]
    rng = np.random.default_rng(11)
    t_offer = t_contains = 0.0
    n_rounds = total_keys // batch
    for r in range(n_rounds):
        keys = rng.integers(0, 1 << 64, size=batch, dtype=np.uint64)
        actor = range_index(keys, len(shards))
        t0 = time.perf_counter()
        refs = []
        for i, s in enumerate(shards):
            refs.append(s.contains.remote(keys[actor == i]))
        ray.get(refs)
        t_contains += time.perf_counter() - t0
        t0 = time.perf_counter()
        refs = []
        for i, s in enumerate(shards):
            k = keys[actor == i]
            t = pa.table({"url_key": pa.array(k, pa.uint64()),
                          "url": pa.array(["u"] * len(k)), "host": pa.array(["h"] * len(k)),
                          "depth": pa.array(np.zeros(len(k), np.int32)),
                          "priority": pa.array(np.arange(len(k), dtype=np.int64)),
                          "source_uq_id": pa.array([""] * len(k)),
                          "source_attr": pa.array(np.zeros(len(k), np.int8))})
            refs.append(s.offer.remote(t))
        ray.get(refs)
        # keep memory bounded: drain queued entries
        ray.get([s.drain.remote() for s in shards])
        t_offer += time.perf_counter() - t0
    seen = sum(ray.get([s.seen_count.remote() for s in shards]))
    # memory model: exact sorted uint64 (8 B) + cuckoo 16-bit fp × 4
    # slots per 4 keys at the lowest load a doubling leaves (0.35):
    # ≈ 13.7 B/key worst case
    bytes_per_key = 8 + 16 / 8 / 0.35
    return {
        "metric": "frontier_ops_per_sec",
        "contains_ops_per_sec": round(total_keys / t_contains, 1),
        "offer_ops_per_sec": round(total_keys / t_offer, 1),
        "keys": int(seen),
        "num_actors": len(shards),
        "est_bytes_per_key": round(bytes_per_key, 1),
        "keys_per_128GiB_node": int(128 * 2**30 / bytes_per_key),
    }


def run_scaling(sf_dir: str, levels=(2, 8, 16, 32)) -> dict:
    """Fresh-process runs at four parallelism levels: 2→8, 8→16, 16→32.

    Why multiple pairs: the north rule's criterion is efficiency
    between cluster sizes N and 4N NODES, where a scale-out multiplies
    memory bandwidth along with CPUs.  On this single box the memory
    bus is shared: the crawl saturates it near ~25-39k pages/s, so the
    16→32 pair under-reports what a true node scale-out would give
    (CPUs ×4, bandwidth ×1), while the 2→8 pair runs entirely in the
    unsaturated region and isolates the engine's own scaling
    behaviour.  8→16 (VERDICT r4 #3) is the first-class mid pair: it
    brackets where the box's bus saturates, so it is the hardest pair
    the engine can still win on one node.  All pairs are reported;
    BASELINE.md carries the saturation analysis."""
    gate = wait_for_quiet_window()  # start in a quiet window (r4 #4)
    _scaling_corpus()  # build once outside the timed children
    # interleave the levels (2,8,16,32,2,…) so ambient-load drift on
    # the shared sandbox hits every level alike; 3 reps per level
    runs: dict[int, list] = {n: [] for n in levels}
    for _rep in range(3):
        for n in levels:
            env = dict(os.environ, RAY_GRAFT_CPUS=str(n), GRAFT_SF_DIR=sf_dir)
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--_crawl-child", "--scale"],
                env=env, capture_output=True, text=True, check=True, cwd="/tmp",
            )
            runs[n].append(json.loads(out.stdout.strip().splitlines()[-1]))
    results = {}
    for n in levels:
        reps = sorted(runs[n], key=lambda r: r["crawl_sec"])
        # timeit convention: ambient interference on this shared sandbox
        # is strictly additive (reps range ±40%+, e.g. 22s/28s/51s for
        # identical code), so the MINIMUM rep is the least-contaminated
        # estimate of true runtime; the full rep list + the median stay
        # in the report for transparency
        best = reps[0]
        best["reps_crawl_sec"] = [r["crawl_sec"] for r in reps]
        best["median_crawl_sec"] = reps[len(reps) // 2]["crawl_sec"]
        results[n] = best

    def pair_eff(lo: int, hi: int) -> dict:
        # PRIMARY estimator: median of interleaved-pair ratios — rep i
        # of each level runs back-to-back in the same ambient window,
        # so the additive sandbox noise cancels within each pair.  The
        # min-of-reps (timeit convention) stays as a secondary field —
        # its two minima can come from different ambient windows, which
        # biases it toward the most favorable estimate.
        ratios = sorted(
            a["crawl_sec"] / b["crawl_sec"] for a, b in zip(runs[lo], runs[hi])
        )
        eff_median = ratios[len(ratios) // 2] / (hi / lo)
        eff_min = (results[lo]["crawl_sec"] / results[hi]["crawl_sec"]) / (hi / lo)
        return {"median_pairs": round(eff_median, 3), "min_of_reps": round(eff_min, 3)}

    pair_list = list(zip(levels, levels[1:]))
    if 8 in levels and 32 in levels:
        pair_list.append((8, 32))  # historical headline pair (N→4N)
    pairs = {f"{lo}->{hi}": pair_eff(lo, hi) for lo, hi in pair_list}
    lo, hi = (8, 32) if (8, 32) in pair_list else (levels[-2], levels[-1])
    report = {
        "metric": "crawl_scaling_efficiency",
        # headline stays the 8→32 N→4N pair (historical comparability);
        # the unsaturated 2→8 and the first-class 8→16 mid pair are
        # reported alongside, not instead
        "value": pairs[f"{lo}->{hi}"]["median_pairs"],
        "value_min_of_reps": pairs[f"{lo}->{hi}"]["min_of_reps"],
        "pairs": pairs,
        "unit": f"(T{lo}/T{hi})/{hi // lo}, median of interleaved-pair ratios",
        "levels": {str(n): results[n] for n in levels},
        "sf": sf_dir,
        "steal_gate": gate,
    }
    return report


def run_headline_with_retries(sf_dir: str, max_attempts: int = 5,
                              steal_limit: float = 5.0,
                              membw_limit: float = 0.08,
                              wall_budget_sec: float = 900.0) -> dict:
    """Fresh-process headline attempts, retried while the run window
    was NOISY: recorded steal above ``steal_limit`` OR the
    memory-bandwidth probe above ``membw_limit``.

    The pre-run quiet-window gate (wait_for_quiet_window, inside each
    child) only proves the window was quiet when the run STARTED; the
    hypervisor can still steal 10-25% of ticks mid-run (observed:
    probe 0.7% → run-window 24.6%), which inflates the artifact with
    machine noise, not engine time.  Steal alone is NOT sufficient: the
    post-reboot host (BASELINE.md 2026-08-19 A/B) collapses page-supply
    /memory bandwidth with 0.0% recorded steal — the in-place membw
    probe (quiet ~0.055 s) reads 0.09+ in those phases, so attempts
    where either the before- or after-probe exceeds ``membw_limit``
    retry too.  Retrying on post-hoc numbers keeps BENCH artifacts
    comparable round over round; every attempt's (value, steal_pct,
    membw) is recorded in the emitted JSON so nothing is hidden."""

    def _noisy(r: dict) -> bool:
        membw = max(r.get("ambient_membw_sec", 0.0),
                    r.get("ambient_membw_after_sec", 0.0))
        return r["steal_pct"] > steal_limit or membw > membw_limit

    attempts = []
    t0 = time.monotonic()
    for _ in range(max_attempts):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--_bench-child"],
            env=dict(os.environ, GRAFT_SF_DIR=sf_dir),
            capture_output=True, text=True, check=True, cwd="/tmp",
        )
        rep = json.loads(out.stdout.strip().splitlines()[-1])
        attempts.append(rep)
        if not _noisy(rep):
            break
        if time.monotonic() - t0 > wall_budget_sec:
            break
    best = min(attempts, key=lambda r: (_noisy(r), r["value"]))
    best["attempts"] = [
        {"value": r["value"], "steal_pct": r["steal_pct"],
         "membw": max(r.get("ambient_membw_sec", 0.0),
                      r.get("ambient_membw_after_sec", 0.0)),
         "queries": r.get("queries", {})}
        for r in attempts
    ]
    # co-tenant bursts shorter than a run inflate 1-2 random queries
    # while both noise probes read quiet (observed: minhash_pairs
    # 1.97 s -> 4.40 s in back-to-back runs, steal 3.9%, membw 0.043).
    # The headline stays the best SINGLE run (never synthesized); the
    # per-query min over attempts is reported separately so engine
    # cost is separable from burst noise when attempts > 1.
    if len(attempts) > 1:
        qnames = set().union(*(r.get("queries", {}) for r in attempts))
        best["queries_min_of_attempts"] = {
            q: min(r["queries"][q] for r in attempts if q in r.get("queries", {}))
            for q in sorted(qnames)
        }
    return best


def main() -> int:
    # hang watchdog: a wedged Ray session (observed once: a fresh local
    # cluster starting while the previous one tears down) would
    # otherwise block forever; dump all stacks and exit non-zero so the
    # caller records a diagnosable failure instead
    import faulthandler
    import sys as _sys

    faulthandler.dump_traceback_later(1800, exit=True, file=_sys.stderr)

    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--frontier", action="store_true")
    ap.add_argument("--_crawl-child", dest="crawl_child", action="store_true")
    ap.add_argument("--_bench-child", dest="bench_child", action="store_true")
    ap.add_argument("--scale", action="store_true")
    ap.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    args = ap.parse_args()
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if args.crawl_child:
        print(json.dumps(run_crawl_child(args.sf_dir, num_cpus, scale=args.scale)))
    elif args.bench_child:
        print(json.dumps(run_bench(args.sf_dir, num_cpus)))
    elif args.frontier:
        print(json.dumps(run_frontier_bench()))
    elif args.scaling:
        report = run_scaling(args.sf_dir)
        print(json.dumps(report))
        baseline = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BASELINE.md")
        try:
            lvls = sorted(int(k) for k in report["levels"])
            pair_txt = "; ".join(
                f"eff({k})={v['median_pairs']} (min-of-reps {v['min_of_reps']})"
                for k, v in report["pairs"].items()
            )
            # per-level steal + rep spread ride in the record so a
            # contended level (co-tenant ramps hit full-width levels
            # while sub-width levels stay clean) is self-describing
            lvl_txt = ", ".join(
                f"T{n}={report['levels'][str(n)]['crawl_sec']}s "
                f"{report['levels'][str(n)]['pages_per_sec']}p/s "
                f"(steal {report['levels'][str(n)].get('steal_pct', '?')}%, "
                f"reps {report['levels'][str(n)].get('reps_crawl_sec', [])})"
                for n in lvls
            )
            with open(baseline, "a") as f:
                f.write(
                    f"\n<!-- bench.py --scaling -->\n"
                    f"- scaling run ({SCALE_PAGES} pages): {pair_txt}; {lvl_txt}\n"
                )
        except OSError:
            pass  # read-only checkout — stdout JSON is the record
    else:
        print(json.dumps(run_headline_with_retries(args.sf_dir)))

    import ray

    if ray.is_initialized():
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
