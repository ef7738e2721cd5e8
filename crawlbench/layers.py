"""Per-layer metrics from one repetition's spans.

Timing metrics named ``*_s`` are self time (span minus child coverage)
unless the name says ``busy``, ``critical``, ``epoch`` or ``wait``, or
the metric is a phase wall (curate phases, ``crawl.warmup_s``).  Layers
that do not run on a workload report 0.
"""

from __future__ import annotations

import os
import statistics

from .trace import self_times

CRAWL_METRICS = [
    ("crawl.epochs", "count"), ("crawl.epoch_s.p50", "s"), ("crawl.epoch_s.max", "s"),
    ("crawl.drain_s", "s"), ("crawl.dispatch_wait_s", "s"), ("crawl.frontier_s", "s"),
    ("crawl.ckpt_s", "s"), ("crawl.warmup_s", "s"),
    ("worker.calls", "count"), ("worker.rows", "count"), ("worker.busy_s", "s"),
    ("worker.critical_s", "s"), ("worker.row_skew", "ratio"), ("worker.write_s", "s"),
    ("worker.idle_frac", "ratio"),
    ("fetch.rows", "count"), ("fetch.busy_s", "s"), ("fetch.politeness_wait_s", "s"),
    ("fetch.budget_overrun_windows", "count"),
    ("corpus.lookup_rows", "count"), ("corpus.lookup_s", "s"), ("corpus.hit_ratio", "ratio"),
    ("corpus.bucket_loads", "count"),
    ("extract.spans", "count"), ("extract.explode_s", "s"), ("extract.gauntlet_s", "s"),
    ("extract.candidates", "count"), ("extract.ok_ratio", "ratio"),
    ("frontier.assemble_s", "s"), ("frontier.ingest_calls", "count"), ("frontier.ingest_s", "s"),
    ("frontier.candidates_in", "count"), ("frontier.admitted", "count"),
    ("frontier.admit_ratio", "ratio"), ("frontier.filter_false_pos_ratio", "ratio"),
    ("frontier.seen_keys", "count"), ("frontier.shard_skew", "ratio"), ("frontier.ckpt_s", "s"),
    ("ckpt.bytes", "bytes"), ("ckpt.files", "count"), ("visited.bytes", "bytes"),
]
CURATE_METRICS = [
    ("textstats.gate_s", "s"), ("textstats.rows_kept", "count"),
    ("dedup.exact_exchange_s", "s"), ("dedup.partition_skew", "ratio"),
    ("dedup.exact_dropped", "count"), ("dedup.minhash_s", "s"),
    ("dedup.candidate_pairs", "count"), ("dedup.verified_pairs", "count"),
    ("dedup.pair_precision", "ratio"), ("sampling.decontam_s", "s"),
    ("sampling.contaminated", "count"), ("sampling.shuffle_write_s", "s"),
    ("sampling.shard_bytes", "bytes"),
]
PER_LAYER = CRAWL_METRICS + CURATE_METRICS + [("trace.overhead", "ratio")]

# frontier calls that take candidates in from the workers
_INGEST = {"frontier.ingest_direct_parts", "frontier.admit_direct_parts",
           "frontier.try_admit_parts", "frontier.record_skips_parts",
           "frontier.admit_direct", "frontier.commit_stash", "frontier.record_skips"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _dir_stats(root: str, pred=lambda name: True) -> tuple[int, int]:
    size = files = 0
    if os.path.isdir(root):
        for d, _, fs in os.walk(root):
            for f in fs:
                if pred(f):
                    size += os.path.getsize(os.path.join(d, f))
                    files += 1
    return size, files


def budget_overruns(acquires: list[tuple], host_rate: float | None) -> int:
    """1-s windows in which one host was granted more requests than its
    per-host rate plus the burst capacity of each of its buckets that
    granted in that window.  ``acquires``: (t_grant, attrs) pairs."""
    if not host_rate or not acquires:
        return 0
    t_first = min(t for t, _ in acquires)
    win: dict[tuple, list] = {}
    for t, a in acquires:
        w = win.setdefault((a["host"], int((t - t_first) // 1.0)), [0.0, {}])
        w[0] += a["n"]
        w[1][a["bucket"]] = a["cap"]
    return sum(1 for n, caps in win.values() if n > host_rate + sum(caps.values()) + 1e-9)


def crawl_layers(spans: list[tuple], t_setup0: float, t_run0: float, t_run1: float,
                 warmup_s: float, epochs: list[dict], seen_sizes: list[int], workdir: str,
                 host_rate: float | None) -> dict:
    """Metrics of one traced crawl: ``spans`` from every process (earlier
    reps of the session included), the rep's set-up start ``t_setup0``,
    its ``run()`` window [t_run0, t_run1], the engine's per-epoch
    telemetry and the seen-set sizes per shard."""
    st = self_times(spans)
    ins = [s for s in spans if t_run0 <= s[1] <= t_run1]
    by = {}
    for s in ins:
        by.setdefault(s[0], []).append(s)
    self_s = lambda name: sum(st[(s[5], s[3])] for s in by.get(name, []))
    dur = lambda name: sum(s[2] - s[1] for s in by.get(name, []))
    attr = lambda name, k: sum(s[6][k] for s in by.get(name, []))

    ep_spans = sorted(by.get("crawl.run_epoch", []), key=lambda s: s[1])[:len(epochs)]
    ep_dur = [s[2] - s[1] for s in ep_spans]
    worker_ids = {(s[5], s[3]) for s in by.get("worker.process_shared", [])}
    # a worker call is one top-level call into the worker layer: every
    # process_shared, and process() unless it runs under process_shared
    roots = list(by.get("worker.process_shared", [])) + [
        s for s in by.get("worker.process", []) if (s[5], s[4]) not in worker_ids]
    busy_e, rows_e = [[] for _ in ep_spans], [[] for _ in ep_spans]
    for s in roots:
        for i, e in enumerate(ep_spans):
            if e[1] <= s[1] <= e[2]:
                busy_e[i].append(s[2] - s[1])
                rows_e[i].append(s[6]["rows"])
                break
    busy = sum(s[2] - s[1] for s in roots)
    skews = [max(r) / (sum(r) / len(r)) for r in rows_e if len(r) > 1 and sum(r)]
    n_worker_procs = max(1, len({s[5] for s in roots}))

    fetch_sec = [e["fetch_sec"] for e in epochs]
    lookup_rows = attr("corpus.lookup", "rows")
    cands = attr("extract.gauntlet", "rows")
    cand_in = attr("frontier.try_admit", "rows")
    admitted = attr("frontier.try_admit", "admitted")
    contains_ids = {(s[5], s[3]) for s in spans if s[0] == "frontier.contains"}
    exact_in = [s for s in by.get("filters.exact_contains", []) if (s[5], s[4]) in contains_ids]
    maybe = sum(s[6]["rows"] for s in exact_in)
    fp = maybe - sum(s[6]["hits"] for s in exact_in)
    ingest = [s for s in ins if s[0] in _INGEST and s[4] == -1]
    acq = [(s[2], s[6]) for s in by.get("fetch.acquire", []) if s[6]["host"] is not None]
    mean_seen = sum(seen_sizes) / len(seen_sizes) if seen_sizes else 0
    ck_bytes, ck_files = _dir_stats(os.path.join(workdir, "shards"))
    man_bytes, man_files = _dir_stats(workdir, lambda f: f.startswith("manifest-epoch"))
    # bucket loads count from the rep's set-up start: warmup preloads them
    loads = sum(1 for s in spans
                if s[0] == "corpus.bucket_load" and t_setup0 <= s[1] <= t_run1)
    return {
        "crawl.epochs": len(epochs),
        "crawl.epoch_s.p50": statistics.median(ep_dur) if ep_dur else 0.0,
        "crawl.epoch_s.max": max(ep_dur, default=0.0),
        "crawl.drain_s": sum(e["drain_sec"] for e in epochs),
        "crawl.dispatch_wait_s": sum(max(0.0, f - max(b, default=0.0))
                                     for f, b in zip(fetch_sec, busy_e)),
        "crawl.frontier_s": sum(e["frontier_sec"] for e in epochs),
        "crawl.ckpt_s": sum(e.get("ckpt_sec", 0.0) for e in epochs),
        "crawl.warmup_s": warmup_s,
        "worker.calls": len(roots),
        "worker.rows": sum(s[6]["rows"] for s in roots),
        "worker.busy_s": busy,
        "worker.critical_s": sum(max(b, default=0.0) for b in busy_e),
        "worker.row_skew": statistics.mean(skews) if skews else 1.0,
        "worker.write_s": attr("worker.process", "write"),
        "worker.idle_frac": max(0.0, 1.0 - _ratio(busy, n_worker_procs * sum(ep_dur))),
        "fetch.rows": attr("fetch.call", "rows"),
        "fetch.busy_s": self_s("fetch.call"),
        "fetch.politeness_wait_s": dur("fetch.acquire"),
        "fetch.budget_overrun_windows": budget_overruns(acq, host_rate),
        "corpus.lookup_rows": lookup_rows,
        "corpus.lookup_s": self_s("corpus.lookup"),
        "corpus.hit_ratio": _ratio(attr("corpus.lookup", "found"), lookup_rows),
        "corpus.bucket_loads": loads,
        "extract.spans": attr("extract.explode_spans", "rows"),
        "extract.explode_s": self_s("extract.explode_spans"),
        "extract.gauntlet_s": self_s("extract.gauntlet"),
        "extract.candidates": cands,
        "extract.ok_ratio": _ratio(attr("extract.gauntlet", "ok"), cands),
        "frontier.assemble_s": self_s("frontier.assemble_wave"),
        "frontier.ingest_calls": len(ingest),
        "frontier.ingest_s": sum(s[2] - s[1] for s in ingest),
        "frontier.candidates_in": cand_in,
        "frontier.admitted": admitted,
        "frontier.admit_ratio": _ratio(admitted, cand_in),
        "frontier.filter_false_pos_ratio": _ratio(fp, maybe),
        "frontier.seen_keys": sum(seen_sizes),
        "frontier.shard_skew": _ratio(max(seen_sizes, default=0), mean_seen),
        "frontier.ckpt_s": dur("frontier.checkpoint"),
        "ckpt.bytes": ck_bytes + man_bytes,
        "ckpt.files": ck_files + man_files,
        "visited.bytes": _dir_stats(os.path.join(workdir, "visited"))[0],
    }


def curate_layers(spans: list[tuple], t0: float, t1: float, manifest: dict,
                  out_dir: str) -> dict:
    """Metrics of one traced curation_run.  Stage times are phase walls
    between the driver-side calls that curation_run makes in order
    (exact-dedup exchange → MinHash → decontamination → shuffle-write);
    the quality gate is everything before the exact exchange."""
    ins = [s for s in spans if t0 <= s[1] <= t1]
    first = lambda name, pred=lambda s: True: min(
        (s for s in ins if s[0] == name and pred(s)), key=lambda s: s[1], default=None)
    run = first("curate.run")
    exact = first("dedup.partitioned_exchange",
                  lambda s: s[6]["label"] == "exchange.keep_min_per_hash")
    mh = first("dedup.minhash_dedup_pairs")
    sw = first("sampling.epoch_shuffle_write")
    if None in (run, exact, mh, sw):
        raise RuntimeError("curate trace is missing a stage span")
    parts = [s[6]["rows"] for s in ins if s[0] == "exchange.keep_min_per_hash"]
    cand = sum(s[6]["rows"] for s in ins if s[0] == "dedup.candidate_pairs")
    verified = mh[6]["rows"]
    return {
        "textstats.gate_s": exact[1] - run[1],
        "textstats.rows_kept": manifest["after_quality_filter"],
        "dedup.exact_exchange_s": mh[1] - exact[1],
        "dedup.partition_skew": _ratio(max(parts, default=0), sum(parts) / len(parts) if parts else 0),
        "dedup.exact_dropped": manifest["after_quality_filter"] - manifest["after_exact_dedup"],
        "dedup.minhash_s": mh[2] - mh[1],
        "dedup.candidate_pairs": cand,
        "dedup.verified_pairs": verified,
        "dedup.pair_precision": _ratio(verified, cand),
        "sampling.decontam_s": sw[1] - mh[2],
        "sampling.contaminated": manifest["contaminated_dropped"],
        "sampling.shuffle_write_s": sw[2] - sw[1],
        "sampling.shard_bytes": _dir_stats(out_dir, lambda f: f.endswith(".parquet"))[0],
    }


def fill(metrics: dict) -> dict:
    """Every per-layer metric, 0 for layers that did not run."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
