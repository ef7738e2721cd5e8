"""Span recorder for the traced run.

Spans are recorded around the public calls into each engine layer, from
these files only: the engine is patched at import time, never edited.
The driver calls :func:`install` itself; Ray worker processes call it
through ``runtime_env={"worker_process_setup_hook": "crawlbench.trace.
worker_hook"}``, so actor and task processes record the same spans.

A span is ``(name, t0, t1, span_id, parent_id, pid, attrs)``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, comparable across the
processes of one machine); ``parent_id`` is the enclosing span in the
same process (-1 at the top level); ``attrs`` holds counts taken at the
boundary (rows in, rows out, hits).

Spans stay in memory.  The driver writes them when the run ends.  A
worker process writes its buffer when a top-level span closes, because
the engine ends a crawl by killing its actors (no exit hook runs).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

ENV_DIR = "CRAWLBENCH_TRACE_DIR"
ENV_RUN = "CRAWLBENCH_RUN_ID"


class Recorder:
    def __init__(self, out_dir: str | None, run_id: str, flush_on_root: bool):
        self.out_dir = out_dir
        self.run_id = run_id
        self.flush_on_root = flush_on_root
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._ids = itertools.count()
        self.fetch_stage = None  # FetchStage whose __call__ is on the stack

    def _stack(self) -> list:
        s = getattr(self._tls, "stack", None)
        if s is None:
            s = self._tls.stack = []
        return s

    def call(self, name: str, fn, args, kwargs, attrs=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        a = attrs(args, kwargs, out) if attrs is not None else None
        self.spans.append((name, t0, t1, sid, parent, os.getpid(), a))
        if parent == -1 and self.flush_on_root:
            self.flush()
        return out

    def flush(self) -> None:
        if not self.out_dir or not self.spans:
            return
        spans, self.spans = self.spans, []
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write("".join(json.dumps([self.run_id, *s]) + "\n" for s in spans))


_REC: Recorder | None = None


def _wrap(owner, attr: str, name: str, attrs=None) -> None:
    fn = getattr(owner, attr)
    if getattr(fn, "__crawlbench__", False):
        return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _REC
        if rec is None:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs, attrs)

    wrapper.__crawlbench__ = True
    setattr(owner, attr, wrapper)


# -- boundary counts ---------------------------------------------------------

def _rows(t) -> int:
    return int(t.num_rows) if t is not None and hasattr(t, "num_rows") else 0


def _worker_attrs(args, kwargs, out):
    _, _, timing = out
    return {k: timing.get(k, 0) for k in ("rows", "fetch", "write", "extract")}


def _lookup_attrs(args, kwargs, out):
    found, _ = out
    return {"rows": int(len(found)), "found": int(found.sum())}


def _acquire_attrs(args, kwargs, out):
    bucket = args[0]
    n = args[1] if len(args) > 1 else kwargs.get("n", 1.0)
    stage = _REC.fetch_stage if _REC is not None else None
    host = None
    if stage is not None:
        host = next((h for h, b in stage.buckets.items() if b is bucket), None)
    return {"n": float(n), "host": host, "rate": bucket.rate, "cap": bucket.capacity,
            "bucket": id(bucket)}


def _gauntlet_attrs(args, kwargs, out):
    if out is None or not out.num_rows:
        return {"rows": 0, "ok": 0}
    import pyarrow.compute as pc

    return {"rows": int(out.num_rows),
            "ok": int(pc.sum(pc.equal(out["tag"], "ok")).as_py() or 0)}


def _out_rows(args, kwargs, out):
    return {"rows": _rows(out)}


def _try_admit_attrs(args, kwargs, out):
    return {"rows": _rows(args[1]), "admitted": int(out)}


def _count_attrs(args, kwargs, out):
    return {"rows": int(len(out)), "hits": int(out.sum())}


def _install_fetch(fetch_mod) -> None:
    cls = fetch_mod.FetchStage
    fn = cls.__call__
    if getattr(fn, "__crawlbench__", False):
        return

    @functools.wraps(fn)
    def call(self, batch):
        rec = _REC
        if rec is None:
            return fn(self, batch)
        prev, rec.fetch_stage = rec.fetch_stage, self
        try:
            return rec.call("fetch.call", fn, (self, batch), {},
                            lambda a, k, o: {"rows": _rows(batch)})
        finally:
            rec.fetch_stage = prev

    call.__crawlbench__ = True
    cls.__call__ = call
    _wrap(fetch_mod.TokenBucket, "acquire", "fetch.acquire", _acquire_attrs)


def _install_corpus(corpus_mod) -> None:
    cls = corpus_mod.CorpusReader
    _wrap(cls, "lookup", "corpus.lookup", _lookup_attrs)
    fn = cls._bucket
    if getattr(fn, "__crawlbench__", False):
        return

    @functools.wraps(fn)
    def bucket(self, b):
        rec = _REC
        if rec is None or b in self._cache:
            return fn(self, b)
        return rec.call("corpus.bucket_load", fn, (self, b), {})  # cache misses only

    bucket.__crawlbench__ = True
    cls._bucket = bucket


def _exchange_wrapper(dedup_mod) -> None:
    """Partition-side spans for every key-hash exchange: the partition
    function (a closure the caller passes) is wrapped so each partition
    task records its input rows under the function's own name."""
    fn = dedup_mod._partitioned_exchange
    if getattr(fn, "__crawlbench__", False):
        return

    @functools.wraps(fn)
    def exchange(ds, key_col, part_fn, *args, **kwargs):
        rec = _REC
        if rec is None:
            return fn(ds, key_col, part_fn, *args, **kwargs)
        label = f"exchange.{getattr(part_fn, '__name__', 'fn')}"

        def traced_part(t):
            # runs in a Ray task: read the recorder of THAT process (a
            # global named here would be pickled by value with the closure)
            import crawlbench.trace as T

            r = T._REC
            if r is None:
                return part_fn(t)
            return r.call(label, part_fn, (t,), {},
                          lambda a, k, o: {"rows": T._rows(t), "out": T._rows(o)})

        return rec.call("dedup.partitioned_exchange", fn,
                        (ds, key_col, traced_part, *args), kwargs,
                        lambda a, k, o: {"label": label})

    exchange.__crawlbench__ = True
    dedup_mod._partitioned_exchange = exchange


def install(out_dir: str | None, run_id: str, flush_on_root: bool) -> Recorder:
    """Patch every traced boundary in this process and start recording."""
    global _REC
    from siteone_crawler_ray.pipelines import crawl, curation_run
    from siteone_crawler_ray.sources import corpus
    from siteone_crawler_ray.stages import dedup, extract, fetch, frontier, sampling, worker
    from siteone_crawler_ray.state import filters

    _REC = Recorder(out_dir, run_id, flush_on_root)
    for m in ("seed", "warmup", "run_epoch", "run"):
        _wrap(crawl.EpochCrawler, m, f"crawl.{m}")
    _wrap(worker.CrawlWorker, "process_shared", "worker.process_shared", _worker_attrs)
    _wrap(worker.CrawlWorker, "process", "worker.process", _worker_attrs)
    _install_fetch(fetch)
    _install_corpus(corpus)
    _wrap(extract, "explode_spans", "extract.explode_spans", _out_rows)
    worker.explode_spans = extract.explode_spans  # worker.py imported the name
    _wrap(extract.CandidateGauntlet, "__call__", "extract.gauntlet", _gauntlet_attrs)
    F = frontier.FrontierShardState
    for m in ("assemble_wave", "ingest_direct_parts", "admit_direct_parts",
              "try_admit_parts", "record_skips_parts", "admit_direct", "commit_stash",
              "record_skips", "contains", "checkpoint"):
        _wrap(F, m, f"frontier.{m}")
    _wrap(F, "try_admit", "frontier.try_admit", _try_admit_attrs)
    _wrap(filters.ExactSeenSet, "contains_batch", "filters.exact_contains", _count_attrs)
    _wrap(curation_run, "curation_run", "curate.run")
    _exchange_wrapper(dedup)
    _wrap(dedup, "minhash_dedup_pairs", "dedup.minhash_dedup_pairs", _out_rows)
    _wrap(dedup, "_dedup_pairs", "dedup.candidate_pairs", _out_rows)
    _wrap(sampling, "epoch_shuffle_write", "sampling.epoch_shuffle_write")
    return _REC


def worker_hook() -> None:
    """``worker_process_setup_hook`` target: record spans in this Ray
    worker process and flush them at every top-level span end."""
    out_dir = os.environ.get(ENV_DIR)
    if out_dir:
        install(out_dir, os.environ.get(ENV_RUN, ""), flush_on_root=True)


def load_spans(out_dir: str, run_id: str) -> list[tuple]:
    """Every span written under ``out_dir`` for ``run_id`` (any process)."""
    spans = []
    for f in sorted(os.listdir(out_dir)):
        if f.startswith("spans-") and f.endswith(".jsonl"):
            with open(os.path.join(out_dir, f)) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec[0] == run_id:
                        spans.append(tuple(rec[1:]))
    return spans


def self_times(spans: list[tuple]) -> dict[tuple, float]:
    """(pid, span_id) → span duration minus the part of its interval that
    its direct children cover (overlapping children counted once)."""
    kids: dict[tuple, list] = {}
    for name, t0, t1, sid, parent, pid, _ in spans:
        if parent != -1:
            kids.setdefault((pid, parent), []).append((t0, t1))
    out = {}
    for name, t0, t1, sid, parent, pid, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(kids.get((pid, sid), [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[(pid, sid)] = (t1 - t0) - covered
    return out
