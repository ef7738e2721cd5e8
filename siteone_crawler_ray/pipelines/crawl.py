"""The epoch (BFS-wave) crawl driver — SURVEY.md §4.3.

The reference's continuous work-queue loop (/root/reference/src/engine/
crawler.rs:222-369) becomes a bulk-synchronous wave loop with identical
output under the canonical (workers=1-equivalent) ordering contract of
SURVEY.md §3.2:

    wave e = drain(shards) sorted by priority
    fused  = CrawlWorker.process_shared (stages/worker.py), one call per
             wave chunk: fetch → write visited parquet part (the
             checkpointed lineage) → explode_spans → candidate gauntlet
             → candidates split by frontier shard.  Narrow waves run on
             the driver-local worker, wide ones fan out to persistent
             actors created once per run; both return the same parts
    ingest = every shard takes its own slice of those parts: skips
             first-wins, then admit (dedup first-wins by priority →
             shard contains → caps → offer)

Priority packs (source wave position, span extraction index); visited
``seq`` is the wave-sorted global rank — equal to the reference's FIFO
pop order for workers=1 with deterministic intra-page link order.

Limit parity (crawler.rs:1219-1306): the reference checks
``queue+visited >= max_visited`` and ``queue >= max_queue_length`` at
enqueue.  In wave order those conditions reduce to closed forms
(derivation in select_accepted's docstring); when a cap can bind we run
an exact sequential simulation over the epoch's candidates, otherwise a
vectorized fast path.  The non-200 basename guard is epoch-consistent:
counts aggregated per wave, blocklist broadcast to the next wave's
gauntlet (deterministic refinement of the reference's racy counter —
SURVEY.md §7.5).

Checkpoint/resume: per-epoch manifests with per-shard seen snapshots,
pending queues, visited/skipped parquet and metric lineage; resume
restores the latest complete epoch and reproduces the uninterrupted
run byte-for-byte (tested).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions import urls as U
from ..functions.hashing import uq_ids, xxh64_strings
from ..functions.robots import RobotsIndex
from ..stages.extract import PRIO_SHIFT
from ..stages.frontier import FrontierShardState, assemble_wave, shard_of
from ..stages.worker import CrawlWorker, adaptive_worker_count, make_crawl_workers
from ..types import UrlSource


@dataclass
class CrawlConfig:
    # reference defaults: README.md:546-573, crawler.rs:1219-1306
    max_visited_urls: int = 10000
    max_queue_length: int = 9000
    max_url_length: int = 2083
    max_non200_per_basename: int = 5
    # recorded in the report `options` (corpus-mode fetches send no
    # headers; robots groups stay '*'/'SiteOne-Crawler' per
    # robots_txt.rs:61-63 regardless of UA, as in the reference)
    user_agent: str | None = None
    max_depth: int | None = None
    remove_query_params: bool = False
    keep_query_params: tuple = ()
    allowed_domains_crawl: tuple = ()
    allowed_domains_static: tuple = ()
    include_regex: tuple = ()
    ignore_regex: tuple = ()
    transform_url: tuple = ()  # "from -> to" / "regex:pat -> repl" (crawler.rs:1680-1724)
    force_relative_urls: bool = False  # www/scheme folding (crawler.rs:1245-1265)
    # --disable-images/-javascript/-styles/-all-assets: span kinds never
    # extracted (html_processor.rs:789 gating); --regex-filtering-only-
    # for-pages: static files bypass include/ignore (crawler.rs:1316)
    disabled_span_kinds: tuple = ()
    regex_filtering_only_for_pages: bool = False
    # --single-page: no href extraction, assets only (html_processor.rs:781);
    # --single-foreign-page: pages on a different 2nd-level domain than the
    # initial URL are fetched but never expanded (html_processor.rs:179-182)
    single_page: bool = False
    single_foreign_page: bool = False
    # --disable-files / --disable-fonts (html_processor.rs:193, 34-40)
    disable_files: bool = False
    disable_fonts: bool = False
    ignore_robots_txt: bool = False
    max_reqs_per_sec: float | None = None  # None → politeness off (corpus mode)
    # physical execution
    # routing="bucket": corpus-cache affine (politeness budget split);
    # routing="host": host-affine (politeness exact; hot hosts salted)
    routing: str = "bucket"
    # parquet codec for the visited-part writes (--result-storage-compression
    # analogue; "none" = uncompressed, README.md:562-565)
    storage_compression: str = "snappy"
    num_shards: int = 8
    fetch_concurrency: int | None = None  # None → adaptive to cluster CPUs
    fetch_batch_size: int = 2048
    filter_capacity: int = 1 << 20
    use_ray: bool = True  # False → in-process loop (unit tests / oracle-speed runs)
    # waves smaller than this are processed by the driver-local worker
    # (identical code path/output): dispatching a handful of URLs to
    # remote actors costs more than the work.  Remote workers stay warm
    # (preloaded buckets, hot memo caches) so the bar is low.  At 100 TB
    # waves are millions of rows and always fan out.
    ray_wave_threshold: int = 48

    def fingerprint(self) -> str:
        from ..functions.hashing import xxh64

        return f"{xxh64(json.dumps(asdict(self), sort_keys=True, default=str)):016x}"


@dataclass
class CrawlResult:
    workdir: str
    visited_dir: str
    skipped: pa.Table
    # per-shard seen-set snapshots: ObjectRefs (ray mode) or uint64
    # ndarrays (in-process).  Kept as refs so run() never concatenates
    # the full seen set on the driver — at 10^10 keys that is an 80 GB
    # materialization whose only consumers are parity tests.
    seen_parts: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    _seen_cache: np.ndarray | None = field(default=None, repr=False)

    @property
    def seen_keys(self) -> np.ndarray:
        """Sorted uint64 seen set, gathered lazily from the per-shard
        snapshot refs.  O(total-seen) on the driver — opt-in for parity
        tests / small crawls only; scale consumers should ray.get and
        process ``seen_parts`` shard-by-shard."""
        if self._seen_cache is None:
            parts = self.seen_parts
            if parts and not isinstance(parts[0], np.ndarray):
                import ray

                parts = ray.get(list(parts))
            self._seen_cache = (
                np.sort(np.concatenate(parts)) if parts else np.empty(0, np.uint64)
            )
        return self._seen_cache

    def visited_table(self, columns: list[str] | None = None) -> pa.Table:
        """Seq-ordered visited rows as ONE driver-side table.  Only for
        small, order-sensitive consumers (flagship result, golden tests);
        report pipelines must use :meth:`visited_ds` instead — at 10⁹
        pages this table does not fit on the driver."""
        read_cols = columns if columns is None or "seq" in columns else ["seq", *columns]
        t = pq.read_table(self.visited_dir, columns=read_cols, partitioning=None)
        t = t.take(pc.sort_indices(t, sort_keys=[("seq", "ascending")]))
        return t if columns is None else t.select(columns)

    def visited_ds(self, columns: list[str] | None = None):
        """Visited rows as a streaming multi-block Dataset read straight
        from the per-epoch/per-worker parquet parts (no driver
        materialization; one block per part file).  Unordered — every
        report table is either an aggregation or sorts itself."""
        import ray.data as rd

        # default hive partitioning parses the epoch=N dirs; the in-file
        # epoch column carries the same values (ray<=2.49 errors on
        # partitioning=None + columns: _infer_data_and_partition_columns)
        return rd.read_parquet(self.visited_dir, columns=columns, file_extensions=["parquet"])


_DISPATCH_FIELDS = [
    ("url", pa.string()),
    ("url_key", pa.uint64()),
    ("host", pa.string()),
    ("depth", pa.int32()),
    ("priority", pa.int64()),
    ("source_uq_id", pa.string()),
    ("source_attr", pa.int8()),
]


class EpochCrawler:
    """Driver object holding shard handles + loop state."""

    def __init__(
        self,
        corpus_path: str,
        seeds: list[str],
        robots_bodies: dict[str, str],
        workdir: str,
        config: CrawlConfig | None = None,
        seed_attrs: list[int] | None = None,
    ):
        self.corpus_path = corpus_path
        with open(os.path.join(corpus_path, "_meta.json")) as f:
            self.num_buckets = json.load(f)["num_buckets"]
        self.cfg = config or CrawlConfig()
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.robots = RobotsIndex.from_bodies(robots_bodies)
        self.seed_urls = seeds
        # per-seed UrlSource attribution: --url seeds = INIT_URL, --url-list
        # entries = URL_LIST (crawler.rs:223-229 seeds both into the same
        # queue with distinct sources)
        self.seed_attrs = list(seed_attrs) if seed_attrs else None
        self.seed_host = U.host_of(seeds[0]) if seeds else ""
        self.epoch = 0
        self.visited_count = 0
        self.basename_counts: dict[str, int] = {}
        self.metrics: dict = {"epochs": []}
        self._shards: list = []
        self._use_ray = self.cfg.use_ray
        self._workers: list = []
        self._local_worker: CrawlWorker | None = None
        self._blocklist: frozenset = frozenset()
        self._epoch_workers_used = None
        # fire-and-forget refs from the PREVIOUS epoch (fast-path ingest
        # + shard checkpoint): Ray actor tasks run in submission order,
        # so the next drain/admit already serializes behind them on each
        # shard — the driver only collects them one epoch later for
        # error propagation and the deferred manifest write.
        self._ingest_refs: list = []
        self._pending_ckpt: tuple | None = None

    # -- shard plumbing (works with or without Ray) -------------------------
    def _make_shards(self):
        if self._use_ray:
            from ..stages.frontier import make_shard_actors

            self._shards = make_shard_actors(self.cfg.num_shards, self.cfg.filter_capacity)
            from ..stages.worker import clamp_worker_count

            # clamp a user-requested pool to schedulable CPUs — an
            # oversized pool of 1-CPU actors would pend forever and
            # deadlock the warm-up ray.get (wizard Stress Test
            # --workers=20 on a small box)
            k = clamp_worker_count(
                self.cfg.fetch_concurrency
                or adaptive_worker_count(self.cfg.num_shards),
                num_shards=self.cfg.num_shards)
            self._workers = make_crawl_workers(
                k,
                num_shards=self.cfg.num_shards,
                corpus_path=self.corpus_path,
                gauntlet_kwargs=self._gauntlet_kwargs(),
                max_reqs_per_sec=self.cfg.max_reqs_per_sec,
                budget_split=1 if self.cfg.routing == "host" else k,
                storage_compression=self.cfg.storage_compression,
            )
        else:
            self._shards = [
                FrontierShardState(i, self.cfg.filter_capacity) for i in range(self.cfg.num_shards)
            ]
        self._local_worker = CrawlWorker(
            corpus_path=self.corpus_path,
            gauntlet_kwargs=self._gauntlet_kwargs(),
            max_reqs_per_sec=self.cfg.max_reqs_per_sec,
            storage_compression=self.cfg.storage_compression,
            # host routing gives each host ONE worker's bucket (split=1,
            # matching the remote-worker construction); bucket routing
            # splits the budget across the pool (ADVICE r1)
            budget_split=1 if self.cfg.routing == "host" else max(1, len(self._workers)),
            arrow_threads=None,  # don't clamp the driver's Arrow pool
        )

    def _shard_call(self, method: str, *args, per_shard: list[tuple] | None = None) -> list:
        """Call ``method`` on every shard and wait for the results: with
        the same ``args`` everywhere, or with ``per_shard[i]`` on shard i."""
        arg_lists = per_shard if per_shard is not None else [args] * len(self._shards)
        if self._use_ray:
            import ray

            return ray.get(
                [getattr(s, method).remote(*a) for s, a in zip(self._shards, arg_lists)]
            )
        return [getattr(s, method)(*a) for s, a in zip(self._shards, arg_lists)]

    def _contains(self, keys: np.ndarray) -> np.ndarray:
        """Batched membership across shards (one call per shard)."""
        sh = shard_of(keys, self.cfg.num_shards)
        out = np.zeros(len(keys), dtype=bool)
        idxs = [np.nonzero(sh == i)[0] for i in range(self.cfg.num_shards)]
        res = self._shard_call("contains", per_shard=[(keys[ix],) for ix in idxs])
        for ix, r in zip(idxs, res):
            out[ix] = r
        return out

    def _offer(self, entries: pa.Table) -> None:
        keys = entries["url_key"].to_numpy(zero_copy_only=False)
        sh = shard_of(keys, self.cfg.num_shards)
        self._shard_call("offer", per_shard=[
            (entries.filter(pa.array(sh == i)),) for i in range(self.cfg.num_shards)])

    # -- seeding ------------------------------------------------------------
    def seed(self) -> None:
        self._make_shards()
        canon = []
        attrs = []
        for i, u in enumerate(self.seed_urls):
            c = U.canonicalize(u, u, remove_query_params=self.cfg.remove_query_params,
                               keep_query_params=self.cfg.keep_query_params)
            if c is not None and len(c) <= self.cfg.max_url_length:
                canon.append(c)
                attrs.append(self.seed_attrs[i] if self.seed_attrs
                             else UrlSource.INIT_URL)
        keys = xxh64_strings(canon) if canon else np.empty(0, np.uint64)
        # dedup in order; enqueue caps apply to seeds too (add_url_to_queue)
        seen: set[int] = set()
        rows = []
        for order, (u, k, a) in enumerate(zip(canon, keys, attrs)):
            if int(k) in seen:
                continue
            if len(rows) >= self.cfg.max_visited_urls or len(rows) >= self.cfg.max_queue_length:
                break
            seen.add(int(k))
            rows.append((u, int(k), U.host_of(u), 0, order, "", a))
        entries = _dispatch_table(rows)
        self._offer(entries)

    # -- one epoch ----------------------------------------------------------
    def run_epoch(self) -> int:
        """Process one wave; returns number of pages visited (0 → done).

        With Ray the wave never lands on the driver unless it is narrow
        enough for the driver-local worker: shard drains flow as object
        refs into :meth:`FrontierShardState.assemble_wave` on shard 0,
        workers self-select rows from its output object, and their
        per-shard candidate parts flow as refs straight to the frontier
        shards (each reads its own slice from plasma, zero-copy).  The
        driver handles only scalars: W, candidate counts, basename
        counts, timings."""
        t0 = time.perf_counter()
        want_hosts = self.cfg.routing == "host"
        if self._use_ray:
            import ray

            part_refs = [s.drain.remote() for s in self._shards]
            # assemble on shard 0's warm actor, not a task: a num_cpus=0
            # task may land on a cold worker process whose first Arrow
            # concat/sort measured ~0.6 s at 16 CPUs (epoch-0 critical
            # path); shard 0 runs this between waves when it is idle.
            meta_ref, wave = self._shards[0].assemble_wave.options(num_returns=2).remote(
                self.visited_count, self.epoch, want_hosts, *part_refs
            )
            meta = ray.get(meta_ref)
        else:
            meta, wave = assemble_wave(
                self.visited_count, self.epoch, want_hosts, *self._shard_call("drain"))
        W = meta["W"]
        t_drain = time.perf_counter() - t0
        if W == 0:
            return 0

        vdir = os.path.join(self.workdir, "visited", f"epoch={self.epoch}")
        bl = frozenset(
            b for b, c in self.basename_counts.items() if c >= self.cfg.max_non200_per_basename
        )
        if bl != self._blocklist:  # re-broadcast only on change (rare)
            self._blocklist = bl
            self._local_worker.set_blocklist(bl)
            if self._workers:
                import ray

                ray.get([w.set_blocklist.remote(bl) for w in self._workers])

        t_fetch = time.perf_counter()
        t_dispatch_wall = time.time()
        if self._workers and W >= self.cfg.ray_wave_threshold:
            # ramp-up/tail waves: K ≈ sqrt(W/16) balances per-actor
            # dispatch+straggler cost (~10-15 ms) against W/K work; big
            # waves use every worker
            workers = self._workers[: max(1, min(len(self._workers),
                                                 int(np.ceil(np.sqrt(W / 16)))))]
            K = len(workers)
            # bucket-affine routing: worker (url_key % NB) % K — each
            # worker's corpus-bucket cache stays a fixed 1/K subset
            # instead of every worker faulting in every bucket.
            salt_map = None
            if want_hosts:
                # hot-host salting: a host holding more than 2 fair
                # shares of the wave spreads across S workers (rate/S
                # per bucket — SURVEY §7.5)
                uniq, cnt = meta["hosts"]
                fair = max(1, -(-W // K))
                salt_map = {
                    str(h): int(min(K, -(-c // fair)))
                    for h, c in zip(uniq, cnt)
                    if c > 2 * fair
                }
            triplets = [
                w.process_shared.options(num_returns=3).remote(
                    wave, i, K, self.num_buckets, vdir, self.cfg.routing, salt_map,
                    self.cfg.num_shards,
                )
                for i, w in enumerate(workers)
            ]
            parts = [t[0] for t in triplets]
            non200_lists = ray.get([t[1] for t in triplets])
            timings = ray.get([t[2] for t in triplets])
            self._epoch_workers_used = list(workers)
        else:
            if self._use_ray:
                wave = ray.get(wave)
            part, non200, tm = self._local_worker.process_shared(
                wave, 0, 1, self.num_buckets, vdir, self.cfg.routing, None,
                self.cfg.num_shards)
            # one object for every shard, like a remote worker's output
            parts = [ray.put(part) if self._use_ray else part]
            non200_lists, timings = [non200], [tm]
            self._epoch_workers_used = None
        t_collect_wall = time.time()
        t_fetch = time.perf_counter() - t_fetch

        t_cand = time.perf_counter()
        self._ingest(parts, W, sum(t["n_ok"] for t in timings))
        t_cand = time.perf_counter() - t_cand

        for non200 in non200_lists:  # epoch-consistent basename guard counts
            for u in non200:
                b = U.basename_of(u)
                if b is not None:
                    self.basename_counts[b] = self.basename_counts.get(b, 0) + 1
        self.visited_count += W
        self.epoch += 1
        self.metrics["epochs"].append(
            {
                "epoch": self.epoch - 1,
                "wave": W,
                # frontier-ops metric counts every gauntlet-emitted
                # candidate (pre chunk-dedup): partition-invariant
                "candidates": int(sum(t["cands_raw"] for t in timings)),
                "fetch_sec": round(t_fetch, 4),
                "worker_max": {
                    k: round(max((t[k] for t in timings), default=0.0), 4)
                    for k in ("fetch", "write", "extract")
                },
                "worker_top": sorted(
                    ((t["rows"], t["extract"]) for t in timings),
                    key=lambda x: -x[1],
                )[:5],
                "worker_sum_rows": int(sum(t["rows"] for t in timings)),
                "frontier_sec": round(t_cand, 4),
                "drain_sec": round(t_drain, 4),
                "total_sec": round(time.perf_counter() - t0, 4),
                # dispatch-latency diagnostics (wall-clock deltas between
                # the driver's dispatch/collect points and worker task
                # entry/exit — isolates Ray scheduling + result transfer
                # from worker busy time)
                "lat_first_enter": round(
                    min(t["t_enter"] for t in timings) - t_dispatch_wall, 4),
                "lat_last_enter": round(
                    max(t["t_enter"] for t in timings) - t_dispatch_wall, 4),
                "lat_collect": round(
                    t_collect_wall - max(t["t_exit"] for t in timings), 4),
            }
        )
        t_ck = time.perf_counter()
        self._checkpoint()
        self.metrics["epochs"][-1]["ckpt_sec"] = round(time.perf_counter() - t_ck, 4)
        return W

    def _gauntlet_kwargs(self) -> dict:
        return dict(
            robots=self.robots,
            seed_host=self.seed_host,
            remove_query_params=self.cfg.remove_query_params,
            keep_query_params=self.cfg.keep_query_params,
            allowed_domains_crawl=self.cfg.allowed_domains_crawl,
            allowed_domains_static=self.cfg.allowed_domains_static,
            include_regex=self.cfg.include_regex,
            ignore_regex=self.cfg.ignore_regex,
            transform_url=self.cfg.transform_url,
            max_url_length=self.cfg.max_url_length,
            max_depth=self.cfg.max_depth,
            ignore_robots_txt=self.cfg.ignore_robots_txt,
            force_relative_urls=self.cfg.force_relative_urls,
            initial_url=self.seed_urls[0] if self.seed_urls else "",
            disabled_span_kinds=self.cfg.disabled_span_kinds,
            regex_filtering_only_for_pages=self.cfg.regex_filtering_only_for_pages,
            single_page=self.cfg.single_page,
            single_foreign_page=self.cfg.single_foreign_page,
            disable_files=self.cfg.disable_files,
            disable_fonts=self.cfg.disable_fonts,
            # automatic in the reference: seed URL IS a sitemap → only
            # sitemap-listed URLs crawl (crawler.rs:873-876)
            sitemap_only=bool(self.seed_urls and U.is_sitemap_url(self.seed_urls[0])),
            basename_blocklist=frozenset(
                b for b, c in self.basename_counts.items() if c >= self.cfg.max_non200_per_basename
            ),
        )

    def _ingest(self, parts: list, wave_size: int, n_ok: int) -> None:
        """Hand one wave's candidates to the frontier.  ``parts`` holds
        one entry per worker call — its candidates split by frontier
        shard (object refs under Ray, values in-process) — and every
        shard reads only its own slice: skip records go to its
        first-wins skip set, ok-candidates to its two-phase admit.

        ``n_ok`` (Σ per-worker deduped ok counts) bounds the
        admissions.  When even admitting all of them cannot bind a cap,
        each shard records and admits in ONE call; under Ray the driver
        does not wait for it (actor task order runs the next drain and
        checkpoint behind it, and the refs are collected with the next
        checkpoint).  Otherwise the shards stash their winners, the
        driver sums their counts for the cap check, and either commits
        or falls back to the exact sequential simulation."""
        V, W, cfg = self.visited_count, wave_size, self.cfg

        def fits(n: int) -> bool:
            return V + W + n <= cfg.max_visited_urls and (W - 1) + n <= cfg.max_queue_length

        if n_ok == 0 or fits(n_ok):
            if self._use_ray:
                self._ingest_refs.extend(
                    s.ingest_direct_parts.remote(*parts) for s in self._shards)
            else:
                self._shard_call("ingest_direct_parts", *parts)
            return
        self._shard_call("record_skips_parts", *parts)
        if fits(sum(self._shard_call("try_admit_parts", *parts))):
            self._shard_call("commit_stash")
            return
        self._shard_call("abort_stash")
        self._admit_exact(W)

    def _admit_exact(self, wave_size: int) -> None:
        """Exact sequential enqueue simulation (caps bind) — see module
        docstring; iterates ALL candidates in priority order because a
        dropped first occurrence lets a later duplicate win.  The
        chunk-deduped table lacks those duplicates, so pull the full
        pre-dedup candidates back from the workers (rare: caps bind
        only in the final wave or two)."""
        V, W, cfg = self.visited_count, wave_size, self.cfg
        ok = self._full_ok_candidates()
        keys = ok["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        prios = ok["priority"].to_numpy(zero_copy_only=False)
        wavepos = (prios // PRIO_SHIFT).astype(np.int64)
        seen_any = self._contains(keys)
        accepted: dict[int, int] = {}
        A = 0
        for i in range(ok.num_rows):
            k = int(keys[i])
            if seen_any[i] or k in accepted:
                continue
            if V + W + A >= cfg.max_visited_urls:
                continue
            if (W - 1 - int(wavepos[i])) + A >= cfg.max_queue_length:
                continue
            accepted[k] = i
            A += 1
        accepted_idx = np.array(sorted(accepted.values()), dtype=np.int64)
        if len(accepted_idx) == 0:
            return
        win = ok.take(pa.array(accepted_idx))
        entries = pa.table(
            {
                "url": win["url"],
                "url_key": win["url_key"],
                "host": win["host"],
                "depth": win["depth"],
                "priority": win["priority"],
                "source_uq_id": win["source_uq_id"],
                "source_attr": win["source_attr"],
            }
        )
        self._offer(entries)

    def _full_ok_candidates(self) -> pa.Table:
        """Gather this epoch's pre-dedup ok-tagged candidates, priority
        sorted (for the caps-binding exact simulation)."""
        if self._epoch_workers_used is None:
            parts = [self._local_worker.full_candidates()]
        else:
            import ray

            parts = ray.get([w.full_candidates.remote() for w in self._epoch_workers_used])
        parts = [p for p in parts if p is not None and p.num_rows]
        full = pa.concat_tables(parts) if parts else _empty_cand_table()
        ok = full.filter(pc.equal(full["tag"], "ok"))
        return ok.take(pc.sort_indices(ok, sort_keys=[("priority", "ascending")]))

    def shutdown(self) -> None:
        """Release the actor pools (a finished crawl would otherwise pin
        ~K worker + num_shards processes until the driver exits; results
        live in parquet, resume builds fresh actors)."""
        if self._use_ray and (self._shards or self._workers):
            import ray

            for a in [*self._shards, *self._workers]:
                try:
                    ray.kill(a)
                except Exception:
                    pass
        self._shards, self._workers = [], []

    def _collect_skipped(self) -> pa.Table:
        """Skip records from the per-shard per-epoch checkpoint deltas
        (small: one row per distinct skipped URL).  At 10^10-URL scale
        consume them as a Dataset over the same glob instead."""
        parts = []
        shards_root = os.path.join(self.workdir, "shards")
        if os.path.isdir(shards_root):
            for d in sorted(os.listdir(shards_root)):
                full = os.path.join(shards_root, d)
                for f in sorted(os.listdir(full)):
                    if f.startswith("skips-"):
                        parts.append(pq.read_table(os.path.join(full, f)))
        return pa.concat_tables(parts) if parts else _empty_skip_table()

    # -- checkpoint / resume -------------------------------------------------
    def _checkpoint(self) -> None:
        e = self.epoch - 1
        sdir = os.path.join(self.workdir, "shards", f"epoch={e}")
        manifest = {
            "epoch": e,
            "visited_count": self.visited_count,
            # SNAPSHOT, not the live dict: the Ray-mode manifest write is
            # deferred one epoch (_flush_pending), and by then the next
            # epoch's non-200s have been added — a resume would then
            # re-add them (double count), tripping the ≥max_non200
            # basename blocklist early and silently dropping pages the
            # uninterrupted run fetched (found by the node-loss drill in
            # scripts/multinode_sim.py: 6 rows short at 135k pages).
            "basename_counts": dict(self.basename_counts),
            "config": self.cfg.fingerprint(),
            "shards": None,
            "metrics": self.metrics["epochs"][-1],
        }
        if self._use_ray:
            # async: flush the PREVIOUS epoch's refs (instant by now —
            # actor ordering ran them before this epoch's drain), then
            # submit this epoch's shard checkpoints without waiting.
            # The manifest for epoch e is written one epoch later (or at
            # run() end); a crash in that window loses only the newest
            # manifest, and resume() already prunes shard/visited dirs
            # newer than the last manifest it finds.
            # This epoch's ingest refs ride along and are collected with
            # the ckpt refs next epoch; take them out BEFORE the flush,
            # which would otherwise wait on them here and re-introduce
            # the per-epoch barrier this removes.
            ingest_refs, self._ingest_refs = self._ingest_refs, []
            self._flush_pending()
            refs = [s.checkpoint.remote(sdir) for s in self._shards]
            self._pending_ckpt = (e, manifest, refs, ingest_refs)
        else:
            manifest["shards"] = self._shard_call("checkpoint", sdir)
            self._write_manifest(e, manifest)

    def _write_manifest(self, e: int, manifest: dict) -> None:
        tmp = os.path.join(self.workdir, "manifest.tmp")
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, os.path.join(self.workdir, f"manifest-epoch{e}.json"))

    def _flush_pending(self) -> None:
        """Collect last epoch's fire-and-forget shard refs: propagate
        any ingest error and write the deferred manifest."""
        if not self._use_ray:
            return
        import ray

        if self._pending_ckpt is not None:
            e, manifest, refs, ingest_refs = self._pending_ckpt
            self._pending_ckpt = None
            if ingest_refs:
                ray.get(ingest_refs)
            manifest["shards"] = ray.get(refs)
            self._write_manifest(e, manifest)
        if self._ingest_refs:
            # only reachable if an epoch ended without a checkpoint
            # (defensive: every run_epoch that ingests also checkpoints)
            refs, self._ingest_refs = self._ingest_refs, []
            ray.get(refs)

    def resume(self) -> bool:
        """Restore the latest complete epoch; True if a checkpoint existed."""
        epochs = sorted(
            int(f.split("epoch")[1].split(".")[0])
            for f in os.listdir(self.workdir)
            if f.startswith("manifest-epoch")
        )
        if not epochs:
            return False
        e = epochs[-1]
        with open(os.path.join(self.workdir, f"manifest-epoch{e}.json")) as f:
            manifest = json.load(f)
        if manifest["config"] != self.cfg.fingerprint():
            raise ValueError("checkpoint config fingerprint mismatch")
        self._make_shards()
        # delta-chain restore: every epoch's seen delta up to e, in order
        sdirs = [os.path.join(self.workdir, "shards", f"epoch={i}") for i in range(e + 1)]
        self._shard_call("restore", sdirs)
        self.epoch = e + 1
        self.visited_count = manifest["visited_count"]
        self.basename_counts = dict(manifest["basename_counts"])
        # drop visited AND shard-checkpoint dirs from epochs after the
        # checkpoint (partial work): a crash between shard checkpoint
        # writes and the manifest replace leaves a stale shards/epoch=N
        # dir whose skip rows are NOT in the restored _skip_seen —
        # _collect_skipped would double-count / phantom-include them.
        import shutil

        for sub in ("visited", "shards"):
            root = os.path.join(self.workdir, sub)
            if os.path.isdir(root):
                for d in os.listdir(root):
                    if int(d.split("=")[1]) > e:
                        shutil.rmtree(os.path.join(root, d))
        return True

    # -- full run ------------------------------------------------------------
    def warmup(self) -> float:
        """Readiness barrier on the worker pool (actor processes import +
        construct their corpus reader).  Separates one-time cluster
        spin-up from the sustained-throughput measurement — the north
        rule's metric is *sustained* pages/s."""
        t0 = time.perf_counter()
        if self._workers:
            import ray

            K = len(self._workers)
            ray.get(
                [
                    w.preload_buckets.remote([b for b in range(self.num_buckets) if b % K == i])
                    for i, w in enumerate(self._workers)
                ]
            )
        if self._use_ray and self._shards:
            import ray

            # first remote call per shard actor is cold — a harmless
            # read moves that off epoch 0's critical path
            ray.get([s.seen_count.remote() for s in self._shards])
            # warm the assemble path THROUGH the real kernels on shard
            # 0's actor: a zero-part call short-circuits before Arrow
            # concat/sort/np.unique, leaving ~0.6 s of cold first-touch
            # on epoch 0 at 16 CPUs — one throwaway row exercises them
            warm = _dispatch_table([("https://w/", 0, "w", 0, 0, "", 0)])
            meta_ref, _ = self._shards[0].assemble_wave.options(num_returns=2).remote(
                0, 0, True, warm
            )
            ray.get(meta_ref)
        # First process() call per worker pays cold costs (parquet
        # writer import, Arrow kernel modules, first plasma map) —
        # measured ~0.2 s.  Adaptive fanout touches NEW workers on every
        # ramp-up epoch, so without this warm-up each ramp epoch pays it
        # on its critical path.  One dummy wave through every worker
        # (and the driver-local one) moves it all here; the throwaway
        # parts dir is deleted and no shard state is touched.
        if self.seed_urls:
            import shutil

            from ..functions.hashing import xxh64
            from ..functions import urls as U

            u = self.seed_urls[0]
            dummy = _dispatch_table([(u, xxh64(u), U.host_of(u), 0, 0, "", 0)])
            dummy = dummy.append_column("seq", pa.array([0], pa.int64()))
            dummy = dummy.append_column("wavepos", pa.array([0], pa.int64()))
            dummy = dummy.append_column("epoch", pa.array([0], pa.int32()))
            wdir = os.path.join(self.workdir, "warmup")
            if self._workers:
                import ray

                ray.get([
                    w.process.remote(dummy, wdir, i) for i, w in enumerate(self._workers)
                ])
            self._local_worker.process(dummy, wdir, len(self._workers))
            shutil.rmtree(wdir, ignore_errors=True)
        dt = time.perf_counter() - t0
        self.metrics["startup_sec"] = round(dt, 4)
        return dt

    def run(self, max_epochs: int = 10_000) -> CrawlResult:
        if not self._shards:
            self.seed()
            self.warmup()
        t0 = time.perf_counter()
        while self.epoch < max_epochs:
            if self.run_epoch() == 0:
                break
        total = time.perf_counter() - t0
        self._flush_pending()  # final epoch's ingest/ckpt refs + manifest
        skipped = self._collect_skipped()
        # snapshot refs only: the arrays stay in the object store (they
        # outlive the shard actors as long as the result holds the refs);
        # CrawlResult.seen_keys gathers on demand.
        if self._use_ray:
            import ray

            seen_parts = [s.snapshot_seen.remote() for s in self._shards]
            ray.wait(seen_parts, num_returns=len(seen_parts), fetch_local=False)
        else:
            seen_parts = [s.snapshot_seen() for s in self._shards]
        self.metrics["total_sec"] = round(total, 4)
        self.metrics["visited"] = self.visited_count
        self.metrics["candidates"] = int(sum(m["candidates"] for m in self.metrics["epochs"]))
        self.metrics["pages_per_sec"] = round(self.visited_count / max(total, 1e-9), 2)
        self.metrics["frontier_ops_per_sec"] = round(
            self.metrics["candidates"] / max(total, 1e-9), 2
        )
        self.shutdown()
        return CrawlResult(
            workdir=self.workdir,
            visited_dir=os.path.join(self.workdir, "visited"),
            skipped=skipped,
            seen_parts=seen_parts,
            metrics=self.metrics,
        )


def _dispatch_table(rows: list[tuple]) -> pa.Table:
    cols = list(zip(*rows)) if rows else [[] for _ in _DISPATCH_FIELDS]
    return pa.table(
        {name: pa.array(list(vals), type=typ) for (name, typ), vals in zip(_DISPATCH_FIELDS, cols)}
    )


def _empty_cand_table() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "url_key": pa.array([], pa.uint64()),
            "host": pa.array([], pa.string()),
            "tag": pa.array([], pa.string()),
            "reason": pa.array([], pa.int8()),
            "source_uq_id": pa.array([], pa.string()),
            "source_attr": pa.array([], pa.int8()),
            "priority": pa.array([], pa.int64()),
            "depth": pa.array([], pa.int32()),
        }
    )


def _empty_skip_table() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "url_key": pa.array([], pa.uint64()),
            "reason": pa.array([], pa.int8()),
            "source_uq_id": pa.array([], pa.string()),
            "source_attr": pa.array([], pa.int8()),
        }
    )
