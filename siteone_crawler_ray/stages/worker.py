"""Persistent crawl workers — fetch + span-explode + gauntlet fused.

The epoch loop re-enters the same stages every BFS wave; building a
fresh Ray Data actor pool per stage per wave pays actor-startup and
executor fixed costs hundreds of times per crawl and caps scaling
efficiency (the fixed costs don't shrink with more CPUs).  A crawl
worker is therefore a long-lived actor created ONCE per run — the
"stateful stages are actor pools" rule applied across waves, which the
Dataset API cannot express today (pools die with each execution).

Each ``process_shared`` call handles one wave chunk end-to-end:

    select this worker's rows of the shared wave   (routing)
    → fetch (corpus lookup, politeness buckets)    stages/fetch.py
    → write its visited parquet part               (deterministic name
      per (epoch, chunk) → idempotent under re-execution; the file IS
      the per-partition lineage the checkpoint manifest records)
    → explode spans → candidate gauntlet           stages/extract.py
    → return the candidates split by frontier shard + non-200 URLs

The candidate parts go to the frontier shards, each of which reads only
its own slice; the driver gets the non-200 URL lists and timings.  Page
bodies/spans stay in the parquet partition.  The basename blocklist is
re-broadcast only when it changes (rare).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .extract import CandidateGauntlet, explode_spans
from .fetch import FetchStage

EXTRACT_COLUMNS = ["doc_id", "spans", "wavepos", "depth", "uq_id"]


class CrawlWorker:
    """One fused fetch→extract→gauntlet pipeline instance.

    Every wave goes through :meth:`process_shared`: the driver-local
    instance takes whole narrow waves (one worker of one), Ray actor
    instances take their share of wide ones.  Both return the same
    per-shard candidate parts and timing dict, which the driver hands
    to the frontier shards unchanged."""

    def __init__(
        self,
        corpus_path: str,
        gauntlet_kwargs: dict,
        max_reqs_per_sec: float | None = None,
        budget_split: int = 1,
        arrow_threads: int | None = 1,
        storage_compression: str = "snappy",
    ):
        # parquet codec for visited parts ("none" → uncompressed)
        self.storage_compression = (
            None if storage_compression == "none" else storage_compression
        )
        if arrow_threads is not None:
            # each worker actor owns ONE logical CPU; Arrow's default
            # per-process pool is os.cpu_count() threads, so K workers
            # spawn K×ncpu threads and thrash under concurrent waves
            pa.set_cpu_count(arrow_threads)
            pa.set_io_thread_count(max(2, arrow_threads))
        self.fetch = FetchStage(
            corpus_path, max_reqs_per_sec, budget_split,
            seed_host=gauntlet_kwargs.get("seed_host", ""),
        )
        self.gauntlet = CandidateGauntlet(**gauntlet_kwargs)
        self._last_full: pa.Table | None = None

    def node_id(self) -> str:
        """Ray node this instance lives on (placement evidence for the
        multi-node simulation — scripts/multinode_sim.py); "driver"
        when running unwrapped."""
        try:
            import ray

            return ray.get_runtime_context().get_node_id()
        except Exception:  # noqa: BLE001 — not inside a Ray worker
            return "driver"

    def set_blocklist(self, blocklist: frozenset) -> None:
        self.gauntlet.basename_blocklist = blocklist

    def full_candidates(self) -> pa.Table | None:
        """Pre-dedup candidates of the most recent process() call."""
        return self._last_full

    def preload_buckets(self, bucket_ids: list[int]) -> int:
        """Fault in this worker's assigned corpus buckets during warmup
        (bucket-affine routing keeps them the only ones it ever needs)."""
        for b in bucket_ids:
            self.fetch.corpus._bucket(int(b))
        return len(bucket_ids)

    def process_shared(
        self,
        wave: pa.Table,
        worker_id: int,
        num_workers: int,
        num_buckets: int,
        vdir: str,
        routing: str,
        salt_map: dict | None,
        num_shards: int,
    ) -> tuple[tuple[pa.Table, list[int]] | None, list[str], dict]:
        """Self-selection from the shared wave table.

        The wave is ONE object (shard 0's assemble_wave output,
        zero-copy Arrow in the object store); each worker takes only its
        rows here, in parallel, instead of the driver cutting and
        pickling K chunks serially.  The driver-local worker is called
        as worker 0 of 1 and takes the whole wave.

        routing="bucket": worker = (url_key % num_buckets) % K —
        corpus-cache affine, politeness budget split across workers.
        routing="host": worker = (xxh64(host) + url_key % S_host) % K —
        a host's URLs land on ONE worker (politeness exact per host),
        except hot hosts salted across S workers with rate/S buckets
        (salt_map from the driver)."""
        import time

        t_enter = time.time()  # wall clock: driver-comparable dispatch latency
        keys = wave["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        if routing == "host":
            from ..functions.hashing import xxh64_strings

            hosts = wave["host"].to_numpy(zero_copy_only=False)
            hh = xxh64_strings(hosts)
            salt = np.ones(len(keys), dtype=np.uint64)
            if salt_map:
                for h, s in salt_map.items():
                    salt[hosts == h] = s
            wid = ((hh + keys % salt) % np.uint64(num_workers)).astype(np.int64)
            self.fetch.salt_map = dict(salt_map or {})
        else:
            wid = (keys % np.uint64(num_buckets)).astype(np.int64) % num_workers
        idx = np.nonzero(wid == worker_id)[0]
        if not len(idx):
            self._last_full = None
            return None, [], {"rows": 0, "cands_raw": 0, "n_ok": 0, "fetch": 0.0,
                              "write": 0.0, "extract": 0.0,
                              "t_enter": t_enter, "t_exit": time.time()}
        chunk = wave if len(idx) == len(keys) else wave.take(pa.array(idx))
        cands, non200, timing = self.process(chunk, vdir, worker_id)
        timing["t_enter"] = t_enter
        timing["t_exit"] = time.time()
        # pre-partition by frontier shard HERE (29-way parallel) so each
        # shard actor later touches only its own rows instead of every
        # shard re-scanning the full candidate set (S× duplicated work —
        # the big-wave frontier bottleneck)
        parts = _split_by_shard(cands, num_shards) if cands is not None and cands.num_rows else None
        return parts, non200, timing

    def process(
        self, chunk: pa.Table, vdir: str, part: int
    ) -> tuple[pa.Table | None, list[str], dict]:
        """→ (candidates, non-200 urls, per-phase seconds) for one chunk."""
        import time

        t0 = time.perf_counter()
        out = self.fetch(chunk)
        t1 = time.perf_counter()
        os.makedirs(vdir, exist_ok=True)
        pq.write_table(out, os.path.join(vdir, f"part-{part:05d}.parquet"),
                       compression=self.storage_compression or "none")
        t2 = time.perf_counter()
        non200 = out.filter(pc.not_equal(out["status_code"], 200))["url"].to_pylist()
        pages = out.select(EXTRACT_COLUMNS)
        pages = pages.filter(pc.is_valid(pages["spans"]))
        cands = (
            self.gauntlet(
                explode_spans(
                    pages,
                    self.gauntlet.disabled_span_kinds,
                    foreign_sld=self.gauntlet.single_foreign_sld,
                    disable_files=self.gauntlet.disable_files,
                    disable_fonts=self.gauntlet.disable_fonts,
                    sitemap_only=self.gauntlet.sitemap_only,
                )
            )
            if pages.num_rows else None
        )
        cands_raw = cands.num_rows if cands is not None else 0
        # keep the full table: when enqueue caps may bind, the driver's
        # exact sequential simulation needs every occurrence (a dropped
        # first occurrence lets a later duplicate win) and re-requests
        # it via full_candidates()
        self._last_full = cands
        if cands is not None and cands.num_rows:
            cands = _chunk_dedup(cands)
        n_ok = (
            int(pc.sum(pc.equal(cands["tag"], "ok")).as_py() or 0)
            if cands is not None and cands.num_rows
            else 0
        )
        t3 = time.perf_counter()
        timing = {
            "rows": chunk.num_rows,
            "cands_raw": cands_raw,
            # deduped ok-count: the driver's cap upper bound without
            # ever pulling the candidate table
            "n_ok": n_ok,
            "fetch": round(t1 - t0, 4),
            "write": round(t2 - t1, 4),
            "extract": round(t3 - t2, 4),
        }
        return cands, non200, timing


def _split_by_shard(cands: pa.Table, num_shards: int) -> tuple[pa.Table, list[int]]:
    """Partition a candidate table by frontier shard (``url_key %
    num_shards``): the rows sorted by shard (one stable argsort) plus
    num_shards + 1 offsets; shard i's rows are [offs[i], offs[i+1]).
    One table serializes cheaper than num_shards slices of it: putting
    300 candidates into the Ray object store took 1.7 ms this way and
    6.9 ms as 8 slices (4-vCPU x86 VM)."""
    from .frontier import shard_of

    sh = shard_of(cands["url_key"].to_numpy(zero_copy_only=False), num_shards)
    order = np.argsort(sh, kind="stable")
    offs = np.concatenate([[0], np.cumsum(np.bincount(sh, minlength=num_shards))])
    return cands.take(pa.array(order)), offs.tolist()


def _chunk_dedup(cands: pa.Table) -> pa.Table:
    """Within-chunk first-wins dedup per (tag, url_key), min priority.

    Equivalent to global first-wins (the driver still merges across
    chunks): keeping only each chunk's min-priority occurrence per key
    cannot change which global occurrence wins.  Shrinks the candidate
    table the driver must concat/sort — the admit path is the serial
    Amdahl term of the epoch loop."""
    prio = cands["priority"].to_numpy(zero_copy_only=False)
    keys = cands["url_key"].to_numpy(zero_copy_only=False)
    tag_bit = (cands["tag"].to_numpy(zero_copy_only=False) == "skip").astype(np.uint8)
    m = len(keys)
    order = np.lexsort((prio, keys, tag_bit))
    ks, tb = keys[order], tag_bit[order]
    first = np.ones(m, dtype=bool)
    first[1:] = (ks[1:] != ks[:-1]) | (tb[1:] != tb[:-1])
    keep = np.sort(order[first])
    return cands.take(pa.array(keep)) if len(keep) != m else cands


def make_crawl_workers(num_workers: int, num_shards: int = 8, **kwargs):
    """Create the 1-CPU fetch worker pool, clamped to what can actually
    schedule.  A user-requested pool larger than the cluster (e.g. the
    wizard's Stress Test `--workers=20` on a 4-CPU box) would otherwise
    leave actors pending forever and deadlock the warm-up `ray.get` —
    the reference's workers are I/O tasks that oversubscribe freely
    (crawler.rs worker loop), ours are CPU-pinned actors, so the cap is
    the honest translation."""
    import ray

    n = clamp_worker_count(num_workers, num_shards)
    Actor = ray.remote(num_cpus=1)(CrawlWorker)
    return [Actor.remote(**kwargs) for _ in range(n)]


def _worker_slots(num_shards: int) -> int:
    """How many 1-CPU worker actors can schedule alongside the SPREAD
    frontier shards, reasoning PER NODE with the shard pool's own
    per-shard reservation (stages/frontier.py::shard_cpu_share):
    integer workers pack into each node's residual after its shard
    share, so a 4×8-CPU cluster with 2 shards/node fits
    floor(8 − 0.5) = 7 workers per node (28 total), NOT the 30 a
    cluster-total count suggests.  The cluster-total clamp deadlocked
    exactly that way — 29 workers requested, 28 schedulable, warm-up
    ray.get pending forever (reproduced by scripts/multinode_sim.py).
    One slot is kept back as driver headroom unless it is the only
    one.  0 means no whole CPU is left after the shards: the crawl
    then runs every wave on its driver-local worker."""
    import math

    import ray

    from .frontier import shard_cpu_share

    node_cpus = [int(n["Resources"].get("CPU", 0))
                 for n in ray.nodes() if n["Alive"]]
    node_cpus = [c for c in node_cpus if c > 0] or [4]
    share = shard_cpu_share(sum(node_cpus), num_shards)
    # SPREAD round-robin worst case: ceil(num_shards / num_nodes) per node
    per_node_shards = math.ceil(num_shards / len(node_cpus))
    slots = sum(max(0, math.floor(c - share * per_node_shards))
                for c in node_cpus)
    return max(1, slots - 1) if slots else 0


def clamp_worker_count(num_workers: int, num_shards: int = 8) -> int:
    """Largest worker count that can actually schedule alongside the
    driver and the fractional-CPU frontier shards (see _worker_slots;
    without the clamp, 7 workers + 8 shards pend forever on an 8-CPU
    box).  0 when not even one worker fits."""
    return min(max(1, num_workers), _worker_slots(num_shards))


def adaptive_worker_count(num_shards: int, cap: int = 64) -> int:
    """Size the pool to the cluster: leave headroom for the driver and
    the (fractional-CPU) frontier shard actors, node by node."""
    return min(cap, _worker_slots(num_shards))
