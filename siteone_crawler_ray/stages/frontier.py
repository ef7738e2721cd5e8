"""Frontier shards — the distributed URL-seen set + sharded pending queue.

The reference keeps queue ∪ visited in one in-process DashMap beside its
workers (crawler.rs:96-103, 1219-1243).  Here the same state is split
into ``num_shards`` logical PARTITIONS, ``url_key % num_shards`` (url_key
= xxhash64 of the canonical URL), held by the first H crawl workers:
``stages/worker.CrawlWorker`` is a :class:`FrontierShardState`, and
worker j < H owns the contiguous partition range ``[lo_j, hi_j)``
(:func:`partition_bounds`); H is one owner per four cluster CPUs, at
least one per node (:func:`shard_actor_count`), never more than the
pool.  Partitioning is only a way to scale out; on a 4-CPU box all 8
default partitions live in worker 0, on 32 CPUs each of 8 owners holds
one.  The frontier and the fetch/extract phases of an epoch never run
at the same time, so they share the worker processes (as UbiCrawler
and BUbiNG keep each hash range's frontier inside the agent that
crawls it).  Each owner keeps

- membership: cuckoo filter prefilter (bloom for shards flagged cold)
  + exact sorted-uint64 authority (state/filters.py) — filters are
  advisory because of false positives and non-idempotent inserts under
  task retry; the exact set is what checkpoints,
- pending queue: list of Arrow tables of frontier entries
  (priority-ordered at dispatch by the driver's wave sort),

one structure each for its whole range: none of them depends on the
partition.  The partition matters only for routing (the workers split
their candidates by partition, each owner slices its range) and for
the checkpoint files, which are named by range so a resume with a
different owner count reads them back.

All calls are batch-level (numpy arrays / Arrow tables in and out),
never per-URL.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.filters import BloomFilter, CuckooFilter, ExactSeenSet


class FrontierShardState:
    """Plain shard state for the partitions ``partitions`` (a range, or
    one partition index; an empty range holds nothing).  The crawl
    workers inherit it (stages/worker.py::CrawlWorker).
    ``filter_capacity`` is per partition."""

    def __init__(self, partitions: range | int, filter_capacity: int = 1 << 20,
                 cold: bool = False):
        if isinstance(partitions, int):
            partitions = range(partitions, partitions + 1)
        self.lo, self.hi = partitions.start, partitions.stop
        self.filter_capacity = filter_capacity * len(partitions)
        self.cold = cold
        self.filter = self._new_filter()
        self.exact = ExactSeenSet()
        self.pending: list[pa.Table] = []
        # keys admitted since the last checkpoint — checkpoints are
        # per-epoch DELTAS (O(wave), not O(total-seen); a full snapshot
        # of a 10^10-key seen set every wave would dominate the crawl)
        self._delta: list[np.ndarray] = []
        # skip records: first-wins dedup lives HERE (same key → same
        # partition → same owner), so the driver never holds the
        # O(total-skips) set
        # (crawler.rs:1093-1124 skipped.contains_key semantics)
        self._skip_seen = ExactSeenSet()
        self._skip_parts: list[pa.Table] = []

    def _new_filter(self):
        return (BloomFilter(self.filter_capacity) if self.cold
                else CuckooFilter(self.filter_capacity))

    # -- membership ---------------------------------------------------------
    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        maybe = self.filter.contains_batch(keys)
        seen = np.zeros(len(keys), dtype=bool)
        idx = np.nonzero(maybe)[0]
        if len(idx):
            seen[idx] = self.exact.contains_batch(keys[idx])
        return seen

    def add_seen(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        self.filter.add_batch(keys)
        self.exact.add_batch(keys)

    def seen_count(self) -> int:
        return len(self.exact)

    def snapshot_seen(self) -> np.ndarray:
        return self.exact.snapshot()

    # -- pending queue ------------------------------------------------------
    def offer(self, entries: pa.Table) -> int:
        """Admit new frontier entries: marks them seen + queues them."""
        keys = entries["url_key"].to_numpy(zero_copy_only=False)
        self.add_seen(keys)
        self._delta.append(np.asarray(keys, dtype=np.uint64).copy())
        self.pending.append(entries)
        return entries.num_rows

    SKIP_COLS = ["url", "url_key", "reason", "source_uq_id", "source_attr"]

    def record_skips(self, sk: pa.Table) -> int:
        """First-wins (priority order) dedup of this actor's skip
        records; rows are retained shard-side until the next checkpoint
        writes them as a delta."""
        import pyarrow.compute as pc

        if not sk.num_rows:
            return 0
        sk = sk.take(pc.sort_indices(sk, sort_keys=[("priority", "ascending")]))
        keys = sk["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        first = np.ones(len(keys), dtype=bool)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        dup = np.zeros(len(ks), dtype=bool)
        dup[1:] = ks[1:] == ks[:-1]
        first[order[dup]] = False
        first &= ~self._skip_seen.contains_batch(keys)
        idx = np.nonzero(first)[0]
        if not len(idx):
            return 0
        self._skip_seen.add_batch(keys[idx])
        self._skip_parts.append(sk.take(pa.array(idx)).select(self.SKIP_COLS))
        return int(len(idx))

    def drain(self) -> pa.Table | None:
        if not self.pending:
            return None
        t = pa.concat_tables(self.pending)
        self.pending = []
        return t

    def assemble_wave(self, visited_count: int, epoch: int, want_hosts: bool,
                      num_buckets: int, *parts):
        """Wave assembly: concat every owner's drain output,
        priority-sort, annotate seq/wavepos/epoch.  The driver submits
        this on owner 0 right after the drains; actor tasks run in
        submission order, so owner 0's own drain ref is ready before
        this executes (no deadlock).  The full wave table never lands
        on the driver — it gets only W and the routing summary: the
        host histogram (``want_hosts``) or the corpus buckets
        (``url_key % num_buckets``) present; workers self-select rows
        straight from the call's output object (plasma, zero-copy).

        Running this on an ALREADY-WARM actor instead of a detached
        ``num_cpus=0`` task matters on the epoch-0 critical path: a
        task may land on any idle worker process, and the first Arrow
        concat/sort/first-plasma-get on a cold process measured ~0.6 s
        at 16 CPUs — an actor process that has been offering/draining
        all along has those code paths hot."""
        import pyarrow.compute as pc

        parts = [p for p in parts if p is not None and p.num_rows]
        if not parts:
            return {"W": 0}, None
        wave = pa.concat_tables(parts)
        wave = wave.take(pc.sort_indices(wave, sort_keys=[("priority", "ascending")]))
        W = wave.num_rows
        wave = wave.append_column("seq", pa.array(visited_count + np.arange(W), type=pa.int64()))
        wave = wave.append_column("wavepos", pa.array(np.arange(W), type=pa.int64()))
        wave = wave.append_column("epoch", pa.array(np.full(W, epoch), type=pa.int32()))
        meta = {"W": W}
        if want_hosts:
            uniq, cnt = np.unique(wave["host"].to_numpy(zero_copy_only=False), return_counts=True)
            meta["hosts"] = (uniq, cnt)
        else:
            keys = wave["url_key"].to_numpy(zero_copy_only=False)
            meta["buckets"] = np.unique(keys % np.uint64(num_buckets)).astype(np.int64)
        return meta, wave

    # -- two-phase admit (the shard-parallel anti-join) ---------------------
    DISPATCH_COLS = ["url", "url_key", "host", "depth", "priority", "source_uq_id", "source_attr"]

    def try_admit(self, cands: pa.Table) -> int:
        """Phase A: priority-sort this actor's ok-candidates, first-wins
        per key, drop already-seen; STASH the winners and return their
        count (the driver sums counts for the global cap check before
        committing — crawler.rs:1219-1306 cap semantics)."""
        import pyarrow.compute as pc

        if not cands.num_rows:
            self._stash = None
            return 0
        keys = cands["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        prio = cands["priority"].to_numpy(zero_copy_only=False)
        order = np.lexsort((prio, keys))
        ks = keys[order]
        first = np.ones(len(ks), dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        first_idx = np.sort(order[first])
        unseen = ~self.contains(keys[first_idx])
        win_idx = first_idx[unseen]
        if not len(win_idx):
            self._stash = None
            return 0
        self._stash = cands.take(pa.array(win_idx)).select(self.DISPATCH_COLS)
        return int(len(win_idx))

    # -- part-based variants: the driver fans the SAME candidate parts
    # (object refs — plasma shared-memory reads, no driver copy) to
    # every owner; each takes its own slice here
    def _partition_of(self, parts, tag: str) -> pa.Table | None:
        """This actor's ``tag`` rows of the workers' candidate parts.
        Each part is (candidates sorted by partition, per-partition
        offsets) — stages/worker.py::_split_by_shard — so the actor's
        contiguous range is ONE slice ``offs[lo]:offs[hi]`` instead of a
        re-scan of all candidates; a worker without candidates sends
        None."""
        import pyarrow.compute as pc

        lo, hi = self.lo, self.hi
        mine = [t.slice(offs[lo], offs[hi] - offs[lo]) for t, offs in
                (p for p in parts if p is not None)]
        mine = [t for t in mine if t.num_rows]
        if not mine:
            return None
        t = pa.concat_tables(mine)
        t = t.filter(pc.equal(t["tag"], tag))
        return t if t.num_rows else None

    def admit_direct_parts(self, *parts) -> int:
        sub = self._partition_of(parts, "ok")
        if sub is None:
            self._stash = None
            return 0
        return self.admit_direct(sub)

    def try_admit_parts(self, *parts) -> int:
        sub = self._partition_of(parts, "ok")
        if sub is None:
            self._stash = None
            return 0
        return self.try_admit(sub)

    def ingest_direct_parts(self, *parts) -> int:
        """Fused fast-path: record skips AND admit in one actor call —
        halves the driver↔shard round-trips per epoch when caps can't
        bind (the epoch loop's serial term)."""
        self.record_skips_parts(*parts)
        return self.admit_direct_parts(*parts)

    def record_skips_parts(self, *parts) -> int:
        sub = self._partition_of(parts, "skip")
        if sub is None:
            return 0
        return self.record_skips(sub)

    def admit_direct(self, cands: pa.Table) -> int:
        """Single-call admit for the common case where even admitting
        EVERY candidate cannot violate the caps (driver checks the
        upper bound first) — saves one shard round-trip per wave."""
        n = self.try_admit(cands)
        self.commit_stash()
        return n

    def commit_stash(self) -> int:
        """Phase B: caps cleared globally → mark seen + enqueue."""
        stash = getattr(self, "_stash", None)
        self._stash = None
        if stash is None or not stash.num_rows:
            return 0
        return self.offer(stash)

    def abort_stash(self) -> None:
        self._stash = None

    # -- checkpoint ---------------------------------------------------------
    def _ckpt_path(self, directory: str, kind: str) -> str:
        return os.path.join(directory, f"{kind}-{self.lo:03d}-{self.hi:03d}.parquet")

    def checkpoint(self, directory: str) -> dict:
        """Write the seen-key DELTA since the previous checkpoint plus
        the current pending queue (pending is O(wave)), one file per
        kind named by this actor's partition range."""
        os.makedirs(directory, exist_ok=True)
        delta = (
            np.concatenate(self._delta) if self._delta else np.empty(0, np.uint64)
        )
        pq.write_table(
            pa.table({"url_key": pa.array(delta, type=pa.uint64())}),
            self._ckpt_path(directory, "seen-delta"),
        )
        self._delta = []
        pend = pa.concat_tables(self.pending) if self.pending else None
        if pend is not None and pend.num_rows:
            pq.write_table(pend, self._ckpt_path(directory, "pending"))
        skips = pa.concat_tables(self._skip_parts) if self._skip_parts else None
        if skips is not None and skips.num_rows:
            pq.write_table(skips, self._ckpt_path(directory, "skips"))
        self._skip_parts = []
        return {
            "partitions": [self.lo, self.hi],
            "seen": int(self.seen_count()),
            "delta": int(len(delta)),
            "pending": int(pend.num_rows) if pend is not None else 0,
            "skips": int(skips.num_rows) if skips is not None else 0,
            "filter": "bloom" if self.cold else "cuckoo",
        }

    def _own_rows(self, directory: str, kind: str, num_shards: int,
                  columns: list[str] | None = None) -> list[pa.Table]:
        """This actor's rows of every ``kind`` checkpoint file in
        ``directory`` whose partition range overlaps its own — the
        writer may have had a different actor count."""
        out = []
        if not os.path.isdir(directory):
            return out
        for f in sorted(os.listdir(directory)):
            k, lo, hi = parse_ckpt_name(f)
            if k != kind or hi <= self.lo or lo >= self.hi:
                continue
            t = pq.read_table(os.path.join(directory, f), columns=columns)
            if lo < self.lo or hi > self.hi:
                p = shard_of(t["url_key"].to_numpy(zero_copy_only=False), num_shards)
                t = t.filter(pa.array((p >= self.lo) & (p < self.hi)))
            out.append(t)
        return out

    def restore(self, directories: list[str] | str, num_shards: int) -> None:
        """Rebuild from the delta chain: every checkpoint dir up to and
        including the resume epoch, in epoch order; pending comes only
        from the final one."""
        if isinstance(directories, str):
            directories = [directories]
        deltas = [t["url_key"].to_numpy() for d in directories
                  for t in self._own_rows(d, "seen-delta", num_shards)]
        keys = np.concatenate(deltas) if deltas else np.empty(0, np.uint64)
        self.exact = ExactSeenSet(keys)
        self.filter = self._new_filter()
        base = self.exact.base
        if len(base):
            self.filter.add_batch(base)
        self._delta = []
        self.pending = self._own_rows(directories[-1], "pending", num_shards)
        # skip-dedup authority rebuilds from the skip-delta chain (keys only)
        self._skip_seen = ExactSeenSet()
        self._skip_parts = []
        skip_keys = [t["url_key"].to_numpy() for d in directories
                     for t in self._own_rows(d, "skips", num_shards, columns=["url_key"])]
        if skip_keys:
            self._skip_seen.add_batch(np.concatenate(skip_keys).astype(np.uint64))


_CKPT_NAME = re.compile(r"(seen-delta|pending|skips)-(\d+)(?:-(\d+))?\.parquet")


def parse_ckpt_name(name: str) -> tuple[str, int, int]:
    """``kind-LO-HI.parquet`` → (kind, lo, hi); a one-index name
    ``kind-I.parquet`` (one actor per partition) is the range [I, I+1).
    Any other name raises: a checkpoint file restore cannot place
    would silently drop seen keys."""
    m = _CKPT_NAME.fullmatch(name)
    if m is None:
        raise ValueError(f"unrecognised frontier checkpoint file: {name!r}")
    lo = int(m.group(2))
    return m.group(1), lo, int(m.group(3)) if m.group(3) is not None else lo + 1


def node_cpus() -> list[int]:
    """Whole CPUs of every alive, CPU-bearing Ray node ([4] when the
    cluster reports none)."""
    import ray

    cpus = [int(n["Resources"].get("CPU", 0)) for n in ray.nodes() if n["Alive"]]
    return [c for c in cpus if c > 0] or [4]


def shard_actor_count(num_shards: int) -> int:
    """H, the number of crawl workers owning the ``num_shards``
    partitions (the crawl takes at most its pool size): one per four
    cluster CPUs, at least one per node so SPREAD puts the frontier on
    every node, never more than the partitions.  4 CPUs → 1, 2×2 CPUs
    → 2, 32 CPUs or 4×8 → 8 (one partition each)."""
    cpus = node_cpus()
    return min(num_shards, max(len(cpus), sum(cpus) // 4))


def partition_bounds(num_shards: int, num_actors: int) -> list[int]:
    """Owner j holds partitions ``[b[j], b[j + 1])`` — contiguous and
    balanced (sizes differ by at most one)."""
    return [j * num_shards // num_actors for j in range(num_actors + 1)]


def partition_owner(num_shards: int, num_actors: int) -> np.ndarray:
    """Partition → index of the owner that holds it."""
    return np.repeat(np.arange(num_actors),
                     np.diff(partition_bounds(num_shards, num_actors)))


def shard_of(keys: np.ndarray, num_shards: int) -> np.ndarray:
    return (np.asarray(keys, dtype=np.uint64) % np.uint64(num_shards)).astype(np.int32)
