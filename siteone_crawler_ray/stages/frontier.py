"""Frontier shards — the distributed URL-seen set + sharded pending queue.

The reference keeps queue ∪ visited in one in-process DashMap
(/root/reference/src/engine/crawler.rs:96-103, 1219-1243).  Here the
same state is a pool of shard actors, partitioned by
``url_key % num_shards`` (url_key = xxhash64 of the canonical URL):

- membership: cuckoo filter prefilter (bloom for shards flagged cold)
  + exact sorted-uint64 authority (state/filters.py) — filters are
  advisory because of false positives and non-idempotent inserts under
  task retry; the exact set is what checkpoints,
- pending queue: per-shard list of Arrow tables of frontier entries
  (priority-ordered at dispatch by the driver's wave sort).

This is the one piece of the engine that is a raw Ray actor rather than
a Dataset op: a shared mutable index that every epoch both reads and
writes.  All calls are batch-level (numpy arrays / Arrow tables in and
out), never per-URL.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.filters import BloomFilter, CuckooFilter, ExactSeenSet


class FrontierShardState:
    """Plain (actor-wrappable) shard state. Unit-testable without Ray."""

    def __init__(self, shard_id: int, filter_capacity: int = 1 << 20, cold: bool = False):
        self.shard_id = shard_id
        self.filter_capacity = filter_capacity
        self.cold = cold
        self.filter = BloomFilter(filter_capacity) if cold else CuckooFilter(filter_capacity)
        self.exact = ExactSeenSet()
        self.pending: list[pa.Table] = []
        # keys admitted since the last checkpoint — checkpoints are
        # per-epoch DELTAS (O(wave), not O(total-seen); a full snapshot
        # of a 10^10-key seen set every wave would dominate the crawl)
        self._delta: list[np.ndarray] = []
        # skip records: first-wins dedup lives HERE (same key → same
        # shard), so the driver never holds the O(total-skips) set
        # (crawler.rs:1093-1124 skipped.contains_key semantics)
        self._skip_seen = ExactSeenSet()
        self._skip_parts: list[pa.Table] = []

    def node_id(self) -> str:
        """Ray node this shard lives on (scripts/multinode_sim.py)."""
        try:
            import ray

            return ray.get_runtime_context().get_node_id()
        except Exception:  # noqa: BLE001 — not inside a Ray worker
            return "driver"

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
        """First-wins (priority order) dedup of this shard's skip
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

    def assemble_wave(self, visited_count: int, epoch: int, want_hosts: bool, *parts):
        """Assemble the epoch wave from every shard's drain output on
        THIS (warm) actor process — see :func:`assemble_wave`.  The
        driver submits this on shard 0 right after the drains; actor
        tasks run in submission order, so shard 0's own drain ref is
        ready before this executes (no deadlock)."""
        return assemble_wave(visited_count, epoch, want_hosts, *parts)

    # -- two-phase admit (the shard-parallel anti-join) ---------------------
    DISPATCH_COLS = ["url", "url_key", "host", "depth", "priority", "source_uq_id", "source_attr"]

    def try_admit(self, cands: pa.Table) -> int:
        """Phase A: priority-sort this shard's ok-candidates, first-wins
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
    # (object refs under Ray — plasma shared-memory reads, no driver
    # copy) to every shard; each shard takes its own slice here
    def _partition_of(self, parts, tag: str) -> pa.Table | None:
        """This shard's ``tag`` rows of the workers' candidate parts.
        Each part is (candidates sorted by shard, per-shard offsets) —
        stages/worker.py::_split_by_shard — so every shard slices out
        its own rows instead of re-scanning all candidates; a worker
        without candidates sends None."""
        import pyarrow.compute as pc

        i = self.shard_id
        mine = [t.slice(offs[i], offs[i + 1] - offs[i]) for t, offs in
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
    def checkpoint(self, directory: str) -> dict:
        """Write the seen-key DELTA since the previous checkpoint plus
        the current pending queue (pending is O(wave))."""
        os.makedirs(directory, exist_ok=True)
        delta = (
            np.concatenate(self._delta) if self._delta else np.empty(0, np.uint64)
        )
        pq.write_table(
            pa.table({"url_key": pa.array(delta, type=pa.uint64())}),
            os.path.join(directory, f"seen-delta-{self.shard_id:03d}.parquet"),
        )
        self._delta = []
        pend = pa.concat_tables(self.pending) if self.pending else None
        if pend is not None and pend.num_rows:
            pq.write_table(pend, os.path.join(directory, f"pending-{self.shard_id:03d}.parquet"))
        skips = pa.concat_tables(self._skip_parts) if self._skip_parts else None
        if skips is not None and skips.num_rows:
            pq.write_table(skips, os.path.join(directory, f"skips-{self.shard_id:03d}.parquet"))
        self._skip_parts = []
        return {
            "shard": self.shard_id,
            "seen": int(self.seen_count()),
            "delta": int(len(delta)),
            "pending": int(pend.num_rows) if pend is not None else 0,
            "skips": int(skips.num_rows) if skips is not None else 0,
            "filter": "bloom" if self.cold else "cuckoo",
        }

    def restore(self, directories: list[str] | str) -> None:
        """Rebuild from the delta chain: every checkpoint dir up to and
        including the resume epoch, in epoch order; pending comes only
        from the final one."""
        if isinstance(directories, str):
            directories = [directories]
        deltas = []
        for d in directories:
            p = os.path.join(d, f"seen-delta-{self.shard_id:03d}.parquet")
            if os.path.exists(p):
                deltas.append(pq.read_table(p)["url_key"].to_numpy())
        keys = np.concatenate(deltas) if deltas else np.empty(0, np.uint64)
        self.exact = ExactSeenSet(keys)
        self.filter = (
            BloomFilter(self.filter_capacity) if self.cold else CuckooFilter(self.filter_capacity)
        )
        base = self.exact.base
        if len(base):
            self.filter.add_batch(base)
        self._delta = []
        pend_path = os.path.join(directories[-1], f"pending-{self.shard_id:03d}.parquet")
        self.pending = [pq.read_table(pend_path)] if os.path.exists(pend_path) else []
        # skip-dedup authority rebuilds from the skip-delta chain (keys only)
        self._skip_seen = ExactSeenSet()
        self._skip_parts = []
        skip_keys = []
        for d in directories:
            p = os.path.join(d, f"skips-{self.shard_id:03d}.parquet")
            if os.path.exists(p):
                skip_keys.append(pq.read_table(p, columns=["url_key"])["url_key"].to_numpy())
        if skip_keys:
            self._skip_seen.add_batch(np.concatenate(skip_keys).astype(np.uint64))


def assemble_wave(visited_count: int, epoch: int, want_hosts: bool, *parts):
    """Wave assembly: concat the shard drains, priority-sort, annotate
    seq/wavepos/epoch.  Runs as a method on shard-0's actor (below) so
    the full wave table never lands on the driver — the driver gets
    only (W, host histogram); workers self-select rows straight from
    the actor call's output object (plasma, zero-copy).

    Running this on an ALREADY-WARM shard actor instead of a detached
    ``num_cpus=0`` task matters on the epoch-0 critical path: a task
    may land on any idle worker process, and the first Arrow
    concat/sort/first-plasma-get on a cold process measured ~0.6 s at
    16 CPUs — an actor process that has been offering/draining all
    along has those code paths hot."""
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
    return meta, wave


def shard_cpu_share(cluster_cpus: float, num_shards: int) -> float:
    """CPU reserved by ONE frontier shard actor — the single model both
    the shard pool (make_shard_actors) and the crawl-worker pool
    (stages/worker.py::_worker_slots) size from.

    0.25 each, but the pool's total is capped at a quarter of the
    cluster: uncapped, 8 shards reserve 2 full CPUs, which on a 2-CPU
    cluster is EVERY slot and the 1-CPU crawl workers can never
    schedule.  Shard work is short-burst and interleaves fine."""
    return min(0.25, (cluster_cpus / 4) / num_shards)


def make_shard_actors(num_shards: int, filter_capacity: int = 1 << 20):
    """num_shards Ray actors, each owning one FrontierShardState,
    reserving ``shard_cpu_share`` of a CPU each."""
    import ray

    per_shard = shard_cpu_share(ray.cluster_resources().get("CPU", 4), num_shards)
    # SPREAD across nodes: fractional-CPU shards otherwise all pack onto
    # the head node (measured in scripts/multinode_sim.py), which on a
    # real cluster funnels every offer/contains exchange through one
    # node's NIC and loses the whole frontier if that node dies.
    Actor = ray.remote(num_cpus=per_shard, scheduling_strategy="SPREAD")(FrontierShardState)
    return [Actor.remote(i, filter_capacity) for i in range(num_shards)]


def shard_of(keys: np.ndarray, num_shards: int) -> np.ndarray:
    return (np.asarray(keys, dtype=np.uint64) % np.uint64(num_shards)).astype(np.int32)
