"""Frontier shards — the distributed URL-seen set + sharded pending queue.

The reference keeps queue ∪ visited in one in-process DashMap beside its
workers (crawler.rs:96-103, 1219-1243).  Here the first H crawl workers
(``stages/worker.CrawlWorker`` is a :class:`FrontierShardState`) each
hold one contiguous range of url_key (xxhash64 of the canonical URL):
owner j of H the keys ``[ceil(j·2^64/H), ceil((j+1)·2^64/H))``
(``functions/hashing.key_bounds``, the cut the corpus buckets and the
fetch routing use too).  H is one owner per four cluster CPUs, at least
one per node (:func:`shard_actor_count`), never more than the pool.
The frontier and the fetch/extract phases of an epoch never run at the
same time, so they share the worker processes (as UbiCrawler and
BUbiNG keep each hash range's frontier inside the agent that crawls
it).  Each owner keeps

- membership: a cuckoo filter prefilter + the exact authority, one
  sorted unique uint64 array (state/filters.py) — the filter is
  advisory because of false positives and non-idempotent inserts under
  task retry, so :meth:`FrontierShardState.contains` sends only its
  "maybe" keys to the exact set; the exact set is what checkpoints,
  and the filter grows from it: :data:`FILTER_START` keys at first,
  rebuilt at ≥ 2× the size before an add takes it past 0.7 load.
  There is no cold (bloom) mode: every owner keeps its seen set in RAM;
- skip records: first-wins per key, with their own exact set;
- pending queue: list of Arrow tables of frontier entries in offer
  order; owner 0's :meth:`FrontierShardState.assemble_wave` sorts the
  drained queues by priority when it builds the next wave.

The range matters only for routing candidates (workers sort them by
url_key, each owner slices its range by binary search) and for the
checkpoint files, named by key range so a resume with a different
owner count reads them back.

Owner 0 also routes every wave to the fetch workers, the one place
that decides it (:meth:`FrontierShardState.assemble_wave`,
:func:`route_wave`): each row's worker of the whole pool — by url_key
range, or by host — and, with a politeness rate, each host's split
(:func:`host_split`).

Every "first occurrence per key in priority order" — admission,
skip records, the workers' per-chunk dedup — is :func:`first_wins`.
All calls are batch-level (numpy arrays / Arrow tables in and out),
never per-URL.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import KEY_SPACE, key_span, range_index, xxh64_strings
from ..state.filters import CuckooFilter, ExactSeenSet

# keys a new owner's filter holds before its first rebuild
FILTER_START = 1 << 10


def first_wins(prio: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Ascending row indices of the winning row of each distinct key
    tuple (``keys`` are parallel columns): the lowest ``prio``, the
    earliest row among equal priorities.  One stable lexsort."""
    order = np.lexsort((prio, *keys))
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for k in keys:
        k = k[order]
        head[1:] |= k[1:] != k[:-1]
    return np.sort(order[head])


def route_wave(wave: pa.Table, routing: str, num_workers: int) -> np.ndarray:
    """Worker id of every row of a W-row wave over the whole pool of
    P = ``num_workers``.

    routing="bucket": url_key k runs on worker ``range_index(k, P)``,
    the one whose ``warmup()`` preloaded the corpus buckets overlapping
    its key range ``key_bounds(P)[w:w + 2]``.
    routing="host": ``(xxh64(host) + url_key % S_h) % P``.  A host's
    rows land on one worker, the same in every wave, except a hot host
    holding more than 2 fair shares (W/P) of the wave, salted over
    S_h = min(P, ceil(rows / fair share)) consecutive workers from its
    own — the fixed host→agent assignment of UbiCrawler/BUbiNG with
    salted hot-host keys (SURVEY §7.5).  Each distinct host is hashed
    once."""
    keys = wave["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    if routing != "host":
        return range_index(keys, num_workers)
    hosts, inv, cnt = np.unique(wave["host"].to_numpy(zero_copy_only=False),
                                return_inverse=True, return_counts=True)
    fair = max(1, -(-len(keys) // num_workers))
    salt = np.where(cnt > 2 * fair, np.minimum(num_workers, -(-cnt // fair)), 1)
    home = xxh64_strings(hosts)[inv]
    return ((home + keys % salt.astype(np.uint64)[inv])
            % np.uint64(num_workers)).astype(np.int64)


def host_split(hosts: np.ndarray, worker: np.ndarray, num_workers: int) -> dict[str, int]:
    """host → the number of distinct workers its rows of the wave
    (``hosts``/``worker`` per row) run on.  Each of them fetches the
    host at ``rate / split`` (stages/fetch.py::FetchStage), so the
    host's buckets sum to its rate."""
    uniq, inv = np.unique(hosts, return_inverse=True)
    pairs = np.unique(inv.astype(np.int64) * num_workers + worker)
    split = np.bincount(pairs // num_workers, minlength=len(uniq))
    return {str(h): int(c) for h, c in zip(uniq, split)}


class FrontierShardState:
    """Plain shard state for the url_keys ``[lo, hi)`` (an empty range
    holds nothing).  The crawl workers inherit it
    (stages/worker.py::CrawlWorker)."""

    def __init__(self, lo: int = 0, hi: int = KEY_SPACE):
        self.lo, self.hi = lo, hi
        self.exact = ExactSeenSet()
        self._rebuild_filter()
        self.pending: list[pa.Table] = []
        # keys admitted since the last checkpoint — checkpoints are
        # per-epoch DELTAS (O(wave), not O(total-seen); a full snapshot
        # of a 10^10-key seen set every wave would dominate the crawl)
        self._delta: list[np.ndarray] = []
        # skip records: first-wins dedup lives HERE (same key → same
        # owner), so the driver never holds the O(total-skips) set
        # (crawler.rs:1093-1124 skipped.contains_key semantics)
        self._skip_seen = ExactSeenSet()
        self._skip_parts: list[pa.Table] = []

    def _rebuild_filter(self) -> None:
        """A filter sized for the exact set's keys, filled from it."""
        n = max(FILTER_START, len(self.exact))
        self.filter = CuckooFilter(n)
        if len(self.exact):
            self.filter.add_batch(self.exact.snapshot())

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
        self.exact.add_batch(keys)
        if self.filter.count + len(keys) > self.filter.capacity:
            self._rebuild_filter()  # past 0.7 load: ≥ 2× the size
        else:
            self.filter.add_batch(keys)

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

    # priority rides along so the run's skipped rows come back in
    # discovery order (pipelines/crawl.py::EpochCrawler._collect_skipped)
    SKIP_COLS = ["url", "url_key", "reason", "source_uq_id", "source_attr", "priority"]

    def record_skips(self, sk: pa.Table) -> int:
        """First-wins (priority order) dedup of this actor's skip
        records; rows are retained shard-side until the next checkpoint
        writes them as a delta (in row order: the run's skipped table
        orders each epoch by priority)."""
        if not sk.num_rows:
            return 0
        keys = sk["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        idx = first_wins(sk["priority"].to_numpy(zero_copy_only=False), keys)
        idx = idx[~self._skip_seen.contains_batch(keys[idx])]
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

    def assemble_wave(self, visited_count: int, epoch: int, routing: str,
                      num_workers: int, polite: bool, *parts):
        """Wave assembly and routing, the one place a wave is routed:
        concat every owner's drain output, priority-sort, annotate
        seq/wavepos/epoch and each row's ``worker`` (:func:`route_wave`
        over the whole pool of ``num_workers``).  The driver submits
        this on owner 0 right after the drains; actor tasks run in
        submission order, so owner 0's own drain ref is ready before
        this executes (no deadlock).  The full wave table never lands
        on the driver — it gets only ``meta``: W, the worker ids
        present and, for a crawl with a rate (``polite``), each host's
        ``split`` (:func:`host_split`); workers take their rows
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
        worker = route_wave(wave, routing, num_workers)
        meta = {"W": W, "workers": np.unique(worker).tolist()}
        if polite:
            meta["split"] = host_split(wave["host"].to_numpy(zero_copy_only=False),
                                       worker, num_workers)
        return meta, wave.append_column("worker", pa.array(worker, type=pa.int32()))

    # -- two-phase admit (the shard-parallel anti-join) ---------------------
    DISPATCH_COLS = ["url", "url_key", "host", "depth", "priority", "source_uq_id", "source_attr"]

    def try_admit(self, cands: pa.Table) -> int:
        """Phase A: priority-sort this actor's ok-candidates, first-wins
        per key, drop already-seen; STASH the winners and return their
        count (the driver sums counts for the global cap check before
        committing — crawler.rs:1219-1306 cap semantics)."""
        if not cands.num_rows:
            self._stash = None
            return 0
        keys = cands["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        first_idx = first_wins(cands["priority"].to_numpy(zero_copy_only=False), keys)
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
    def _own_slice(self, parts, tag: str) -> pa.Table | None:
        """This owner's ``tag`` rows of the workers' candidate parts.
        Each part is a candidate table sorted by url_key
        (stages/worker.py::CrawlWorker.process_shared), so the owner's
        key range is ONE slice found by two binary searches instead of
        a re-scan of all candidates; a worker without candidates sends
        None."""
        import pyarrow.compute as pc

        mine = []
        for t in parts:
            if t is None:
                continue
            a, b = key_span(t["url_key"].to_numpy(), self.lo, self.hi)
            if b > a:
                mine.append(t.slice(a, b - a))
        if not mine:
            return None
        t = pa.concat_tables(mine)
        t = t.filter(pc.equal(t["tag"], tag))
        return t if t.num_rows else None

    def admit_direct_parts(self, *parts) -> int:
        sub = self._own_slice(parts, "ok")
        if sub is None:
            self._stash = None
            return 0
        return self.admit_direct(sub)

    def try_admit_parts(self, *parts) -> int:
        sub = self._own_slice(parts, "ok")
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
        sub = self._own_slice(parts, "skip")
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
        return os.path.join(directory, f"{kind}-{self.lo:020d}-{self.hi:020d}.parquet")

    def checkpoint(self, directory: str) -> dict:
        """Write the seen-key DELTA since the previous checkpoint plus
        the current pending queue (pending is O(wave)), one file per
        kind named by this actor's key range."""
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
            "keys": [self.lo, self.hi],
            "seen": int(self.seen_count()),
            "delta": int(len(delta)),
            "pending": int(pend.num_rows) if pend is not None else 0,
            "skips": int(skips.num_rows) if skips is not None else 0,
        }

    def _own_rows(self, directory: str, kind: str,
                  columns: list[str] | None = None) -> list[pa.Table]:
        """This actor's rows of every ``kind`` checkpoint file in
        ``directory`` whose key range overlaps its own — the writer may
        have had a different owner count."""
        out = []
        if not os.path.isdir(directory):
            return out
        for f in sorted(os.listdir(directory)):
            k, lo, hi = parse_ckpt_name(f)
            if k != kind or hi <= self.lo or lo >= self.hi:
                continue
            t = pq.read_table(os.path.join(directory, f), columns=columns)
            if lo < self.lo or hi > self.hi:
                t = t.sort_by("url_key")
                a, b = key_span(t["url_key"].to_numpy(), self.lo, self.hi)
                t = t.slice(a, b - a)
            out.append(t)
        return out

    def restore(self, directories: list[str] | str) -> None:
        """Rebuild from the delta chain: every checkpoint dir up to and
        including the resume epoch, in epoch order; pending comes only
        from the final one.  The filter is sized for the restored keys."""
        if isinstance(directories, str):
            directories = [directories]
        deltas = [t["url_key"].to_numpy() for d in directories
                  for t in self._own_rows(d, "seen-delta")]
        self.exact = ExactSeenSet(np.concatenate(deltas) if deltas else None)
        self._rebuild_filter()
        self._delta = []
        self.pending = self._own_rows(directories[-1], "pending")
        # skip-dedup authority rebuilds from the skip-delta chain (keys only)
        skip_keys = [t["url_key"].to_numpy() for d in directories
                     for t in self._own_rows(d, "skips", columns=["url_key"])]
        self._skip_seen = ExactSeenSet(np.concatenate(skip_keys) if skip_keys else None)
        self._skip_parts = []


_CKPT_NAME = re.compile(r"(seen-delta|pending|skips)-(\d+)-(\d+)\.parquet")


def parse_ckpt_name(name: str) -> tuple[str, int, int]:
    """``kind-LO-HI.parquet`` → (kind, lo, hi), the url_key range
    [lo, hi) its writer owned.  Any other name raises: a checkpoint
    file restore cannot place would silently drop seen keys."""
    m = _CKPT_NAME.fullmatch(name)
    if m is None:
        raise ValueError(f"unrecognised frontier checkpoint file: {name!r}")
    return m.group(1), int(m.group(2)), int(m.group(3))


def node_cpus() -> list[int]:
    """Whole CPUs of every alive, CPU-bearing Ray node ([4] when the
    cluster reports none)."""
    import ray

    cpus = [int(n["Resources"].get("CPU", 0)) for n in ray.nodes() if n["Alive"]]
    return [c for c in cpus if c > 0] or [4]


def shard_actor_count() -> int:
    """H, the number of crawl workers owning a url_key range (the
    crawl takes at most its pool size): one per four cluster CPUs, at
    least one per node so SPREAD puts the frontier on every node.
    4 CPUs → 1, 2×2 CPUs → 2, 32 CPUs or 4×8 → 8, 64 CPUs → 16."""
    cpus = node_cpus()
    return max(len(cpus), sum(cpus) // 4)
