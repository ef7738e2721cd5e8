"""Persistent crawl workers — fetch + span-explode + gauntlet fused,
and the frontier key ranges beside them.

The epoch loop re-enters the same stages every BFS wave; building a
fresh Ray Data actor pool per stage per wave pays actor-startup and
executor fixed costs hundreds of times per crawl and caps scaling
efficiency (the fixed costs don't shrink with more CPUs).  A crawl
worker is therefore a long-lived actor created ONCE per run — the
"stateful stages are actor pools" rule applied across waves, which the
Dataset API cannot express today (pools die with each execution).

The pool is the crawl's only actor pool: :class:`CrawlWorker` is a
:class:`~.frontier.FrontierShardState`, and the first H workers own
the frontier's url_key ranges (the rest own an empty range).  Inside
an epoch drain → assemble → workers → ingest → checkpoint run one
after another, so the frontier never competes with the fetch/extract
work for the workers' CPUs.

Owner 0's ``assemble_wave`` routes every wave (stages/frontier.py::
route_wave): each row carries the id of the worker that fetches it,
and each host its split, the number of workers its rows run on.  Under
bucket routing worker w of P fetches the url_keys in range w of
``functions/hashing.key_bounds(P)`` — the cut of the frontier owners
and the corpus buckets too — and preloads the buckets overlapping it.
Each ``process_shared`` call handles one worker's rows end-to-end:

    take the rows whose ``worker`` is this one
    → fetch (corpus lookup, per-host buckets at   stages/fetch.py
      rate / split)
    → write its visited parquet part               (deterministic name
      per (epoch, chunk) → idempotent under re-execution; the file IS
      the per-chunk lineage the checkpoint manifest records)
    → explode spans → candidate gauntlet           stages/extract.py
    → return the candidates sorted by url_key + non-200 URLs

The driver never fetches or extracts.  The candidate parts go to the
owners, each of which slices only its own key range; the driver
gets the non-200 URL lists and timings.  Page bodies/spans stay in the
parquet partition.  The basename blocklist is re-broadcast only when
it changes (rare).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .extract import CandidateGauntlet, explode_spans
from .fetch import FetchStage
from .frontier import FrontierShardState, first_wins, node_cpus

EXTRACT_COLUMNS = ["doc_id", "spans", "wavepos", "depth", "uq_id"]


class CrawlWorker(FrontierShardState):
    """One fused fetch→extract→gauntlet pipeline instance, run as a
    Ray actor (:func:`make_crawl_workers`), holding the frontier's
    url_keys ``[lo, hi)`` (empty for a worker that owns none).

    Every wave goes through :meth:`process_shared` on the workers
    ``assemble_wave`` routed its rows to; none decides routing itself.
    Each returns its candidates sorted by url_key and a timing dict;
    the driver hands the parts to the owners unchanged."""

    def __init__(
        self,
        corpus_path: str,
        gauntlet_kwargs: dict,
        max_reqs_per_sec: float | None = None,
        storage_compression: str = "snappy",
        lo: int = 0,
        hi: int = 0,
    ):
        super().__init__(lo, hi)
        # parquet codec for visited parts ("none" → uncompressed)
        self.storage_compression = (
            None if storage_compression == "none" else storage_compression
        )
        # each worker actor owns ONE logical CPU; Arrow's default
        # per-process pool is os.cpu_count() threads, so K workers
        # spawn K×ncpu threads and thrash under concurrent waves
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        self.fetch = FetchStage(
            corpus_path, max_reqs_per_sec, seed_host=gauntlet_kwargs.get("seed_host", ""),
        )
        self.gauntlet = CandidateGauntlet(**gauntlet_kwargs)
        self._last_full: pa.Table | None = None

    def node_id(self) -> str:
        """Ray node this actor lives on (placement evidence for the
        multi-node simulation — scripts/multinode_sim.py)."""
        import ray

        return ray.get_runtime_context().get_node_id()

    def set_blocklist(self, blocklist: frozenset) -> None:
        self.gauntlet.basename_blocklist = blocklist

    def full_candidates(self) -> pa.Table | None:
        """Pre-dedup candidates of the most recent process() call."""
        return self._last_full

    def preload_buckets(self, lo: int, hi: int) -> tuple[str, int] | None:
        """Fault in the corpus buckets overlapping the url_keys
        ``[lo, hi)`` this worker fetches during warmup (bucket routing
        keeps them the only ones it ever needs); → (url, url_key) of
        one page they hold, for a warm-up row that loads no other
        bucket, or None."""
        sample = None
        for b in self.fetch.corpus.bucket_span(lo, hi):
            keys, t = self.fetch.corpus._bucket(b)
            if sample is None and len(keys):
                sample = (t["doc_id"][0].as_py(), int(keys[0]))
        return sample

    def process_shared(
        self,
        wave: pa.Table,
        worker_id: int,
        vdir: str,
        split: dict[str, int] | None = None,
    ) -> tuple[pa.Table | None, list[str], dict]:
        """Self-selection from the shared wave table: this worker's rows
        are those whose ``worker`` column is ``worker_id``.

        The wave is ONE object (owner 0's assemble_wave output,
        zero-copy Arrow in the object store), routed there
        (stages/frontier.py::route_wave); each worker takes only its
        rows here, in parallel, instead of the driver cutting and
        pickling a chunk per worker serially.  ``split`` (host → the
        number of workers its rows of this wave run on; None without a
        rate) sets each host's share of its politeness rate."""
        import time

        t_enter = time.time()  # wall clock: driver-comparable dispatch latency
        self.fetch.split = split or {}
        idx = np.nonzero(wave["worker"].to_numpy() == worker_id)[0]
        if not len(idx):
            self._last_full = None
            return None, [], {"rows": 0, "cands_raw": 0, "n_ok": 0, "fetch": 0.0,
                              "write": 0.0, "extract": 0.0, "gauntlet_fallback": 0,
                              "t_enter": t_enter, "t_exit": time.time()}
        chunk = wave if len(idx) == wave.num_rows else wave.take(pa.array(idx))
        cands, non200, timing = self.process(chunk, vdir, worker_id)
        timing["t_enter"] = t_enter
        timing["t_exit"] = time.time()
        # sort by url_key HERE, in parallel, so each owner slices its
        # key range instead of re-scanning every candidate.  One table
        # serializes cheaper than H slices of it: 300 candidates took
        # 1.7 ms whole and 6.9 ms as 8 slices (4-vCPU x86 VM).
        if cands is None or not cands.num_rows:
            return None, non200, timing
        cands = cands.take(pc.sort_indices(cands, sort_keys=[("url_key", "ascending")]))
        return cands, non200, timing

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
            # candidate rows the gauntlet's column kernels could not
            # model (scalar per-pair fallback)
            "gauntlet_fallback": self.gauntlet.last_fallback_rows if pages.num_rows else 0,
        }
        return cands, non200, timing


def _chunk_dedup(cands: pa.Table) -> pa.Table:
    """Within-chunk first-wins dedup per (tag, url_key), min priority.

    Equivalent to global first-wins (the driver still merges across
    chunks): keeping only each chunk's min-priority occurrence per key
    cannot change which global occurrence wins.  Shrinks the candidate
    table the driver must concat/sort — the admit path is the serial
    Amdahl term of the epoch loop."""
    keep = first_wins(cands["priority"].to_numpy(zero_copy_only=False),
                      cands["tag"].to_numpy(zero_copy_only=False) == "skip",
                      cands["url_key"].to_numpy(zero_copy_only=False))
    return cands.take(pa.array(keep)) if len(keep) != cands.num_rows else cands


def make_crawl_workers(num_workers: int, bounds: list[int], **kwargs):
    """Create ``num_workers`` 1-CPU crawl worker actors, SPREAD over
    the nodes so the owners — worker j holds the url_keys
    ``[bounds[j], bounds[j + 1])``, workers past ``len(bounds) - 1``
    hold none — reach every node.  The caller sizes the pool with
    :func:`clamp_worker_count` first: the
    reference's workers are I/O tasks that oversubscribe freely
    (crawler.rs worker loop), ours are CPU-pinned actors, and a pool
    larger than the cluster would pend forever.  0 (no whole CPU left
    beside the driver) gives one worker that reserves no CPU, so the
    crawl still has a pool to run on."""
    import ray

    Actor = ray.remote(num_cpus=1 if num_workers else 0,
                       scheduling_strategy="SPREAD")(CrawlWorker)
    owned = list(zip(bounds, bounds[1:]))
    owned += [(0, 0)] * (max(1, num_workers) - len(owned))
    return [Actor.remote(lo=lo, hi=hi, **kwargs) for lo, hi in owned]


def _worker_slots() -> int:
    """How many 1-CPU worker actors the cluster holds: its whole CPUs,
    minus one slot kept back for the driver.  Every actor books a
    whole CPU, so any count up to the total packs node by node.  0
    means no whole CPU is left beside the driver (a 1-CPU cluster):
    the pool is then one worker that reserves no CPU
    (:func:`make_crawl_workers`)."""
    return sum(node_cpus()) - 1


def clamp_worker_count(num_workers: int) -> int:
    """Largest worker count that can actually schedule (see
    _worker_slots; without the clamp a pool larger than the cluster
    pends forever).  0 when not even one worker fits."""
    return min(max(1, num_workers), _worker_slots())

