"""Correctness gate: engine outputs against independent references.

Crawls are checked against ``pipelines.oracle.run_oracle`` (the
single-threaded FIFO model, epoch basename guard) on the seq-ordered
``(url, depth, source_attr, status_code, epoch)`` rows, the URL-seen set
and the skipped ``(url, reason)`` set.  The oracle is cached outside any
timed region, under a key that covers everything its output depends on
(see :func:`cache_key`), and its run time is kept as the
single-threaded baseline.

Curate is checked against :func:`workloads.curate_reference`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VISITED_COLS = ["url", "depth", "source_attr", "status_code", "epoch"]


class CrawlExpected:
    def __init__(self, visited: list[tuple], seen: np.ndarray, skipped: set[tuple],
                 oracle_s: float):
        self.visited = visited
        self.seen = np.sort(np.asarray(seen, dtype=np.uint64))
        self.skipped = skipped
        self.oracle_s = oracle_s


def cache_key(workload: str, seed: int, inp: dict, cfg, max_epochs: int | None) -> str:
    """Oracle cache key: the input (documents, start URLs, robots), the
    crawl config, the wave cut, and the source of the oracle and of this
    file, so a change to any of them cannot reuse a stale expectation."""
    from siteone_crawler_ray.pipelines import oracle

    from .workloads import table_digest

    h = hashlib.sha256()
    for part in (table_digest(inp["documents"]), repr(inp["seeds"]),
                 repr(sorted(inp["robots"].items())), repr(cfg), repr(max_epochs)):
        h.update(part.encode() + b"\0")
    for path in (oracle.__file__, __file__):
        with open(path, "rb") as f:
            h.update(f.read())
    return f"{workload}-{seed}-{h.hexdigest()[:16]}"


def oracle_expected(inp: dict, cfg, cache_dir: str, key: str,
                    max_epochs: int | None = None) -> CrawlExpected:
    """Run (or load) the oracle for one crawl input.

    With ``max_epochs`` = E the engine stops after waves 0..E-1; the
    uncapped FIFO oracle visits every URL it ever enqueues, so the
    expected output is its visited rows of epoch < E, the keys of its
    rows of epoch <= E (enqueued by those waves) as the seen set, and
    the skips whose first source page is in epoch < E."""
    base = os.path.join(cache_dir, key)
    meta_p = base + ".json"
    if os.path.exists(meta_p):
        with open(meta_p) as f:
            meta = json.load(f)
        vt = pq.read_table(base + ".visited.parquet")
        st = pq.read_table(base + ".skipped.parquet")
        return CrawlExpected(
            list(zip(*[vt[c].to_pylist() for c in VISITED_COLS])),
            np.load(base + ".seen.npy"),
            set(zip(st["url"].to_pylist(), st["reason"].to_pylist())),
            meta["oracle_s"])
    from siteone_crawler_ray.pipelines.oracle import run_oracle

    t0 = time.perf_counter()
    o = run_oracle(inp["documents"], inp["seeds"], inp["robots"], cfg, basename_guard="epoch")
    oracle_s = time.perf_counter() - t0
    vt = o.visited_table()
    seen = np.fromiter(o.seen_keys, dtype=np.uint64, count=len(o.seen_keys))
    skipped = o.skipped
    if max_epochs is not None:
        from siteone_crawler_ray.functions.hashing import xxh64_strings

        epoch = vt["epoch"].to_numpy()
        seen = xxh64_strings(vt.filter(pa.array(epoch <= max_epochs))["url"])
        src_epoch = dict(zip(vt["uq_id"].to_pylist(), epoch.tolist()))
        skipped = [s for s in skipped if src_epoch[s["source_uq_id"]] < max_epochs]
        vt = vt.filter(pa.array(epoch < max_epochs))
    vt = vt.select(VISITED_COLS)
    st = pa.table({"url": pa.array([s["url"] for s in skipped], pa.string()),
                   "reason": pa.array([int(s["reason"]) for s in skipped], pa.int64())})
    os.makedirs(cache_dir, exist_ok=True)
    pq.write_table(vt, base + ".visited.parquet")
    pq.write_table(st, base + ".skipped.parquet")
    np.save(base + ".seen.npy", seen)
    with open(meta_p + ".tmp", "w") as f:
        json.dump({"oracle_s": oracle_s}, f)
    os.replace(meta_p + ".tmp", meta_p)  # the meta file marks a complete entry
    return CrawlExpected(list(zip(*[vt[c].to_pylist() for c in VISITED_COLS])), seen,
                         set(zip(st["url"].to_pylist(), st["reason"].to_pylist())), oracle_s)


def compare_rows(got: list[tuple], want: list[tuple]) -> dict:
    """Position-wise comparison of two seq-ordered row lists."""
    mismatched = sum(1 for a, b in zip(got, want) if a != b)
    return {"mismatched": mismatched,
            "missing": max(0, len(want) - len(got)),
            "extra": max(0, len(got) - len(want))}


def check_crawl(result, exp: CrawlExpected) -> tuple[int, int, dict]:
    """→ (failed, attempted, detail) for one engine crawl result.
    attempted = oracle visited rows; failed counts mismatched, missing
    and extra rows plus seen-set and skip-set differences."""
    vt = result.visited_table(columns=VISITED_COLS)
    got = list(zip(*[vt[c].to_pylist() for c in VISITED_COLS]))
    d = compare_rows(got, exp.visited)
    d["seen_diff"] = int(len(np.setxor1d(result.seen_keys.astype(np.uint64), exp.seen)))
    sk = result.skipped
    got_sk = set(zip(sk["url"].to_pylist(), [int(r) for r in sk["reason"].to_pylist()]))
    d["skip_diff"] = len(got_sk ^ exp.skipped)
    failed = sum(d.values())
    attempted = max(1, len(exp.visited))
    return min(failed, attempted), attempted, d


def check_curate(out_dir: str, expected_ids: set[int], n_input: int) -> tuple[int, int, dict]:
    """→ (failed, attempted, detail): wrong survivor ids / input docs."""
    got: list[int] = []
    for d in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, d, "part.parquet")
        if d.startswith("shard=") and os.path.exists(p):
            got += pq.read_table(p, columns=["doc_id"])["doc_id"].to_pylist()
    got_set = set(got)
    d = {"missing": len(expected_ids - got_set), "extra": len(got_set - expected_ids),
         "duplicated": len(got) - len(got_set)}
    return min(sum(d.values()), n_input), n_input, d
