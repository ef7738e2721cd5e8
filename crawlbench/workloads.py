"""Workload definitions and seeded input generators.

Every generator is a pure function of the workload seed: one
``numpy.random.Generator`` per call, no ambient randomness.  The engine
only ever sees the tables (crawl corpora) or the Dataset rows (curate)
built here.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass(frozen=True)
class CrawlWorkload:
    hosts: int
    total_pages: int
    out_degree: int
    routing: str = "bucket"
    max_reqs_per_sec: float | None = None
    # stop after this many waves: the last waves of a random graph are a
    # seed-dependent tail of a few pages each, so a fixed wave count keeps
    # the work per run the same across seeds
    max_epochs: int | None = None
    # crawl from the first N pages of host 0 instead of the generator's
    # one-page-per-host seeds: a single start page makes the early waves
    # (and, at low out-degree, whether the crawl survives) seed-dependent
    seed_pages: int | None = None


@dataclass(frozen=True)
class CurateWorkload:
    base_docs: int
    bench_docs: int


# Sizes are chosen so a full round (4 + 22 runs per workload) fits in
# 3,420 s on a 4-core box while each workload keeps most of its time in
# a different layer (see README.md for the measured shares).
WORKLOADS: dict[str, CrawlWorkload | CurateWorkload] = {
    # few wide waves: fetch → extract → gauntlet inside the workers; at
    # this size the per-epoch serial path is about a fifth of the run
    "crawl_bulk": CrawlWorkload(hosts=12, total_pages=30_000, out_degree=8),
    # many narrow waves: the per-epoch serial path (drain, assemble,
    # dispatch, ingest, checkpoint)
    "crawl_deep": CrawlWorkload(hosts=1, total_pages=6_000, out_degree=2, max_epochs=18,
                                seed_pages=8),
    # bound by the Zipf hot host's token bucket ("same politeness budget")
    "crawl_polite": CrawlWorkload(hosts=12, total_pages=4_000, out_degree=8,
                                  routing="host", max_reqs_per_sec=400.0),
    # Ray Data map_batches + exchanges, no crawl layers
    "curate": CurateWorkload(base_docs=4_000, bench_docs=300),
}


def crawl_config(w: CrawlWorkload):
    """Politeness and caps are workload constants; caps are off."""
    from siteone_crawler_ray.pipelines.crawl import CrawlConfig

    return CrawlConfig(max_visited_urls=10**9, max_queue_length=10**9,
                       routing=w.routing, max_reqs_per_sec=w.max_reqs_per_sec)


# -- crawl inputs -------------------------------------------------------------

def make_crawl_input(w: CrawlWorkload, seed: int) -> dict:
    """→ {documents, seeds (list), robots (dict)} for one crawl workload."""
    from siteone_crawler_ray.sources.corpus import make_graph_corpus, page_url

    tabs = make_graph_corpus(seed=seed, hosts=w.hosts, total_pages=w.total_pages,
                             out_degree=w.out_degree)
    seeds = ([page_url(0, p) for p in range(w.seed_pages)] if w.seed_pages
             else tabs["seeds"]["url"].to_pylist())
    return {
        "documents": tabs["documents"],
        "seeds": seeds,
        "robots": dict(zip(tabs["robots"]["host"].to_pylist(),
                           tabs["robots"]["body"].to_pylist())),
    }


def write_crawl_input(inp: dict, path: str) -> str:
    from siteone_crawler_ray.sources.corpus import write_corpus

    cp = os.path.join(path, "corpus")
    write_corpus(inp["documents"], cp)
    return cp


# -- curate inputs ------------------------------------------------------------

_LETTERS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)

# curation_run defaults the reference below re-implements independently
MIN_TOKENS = 8
ZLIB_MAX, ZLIB_MIN, ZLIB_MIN_LEN = 0.95, 0.05, 256
DUP_THRESHOLD = 0.8
DECONTAM_N = 3
SHINGLE_K = 5


def _vocab(rng: np.random.Generator, n: int) -> list[str]:
    words: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        ln = int(rng.integers(4, 10))
        w = _LETTERS[rng.integers(0, 26, ln)].tobytes().decode()
        if w not in words:
            words.add(w)
            out.append(w)
    return out


def make_curate_input(w: CurateWorkload, seed: int) -> dict:
    """Synthetic documents with known structure.

    Base docs are random word sequences over a large vocabulary, so two
    of them share almost no shingles.  Injected on top, each from a
    distinct base doc: exact copies, suffix near-copies (3 words
    appended), shuffled-word copies, and gate failures (too short,
    too repetitive).  The held-out benchmark set is fresh random text
    plus docs that quote a 6-word window from a minority of base docs.
    Returns the docs table, the benchmark table and the ground truth
    the reference needs (injected pairs and junk ids)."""
    rng = np.random.default_rng(seed)
    vocab = _vocab(rng, 6000)
    V = len(vocab)

    def rand_words(k: int) -> list[str]:
        return [vocab[i] for i in rng.integers(0, V, k)]

    base = [rand_words(int(rng.integers(60, 100))) for _ in range(w.base_docs)]
    texts = [" ".join(b) for b in base]
    origin = list(range(len(base)))  # index of the base doc each text derives from
    kind = ["base"] * len(base)
    pick = rng.permutation(len(base))
    n10, n5 = len(base) // 10, len(base) // 20
    exact_src, near_src = pick[:n10], pick[n10:2 * n10]
    shuf_src, contam_src = pick[2 * n10:2 * n10 + n5], pick[2 * n10 + n5:3 * n10 + n5]
    for i in exact_src:
        texts.append(texts[i]); origin.append(int(i)); kind.append("exact")
    for i in near_src:
        texts.append(" ".join(base[i] + rand_words(3))); origin.append(int(i)); kind.append("near")
    for i in shuf_src:
        texts.append(" ".join(base[i][j] for j in rng.permutation(len(base[i]))))
        origin.append(int(i)); kind.append("shuffled")
    for _ in range(len(base) // 50):
        texts.append(" ".join(rand_words(4))); origin.append(-1); kind.append("short")
    for _ in range(len(base) // 100):
        texts.append(" ".join([rand_words(1)[0]] * 80)); origin.append(-1); kind.append("repetitive")

    n = len(texts)
    ids = rng.permutation(n).astype(np.int64) * 7 + 11  # ids unrelated to row order
    docs = pa.table({"doc_id": pa.array(ids), "source": pa.array([f"src-{i % 4}" for i in range(n)]),
                     "text": pa.array(texts)})

    bench = [" ".join(rand_words(int(rng.integers(40, 80)))) for _ in range(w.bench_docs)]
    for i in contam_src:
        b = base[i]
        s = int(rng.integers(0, len(b) - 6))
        bench.append(" ".join(rand_words(10) + b[s:s + 6] + rand_words(10)))
    bench_tbl = pa.table({"doc_id": pa.array(np.arange(len(bench), dtype=np.int64)),
                          "text": pa.array(bench)})
    return {"docs": docs, "bench": bench_tbl,
            "origin": origin, "kind": kind}


def write_curate_input(inp: dict, path: str) -> tuple[str, str]:
    os.makedirs(path, exist_ok=True)
    dp, bp = os.path.join(path, "docs.parquet"), os.path.join(path, "bench.parquet")
    pq.write_table(inp["docs"], dp, row_group_size=1000)
    pq.write_table(inp["bench"], bp)
    return dp, bp


def _shingles(text: str, k: int = SHINGLE_K) -> set[str]:
    return {text[i:i + k] for i in range(max(1, len(text) - k + 1))}


def _ngrams(text: str, n: int = DECONTAM_N) -> set[str]:
    toks = text.split(" ")
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def curate_reference(inp: dict) -> set[int]:
    """Expected surviving doc ids, computed without the engine: the
    quality gate from its documented thresholds, exact dedup from
    identical texts, near dedup from the generator's injected pairs
    (exact character-shingle Jaccard), decontamination as a Python-set
    word-n-gram semi-join."""
    docs = inp["docs"]
    ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()

    def passes(t: str) -> bool:
        raw = t.encode()
        zr = len(zlib.compress(raw, 6)) / len(raw) if raw else 0.0
        zr_ok = (ZLIB_MIN <= zr <= ZLIB_MAX) or len(raw) < ZLIB_MIN_LEN
        toks = t.split(" ")
        avg_len = sum(len(x) for x in toks) / len(toks)
        return t.count(" ") + 1 >= MIN_TOKENS and zr_ok and avg_len <= 40.0

    alive = {i for i, t in zip(ids, texts) if passes(t)}
    # exact: min id per identical text
    by_text: dict[str, int] = {}
    for i, t in zip(ids, texts):
        if i in alive:
            by_text[t] = min(by_text.get(t, i), i)
    alive = set(by_text.values())
    survivor_of_text = by_text
    # near: injected (derived, base) pairs among exact survivors
    drop: set[int] = set()
    for row, (o, k) in enumerate(zip(inp["origin"], inp["kind"])):
        if k not in ("near", "shuffled"):
            continue
        a = survivor_of_text.get(texts[o])
        b = ids[row]
        if a is None or b not in alive:
            continue
        sa, sb = _shingles(texts[o]), _shingles(texts[row])
        if len(sa & sb) / len(sa | sb) >= DUP_THRESHOLD:
            drop.add(max(a, b))
    alive -= drop
    # decontamination: any shared word n-gram with the benchmark set
    bench_grams: set[str] = set()
    for t in inp["bench"]["text"].to_pylist():
        bench_grams |= _ngrams(t)
    text_of = dict(zip(ids, texts))
    return {i for i in alive if not (_ngrams(text_of[i]) & bench_grams)}


def table_digest(t: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t.combine_chunks())
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()[:16]
