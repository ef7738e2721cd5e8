"""Flat (url-list) crawl — the pure Ray Data streaming pipeline.

The reference's ``--url-list`` mode (/root/reference/src/engine/
crawler.rs:226-230) visits a known URL set with no frontier recursion —
exactly the case where the Dataset API alone expresses the whole job:

    urls → map_batches(canonicalize)          stateless task
         → map_batches(FetchStage, actors)    politeness + corpus lookup
         → map_batches(analyzer columns)      stateless
         → write_parquet / aggregate          streaming sink

No driver-side loop, no shard actors: the streaming executor pipelines
blocks through the actor pool with backpressure, so a 10^10-row URL
list streams without materialization.  (The BFS crawl keeps its
persistent-worker epoch loop because each wave's input depends on the
previous wave's output — see pipelines/crawl.py.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import urls as U
from ..functions.hashing import xxh64_strings
from ..stages.fetch import FetchStage


def prep_url_batch(batch: pa.Table) -> pa.Table:
    """url strings → the fetch-stage input schema (canonical URL, key,
    host; seq derives from the key so it is stable under any
    partitioning).  Canonicalization is ``U.canonicalize_urls``: the
    column kernel renders the rows it models, the scalar
    ``U.canonicalize`` only the residue — no per-row Python on the
    dominant shape of a 10^10-row URL list."""
    canon_all = U.canonicalize_urls(batch["url"])
    canon = canon_all[canon_all != None]  # noqa: E711 — object-array None mask
    n = len(canon)
    # one Arrow encode; hashing and host extraction read the same buffers
    url_arr = pa.array(canon, pa.string())
    keys = xxh64_strings(url_arr) if n else np.empty(0, np.uint64)
    return pa.table(
        {
            "url": url_arr,
            "url_key": pa.array(keys, pa.uint64()),
            "host": U.hosts_of(url_arr, return_arrow=True),
            "depth": pa.array(np.zeros(n, np.int32)),
            "priority": pa.array(keys.view(np.int64) if n else [], pa.int64()),
            "source_uq_id": pa.array([""] * n, pa.string()),
            "source_attr": pa.array(np.full(n, 91, np.int8)),  # UrlSource.URL_LIST
            "seq": pa.array(keys.view(np.int64) if n else [], pa.int64()),
            "wavepos": pa.array(np.zeros(n, np.int64)),
            "epoch": pa.array(np.zeros(n, np.int32)),
        }
    )


def flat_crawl(
    corpus_path: str,
    urls_ds,
    *,
    max_reqs_per_sec: float | None = None,
    concurrency: int = 8,
    batch_size: int = 2048,
    seed_host: str = "",
):
    """→ lazy visited Dataset (stream to write_parquet or aggregate)."""
    return urls_ds.map_batches(prep_url_batch, batch_format="pyarrow").map_batches(
        FetchStage,
        fn_constructor_kwargs=dict(
            corpus_path=corpus_path,
            # any actor may get any host's rows: each gets rate / pool size
            max_reqs_per_sec=None if max_reqs_per_sec is None else max_reqs_per_sec / concurrency,
            seed_host=seed_host,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
