"""Fetch stage — actor-pool corpus lookup with per-host politeness.

The reference's ``HttpClient::request`` (/root/reference/src/engine/
http_client.rs:77-237) becomes a keyed lookup of the canonical URL in
the bucketed interleaved-document corpus (sources/corpus.py); the
``Fetcher`` trait (src/engine/fetcher.rs:21-95) becomes this callable
class — constructor-injected backend, one instance per Ray actor, so
corpus bucket caches, token buckets and compiled state are built once
per actor and amortized across batches (``map_batches(FetchStage,
concurrency=N, batch_size=B)``).

Politeness: per-host token buckets (north rule).  The reference uses a
single global limiter (crawler.rs:159, 553-568); here each actor holds
buckets for the hosts it sees, and when one wave's rows of a host run
on A actors each bucket gets ``rate / A`` (A = the host's ``split``,
which stages/frontier.py::assemble_wave computes with the routing), so
the host's buckets sum to its rate — the budget-split scheme SURVEY
§4.2 documents for salted hot hosts.  A Ray Data pool with no wave
routing (pipelines/flat.py) divides its rate by the pool size instead.
``max_reqs_per_sec=None`` disables waiting (corpus-backed bench is
compute-bound).

Responses are deterministic functions of (url, corpus) so the oracle
can reproduce them exactly:
- URL present in corpus → 200, ContentType.HTML, size = Σ span lengths
- absent + static-asset extension → 200 synthetic asset, type by
  extension, size = url_key % 50000
- absent otherwise → 404 (type OTHER)
- request_time = (url_key % 10000) / 1e5 seconds (synthetic metric
  feeding the fastest/slowest/p90 report tables deterministically).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from ..functions import urls as U
from ..functions.hashing import uq_ids
from ..sources.corpus import CorpusReader
from ..types import EXTENSION_CONTENT_TYPE, ContentType
from .extract import extract_title_extras


def synthetic_status(in_corpus: bool, url: str, is_redirect: bool = False,
                     error_code: int = 0) -> tuple[int, int]:
    """→ (status_code, content_type) — shared by engine and oracle.

    Redirect docs (single ``redirect`` span) → 301 + ContentType.REDIRECT
    (the 301<status<320 override, crawler.rs:666-673); error docs carry a
    negative transport code (visited_url.rs:13-17)."""
    if in_corpus:
        if error_code < 0:
            return error_code, ContentType.OTHER
        if is_redirect:
            return 301, ContentType.REDIRECT
        return 200, ContentType.HTML
    ext = U.extension_of(url.split("?", 1)[0])
    if ext in EXTENSION_CONTENT_TYPE:
        return 200, EXTENSION_CONTENT_TYPE[ext]
    return 404, ContentType.OTHER


_CONTENT_TYPE_HEADER = {
    ContentType.HTML: "text/html; charset=utf-8",
    ContentType.SCRIPT: "application/javascript",
    ContentType.STYLESHEET: "text/css",
    ContentType.IMAGE: "image/png",
    ContentType.VIDEO: "video/mp4",
    ContentType.FONT: "font/woff2",
    ContentType.DOCUMENT: "application/pdf",
    ContentType.JSON: "application/json",
    ContentType.REDIRECT: "text/html",
    ContentType.OTHER: "application/octet-stream",
    ContentType.AUDIO: "audio/mpeg",
    ContentType.XML: "application/xml",
}


def synthetic_cache_control(url_key: int, ctype: int) -> str:
    """Deterministic Cache-Control header: assets long-lived public,
    HTML a rotating policy — feeds the cache-flag parser + caching
    tables (crawler.rs:1743-1818 input shapes)."""
    if ctype in (ContentType.SCRIPT, ContentType.STYLESHEET, ContentType.IMAGE,
                 ContentType.FONT, ContentType.VIDEO, ContentType.AUDIO):
        return "public, max-age=604800, immutable"
    r = url_key % 4
    if r == 0:
        return "no-cache, no-store, must-revalidate"
    if r == 1:
        return f"public, max-age={3600 * (1 + url_key % 24)}"
    if r == 2:
        return "private, max-age=0"
    return ""


# -- vectorized header synthesis (element-wise identical to the scalar
#    functions above, which stay as the oracle-shared reference) --------

_HEADER_LUT = np.full(16, "", dtype=object)
for _ct, _hdr in {
    1: "text/html; charset=utf-8", 2: "application/javascript",
    3: "text/css", 4: "image/png", 5: "video/mp4", 6: "font/woff2",
    7: "application/pdf", 8: "application/json", 9: "text/html",
    10: "application/octet-stream", 11: "audio/mpeg", 12: "application/xml",
}.items():
    _HEADER_LUT[_ct] = _hdr

_ASSET_CTYPES = np.array([2, 3, 4, 5, 6, 11], dtype=np.int8)  # long-lived public
_GZIP_CTYPES = np.array([1, 2, 3, 8, 12], dtype=np.int8)
_MAXAGE_LUT = np.array(
    [f"public, max-age={3600 * (1 + i)}" for i in range(24)], dtype=object
)


def _cache_control_vec(keys: np.ndarray, ctype: np.ndarray) -> np.ndarray:
    out = np.full(len(keys), "", dtype=object)
    r = (keys % np.uint64(4)).astype(np.int64)
    out[r == 0] = "no-cache, no-store, must-revalidate"
    m1 = r == 1
    out[m1] = _MAXAGE_LUT[(keys[m1] % np.uint64(24)).astype(np.int64)]
    out[r == 2] = "private, max-age=0"
    out[np.isin(ctype, _ASSET_CTYPES)] = "public, max-age=604800, immutable"
    return out


def _etag_vec(keys: np.ndarray) -> np.ndarray:
    """W/"<hex>" for even keys, None for odd — one hexlify over the whole
    key buffer + vectorized lstrip instead of a per-row format call."""
    import binascii

    hx = np.frombuffer(binascii.hexlify(keys.astype(">u8").tobytes()), dtype="S16")
    tr = np.char.lstrip(hx, b"0")
    tr = np.where(tr == b"", b"0", tr)  # key 0 renders as "0", not ""
    et = np.char.decode(np.char.add(np.char.add(b'W/"', tr), b'"'), "ascii")
    out = np.full(len(keys), None, dtype=object)
    even = keys % np.uint64(2) == 0
    out[even] = et[even]
    return out


def _content_encoding_vec(keys: np.ndarray, ctype: np.ndarray) -> np.ndarray:
    out = np.full(len(keys), None, dtype=object)
    out[(keys % np.uint64(4) == 0) & np.isin(ctype, _GZIP_CTYPES)] = "gzip"
    return out


def _is_external_vec(hosts: np.ndarray, seed_host: str) -> np.ndarray:
    uniq, inv = np.unique(hosts, return_inverse=True)
    ext = np.array([not U.is_same_host(h, seed_host) for h in uniq], dtype=bool)
    return ext[inv]


class TokenBucket:
    __slots__ = ("rate", "capacity", "tokens", "last")

    def __init__(self, rate: float, capacity: float):
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.last = time.monotonic()

    def acquire(self, n: float = 1.0) -> None:
        """Block until n tokens accrue.  Requests larger than capacity
        sleep for the full deficit (a capacity-capped wait loop would
        never terminate for n > capacity)."""
        now = time.monotonic()
        self.tokens = min(self.capacity, self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= n:
            self.tokens -= n
            return
        wait = (n - self.tokens) / self.rate
        time.sleep(wait)
        self.last = time.monotonic()
        self.tokens = 0.0


class FetchStage:
    """map_batches actor: dispatch rows → visited rows (+spans for pages).

    One token bucket per host (``buckets``), at ``rate / split[host]``:
    ``split`` maps a host to the number of fetch actors its rows of the
    current wave run on (stages/frontier.py::host_split, set per wave
    by ``CrawlWorker.process_shared``; absent → 1)."""

    def __init__(
        self,
        corpus_path: str,
        max_reqs_per_sec: float | None = None,
        seed_host: str = "",
    ):
        self.corpus = CorpusReader(corpus_path)
        self.rate = max_reqs_per_sec
        self.buckets: dict[str, TokenBucket] = {}
        self.seed_host = seed_host
        self.split: dict[str, int] = {}

    def _bucket(self, host: str) -> TokenBucket:
        rate = self.rate / self.split.get(host, 1)
        b = self.buckets.get(host)
        if b is None or abs(b.rate - rate) > 1e-12:
            # carry accrued tokens across a rate change (the host's
            # split changed) — a fresh full bucket would grant the host
            # a burst above the politeness cap (ADVICE r1)
            nb = TokenBucket(rate, max(1.0, rate))
            if b is not None:
                now = time.monotonic()
                nb.tokens = min(nb.capacity,
                                b.tokens + (now - b.last) * b.rate)
                nb.last = now
            b = self.buckets[host] = nb
        return b

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Fetch ``batch`` in politeness slices: slice j holds each host's
        rows with running index in [j·cap, (j+1)·cap), cap its bucket's
        capacity, and is looked up right after the grant of its per-host
        counts.  No grant exceeds a bucket's capacity, so a host never
        sees more than rate + capacity requests in a second (one acquire
        for a whole batch granted them as one burst after the wait).
        The output is in batch row order."""
        if self.rate is None or not batch.num_rows:
            return self._fetch(batch)
        hosts = batch["host"].to_numpy(zero_copy_only=False)
        uniq, inv, counts = np.unique(hosts, return_inverse=True, return_counts=True)
        buckets = [self._bucket(h) for h in uniq]
        cap = np.array([max(1, int(b.capacity)) for b in buckets])
        by_host = np.argsort(inv, kind="stable")
        run = np.empty(len(inv), dtype=np.int64)
        run[by_host] = np.arange(len(inv)) - np.repeat(np.cumsum(counts) - counts, counts)
        slice_of = run // cap[inv]
        parts, rows = [], []
        for j in range(int(slice_of.max()) + 1):
            idx = np.nonzero(slice_of == j)[0]
            for h, c in zip(*np.unique(inv[idx], return_counts=True)):
                buckets[h].acquire(float(c))
            parts.append(self._fetch(batch if len(idx) == len(inv) else batch.take(idx)))
            rows.append(idx)
        if len(parts) == 1:
            return parts[0]
        return pa.concat_tables(parts).take(np.argsort(np.concatenate(rows)))

    def _fetch(self, batch: pa.Table) -> pa.Table:
        urls_np = batch["url"].to_numpy(zero_copy_only=False)
        keys = batch["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        hosts = batch["host"].to_numpy(zero_copy_only=False)

        found, rows = self.corpus.lookup(urls_np, keys)
        n = len(urls_np)
        # redirect / transport-error docs: classified by the first span
        is_red = np.zeros(n, dtype=bool)
        err_code = np.zeros(n, dtype=np.int32)
        if rows.num_rows:
            sp = rows["spans"].combine_chunks() if isinstance(rows["spans"], pa.ChunkedArray) else rows["spans"]
            lens = pa.compute.list_value_length(sp).to_numpy(zero_copy_only=False)
            starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
            flat_sp = pa.compute.list_flatten(sp)
            fk = flat_sp.field("kind").to_numpy(zero_copy_only=False)
            ft = flat_sp.field("text").to_numpy(zero_copy_only=False)
            safe = np.minimum(starts, max(0, len(fk) - 1))
            first_kind = np.where(lens > 0, fk[safe], "")
            first_text = np.where(lens > 0, ft[safe], "")
            fidx = np.nonzero(found)[0]
            is_red[fidx] = first_kind == "redirect"
            is_err = first_kind == "error"
            codes = np.zeros(rows.num_rows, dtype=np.int32)
            for j in np.nonzero(is_err)[0]:  # error docs only (rare)
                codes[j] = int(first_text[j])
            err_code[fidx] = codes
        # vectorized synthetic_status (same decision order: error >
        # redirect > 200-HTML for corpus hits; extension map for misses)
        status = np.empty(n, dtype=np.int32)
        ctype = np.empty(n, dtype=np.int8)
        status[found] = 200
        ctype[found] = ContentType.HTML
        rm = is_red & (err_code >= 0)
        status[rm] = 301
        ctype[rm] = ContentType.REDIRECT
        em = err_code < 0
        status[em] = err_code[em]
        ctype[em] = ContentType.OTHER
        for i in np.nonzero(~found)[0]:  # misses only: per-row ext lookup
            s, c = synthetic_status(False, urls_np[i])
            status[i] = s
            ctype[i] = c
        size = (keys % np.uint64(50000)).astype(np.int64)
        req_time = (keys % np.uint64(10000)).astype(np.float64) / 1e5

        # spans passthrough (zero-copy from the corpus bucket table) —
        # the per-row span-sequence invariant rides on this column
        spans_type = rows.schema.field("spans").type if rows.num_rows else None
        if rows.num_rows:
            spans_col = rows["spans"].combine_chunks() if isinstance(rows["spans"], pa.ChunkedArray) else rows["spans"]
            # scatter found rows back into batch order
            indices = np.full(n, -1, dtype=np.int64)
            indices[np.nonzero(found)[0]] = np.arange(rows.num_rows)
            spans_full = spans_col.take(pa.array(indices, mask=indices < 0))
            assert spans_full.type == spans_type
            # page body size = Σ span lengths
            flat = pa.compute.list_value_length(spans_col).to_numpy(zero_copy_only=False)
            tl = pa.compute.list_flatten(spans_col)
            # null-safe: a null text/media_ref counts 0 bytes — without
            # fill_null a single null field NaN-poisons the whole doc's
            # size through the float round-trip
            span_sz = np.maximum(
                1,
                pa.compute.fill_null(pa.compute.binary_length(tl.field("text")), 0)
                .to_numpy(zero_copy_only=False)
                + pa.compute.fill_null(pa.compute.binary_length(tl.field("media_ref")), 0)
                .to_numpy(zero_copy_only=False),
            )
            doc_sizes = np.bincount(
                np.repeat(np.arange(rows.num_rows), flat),
                weights=span_sz, minlength=rows.num_rows,
            ).astype(np.int64)
            size[found] = doc_sizes
        else:
            spans_full = pa.nulls(n, type=pa.list_(pa.struct(
                [("kind", pa.string()), ("text", pa.string()),
                 ("media_ref", pa.string()), ("offset", pa.int32())])))

        out = pa.table(
            {
                "seq": batch["seq"],
                "wavepos": batch["wavepos"],
                "epoch": batch["epoch"],
                "uq_id": pa.array(uq_ids(urls_np), type=pa.string()),
                "url": batch["url"],
                "url_key": batch["url_key"],
                "host": batch["host"],
                "depth": batch["depth"],
                "source_uq_id": batch["source_uq_id"],
                "source_attr": batch["source_attr"],
                "status_code": pa.array(status),
                "content_type": pa.array(ctype, type=pa.int8()),
                "request_time": pa.array(req_time),
                "size": pa.array(size),
                "spans": spans_full,
                "doc_id": pa.array(np.where(found, urls_np, None), type=pa.string()),
                # synthetic response headers (deterministic fn of key/type)
                # feeding the headers-inventory + caching analyzers —
                # all vectorized (LUT gathers / masked fills); the old
                # per-row list comprehensions were ~40% of fetch time
                "content_type_header": pa.array(
                    _HEADER_LUT[ctype.astype(np.int64)], pa.string()
                ),
                "cache_control": pa.array(
                    _cache_control_vec(keys, ctype), pa.string()
                ),
                "etag": pa.array(_etag_vec(keys), pa.string()),
                "content_encoding": pa.array(
                    _content_encoding_vec(keys, ctype), pa.string()
                ),
                "is_external": pa.array(
                    _is_external_vec(hosts, self.seed_host), pa.bool_()
                ),
            }
        )
        extras = extract_title_extras(out)
        out = out.append_column("title", pa.array(extras["title"], type=pa.string()))
        out = out.append_column("description", pa.array(extras["description"], type=pa.string()))
        return out
