"""Recrawl scheduling — per-URL change-rate estimation and staleness
priorities over successive crawl deltas (Cho & Garcia-Molina 2003,
"Effective page refresh policies for Web crawlers", ACM TODS 28(4):
pages change as independent Poisson processes; k binary re-visit
observations give the bias-corrected rate estimate
``lambda = -ln((n - X + 0.5) / (n + 0.5)) / dt``).

This is the operator a CONTINUOUS crawl (pipelines/continuous.py)
feeds: each cycle's `pipelines/delta.crawl_delta` table is one binary
observation per URL ("did it change since last cycle?"); accumulating
cycles yields per-URL (n, X) and the scheduler wants the URLs most
likely stale at the next horizon.  The reference engine crawls one
site per invocation and has no cross-run scheduler (its result rows —
`/root/reference/src/engine/crawler.rs` — stop at per-run storage), so
this family extends SURVEY.md §2.11 with the published estimator.

Scale shape: observation rows hash-exchange ONCE on ``url_key`` (the
`stages/dedup._partitioned_exchange` guarantee: identical key ⇒ one
partition), so per-URL (n, X) totals and rate estimates are exact
partition-locally and stay in the object store as refs.  Host-level
smoothing needs one tiny per-host reduction (hosts ≪ URLs): each
partition emits (host, sum_lambda, cnt) partials, the driver combines
a hosts-sized table and broadcasts it back via ``ray.put``; a second
per-partition pass shrinks cold URLs toward their host mean
(``lambda' = (n·lambda + m0·lambda_host) / (n + m0)``), scores
staleness ``1 - exp(-lambda'·horizon)`` and keeps a local top-B, so
the driver merges P·B rows, never the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# pseudo-observation weight of the host prior in the shrinkage estimate
DEFAULT_M0 = 2.0


def observations_from_delta(delta: pa.Table, cycle: int) -> pa.Table:
    """One binary change observation per re-visited URL from a
    `crawl_delta` table: ``new`` rows have no history and ``gone`` rows
    leave the frontier, so only changed/unchanged survive."""
    from ..functions.urls import hosts_of

    seen = delta.filter(pc.is_in(delta["change"],
                                 value_set=pa.array(["changed", "unchanged"])))
    urls = seen["url"].to_numpy(zero_copy_only=False)
    return pa.table({
        "url_key": seen["url_key"],
        "url": seen["url"],
        "host": pa.array(hosts_of(urls), pa.string()),
        "changed": pc.equal(seen["change"], "changed"),
        "cycle": pa.array(np.full(seen.num_rows, cycle, np.int32)),
    })


def _nx_kernel(t: pa.Table) -> pa.Table:
    """Per-url_key (n, x) totals; url/host carried from the first row.
    Accepts raw observation rows (``changed`` bool, weight 1 each) or
    already-partial rows (``n``/``x`` columns) — the same kernel runs
    per block and per exchange partition."""
    keys = t["url_key"].to_numpy(zero_copy_only=False)
    if "x" in t.column_names:  # combining partials
        ch = t["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False)
    else:  # raw observations
        ch = t["changed"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = None
    uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    x = np.bincount(inv, weights=ch, minlength=len(uniq)).astype(np.int64)
    cnt = (np.bincount(inv, weights=n, minlength=len(uniq)).astype(np.int64)
           if n is not None else np.bincount(inv, minlength=len(uniq)).astype(np.int64))
    return pa.table({
        "url_key": pa.array(uniq, pa.uint64()),
        "url": t["url"].take(pa.array(first)),
        "host": t["host"].take(pa.array(first)),
        "n": pa.array(cnt),
        "x": pa.array(x),
    })


def _rates(nx: pa.Table, interval_sec: float) -> pa.Table:
    """Bias-corrected Poisson rate per URL (1/sec)."""
    n = nx["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    x = nx["x"].to_numpy(zero_copy_only=False).astype(np.float64)
    lam = -np.log((n - x + 0.5) / (n + 0.5)) / interval_sec
    return nx.append_column("lam", pa.array(lam))


def change_rate_estimates(obs_ds, interval_sec: float,
                          num_partitions: int | None = None,
                          return_refs: bool = False):
    """(url_key, url, host, n, x, lam) — per-URL totals and rate
    estimates, exchanged once on url_key.  ``return_refs=True`` leaves
    the per-partition tables in the object store for a chained pass
    (what `recrawl_priority` does)."""
    from ..stages.dedup import _partitioned_exchange

    partials = obs_ds.map_batches(
        lambda b: _nx_kernel(pa.table({
            "url_key": b["url_key"], "url": b["url"], "host": b["host"],
            "changed": b["changed"]})),
        batch_format="pyarrow")
    out = _partitioned_exchange(
        partials, "url_key", lambda t: _rates(_nx_kernel(t), interval_sec),
        num_partitions=num_partitions, return_refs=return_refs)
    if return_refs:
        return out
    if not out:
        return _rates(_nx_kernel(pa.table({
            "url_key": pa.array([], pa.uint64()), "url": pa.array([], pa.string()),
            "host": pa.array([], pa.string()),
            "changed": pa.array([], pa.bool_())})), interval_sec)
    t = pa.concat_tables(out)
    return t.take(pc.sort_indices(t, [("url_key", "ascending")]))


def apply_lastmod_boost(priority: pa.Table, lastmod: pa.Table,
                        last_crawl_ts: float) -> pa.Table:
    """Publisher-signal override on a `recrawl_priority` table: any URL
    whose sitemap ``lastmod_ts`` (sources/seeds.parse_sitemap_entries)
    is newer than the last crawl gets staleness 1.0 — the publisher
    SAYS it changed, no estimation needed — then the schedule re-sorts
    by (staleness desc, url asc).  URLs absent from the sitemap keep
    their estimated staleness.  Vectorized: one searchsorted against
    the sorted sitemap URL array per call."""
    if priority.num_rows == 0 or lastmod.num_rows == 0:
        return priority
    lm_urls = lastmod["url"].to_numpy(zero_copy_only=False).astype(str)
    lm_ts = lastmod["lastmod_ts"].to_numpy(zero_copy_only=False)
    order = np.argsort(lm_urls, kind="stable")
    lm_urls, lm_ts = lm_urls[order], lm_ts[order]
    urls = priority["url"].to_numpy(zero_copy_only=False).astype(str)
    pos = np.minimum(np.searchsorted(lm_urls, urls), len(lm_urls) - 1)
    hit = lm_urls[pos] == urls
    fresh = hit & ~np.isnan(lm_ts[pos]) & (lm_ts[pos] > last_crawl_ts)
    stale = priority["staleness"].to_numpy(zero_copy_only=False).copy()
    stale[fresh] = 1.0
    out = priority.set_column(
        priority.column_names.index("staleness"), "staleness", pa.array(stale))
    return out.take(pc.sort_indices(out, [("staleness", "descending"),
                                          ("url", "ascending")]))


def recrawl_seed_list(obs_ds, interval_sec: float, horizon_sec: float,
                      top_b: int = 1000, **kw) -> list[str]:
    """Staleness-ordered seed URLs for the NEXT crawl — the frontier
    re-prioritization loop closed: `pipelines/crawl.EpochCrawler.seed`
    assigns each seed a priority equal to its list position, so passing
    this list as ``seed_urls`` makes the next wave fetch the stalest
    pages first (pytest-pinned: visited ``seq`` order equals schedule
    order)."""
    return recrawl_priority(obs_ds, interval_sec, horizon_sec,
                            top_b=top_b, **kw)["url"].to_pylist()


def read_observations(obs_dir: str):
    """Dataset over an accumulated observation tree
    (``epoch=NNNNN/obs-*.parquet`` files written by
    `pipelines/delta.crawl_delta(observations_out=...)``) — the input
    `recrawl_priority` consumes in a standing crawl.  Reads only the
    columns `change_rate_estimates` uses."""
    import ray.data as rd

    return rd.read_parquet(obs_dir, columns=["url_key", "url", "host", "changed"])


def recrawl_priority(obs_ds, interval_sec: float, horizon_sec: float,
                     top_b: int = 100, m0: float = DEFAULT_M0,
                     num_partitions: int | None = None) -> pa.Table:
    """Top-B URLs by staleness probability at the horizon —
    (url, n, x, lam, staleness) ordered by (staleness desc, url asc).

    Cold URLs (few observations) shrink toward their host's mean rate
    with ``m0`` pseudo-observations, so a page seen once doesn't pin
    the extremes of the schedule."""
    import ray

    refs = change_rate_estimates(obs_ds, interval_sec,
                                 num_partitions=num_partitions,
                                 return_refs=True)

    @ray.remote
    def host_partial(t: pa.Table):
        if t is None or t.num_rows == 0:
            return None
        hosts = t["host"].to_numpy(zero_copy_only=False).astype(str)
        lam = t["lam"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(hosts, return_inverse=True)
        return pa.table({
            "host": pa.array(uniq, pa.string()),
            "s": pa.array(np.bincount(inv, weights=lam, minlength=len(uniq))),
            "c": pa.array(np.bincount(inv, minlength=len(uniq)).astype(np.int64)),
        })

    host_parts = [t for t in ray.get([host_partial.remote(r) for r in refs])
                  if t is not None]
    empty = pa.table({"url": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "x": pa.array([], pa.int64()),
                      "lam": pa.array([], pa.float64()),
                      "staleness": pa.array([], pa.float64())})
    if not host_parts:
        return empty
    hp = pa.concat_tables(host_parts)
    hosts = hp["host"].to_numpy(zero_copy_only=False).astype(str)
    uniq, inv = np.unique(hosts, return_inverse=True)
    mean = (np.bincount(inv, weights=hp["s"].to_numpy(zero_copy_only=False))
            / np.bincount(inv, weights=hp["c"].to_numpy(zero_copy_only=False)
                          .astype(np.float64)))
    prior_ref = ray.put((uniq, mean))

    @ray.remote
    def score_topb(t: pa.Table, prior):
        if t is None or t.num_rows == 0:
            return None
        p_hosts, p_mean = prior
        hosts = t["host"].to_numpy(zero_copy_only=False).astype(str)
        lam_host = p_mean[np.searchsorted(p_hosts, hosts)]
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        lam = t["lam"].to_numpy(zero_copy_only=False)
        shrunk = (n * lam + m0 * lam_host) / (n + m0)
        stale = 1.0 - np.exp(-shrunk * horizon_sec)
        scored = pa.table({"url": t["url"], "n": t["n"], "x": t["x"],
                           "lam": pa.array(np.round(shrunk, 12)),
                           "staleness": pa.array(np.round(stale, 12))})
        idx = pc.sort_indices(scored, [("staleness", "descending"),
                                       ("url", "ascending")])
        return scored.take(idx.slice(0, top_b))

    tops = [t for t in ray.get([score_topb.remote(r, prior_ref) for r in refs])
            if t is not None and t.num_rows]
    if not tops:
        return empty
    merged = pa.concat_tables(tops)
    idx = pc.sort_indices(merged, [("staleness", "descending"),
                                   ("url", "ascending")])
    return merged.take(idx.slice(0, top_b))
